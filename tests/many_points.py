"""A presentation file with many point clauses, to time the parser at scale.

    python tests/many_points.py N [--bad-last]

prints the three clause lines of torus-so3 (vars, bracket, relation) and then
N point clauses with small integer and rational coordinates, one a line.
With --bad-last it adds `point (1, 2, 3 4);`, a syntax error at line N + 4,
col 16.  The CI parse-scale smoke writes its inputs with it, and
`test_presfile` checks where the bad line's error is located.
"""

import sys

HEAD = """vars x, y, z;
bracket exact f = x*y*z - x^2 - y^2 - z^2 + 4;
relation x*y*z - x^2 - y^2 - z^2 + 4;
"""


def many_points(n: int, bad_last: bool = False) -> str:
    points = [f"point ({k % 7 - 3}, {k % 5 - 2}/{k % 3 + 1}, {k % 11 - 5});\n" for k in range(n)]
    return HEAD + "".join(points) + ("point (1, 2, 3 4);\n" if bad_last else "")


if __name__ == "__main__":
    sys.stdout.write(many_points(int(sys.argv[1]), "--bad-last" in sys.argv[2:]))
