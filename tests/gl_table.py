"""The gl_n Kirillov-Kostant table as presentation-file text.

    python tests/gl_table.py N

prints gl_N on the matrix units e_ij, labelled e11 .. eNN (1-based), with
[e_ij, e_kl] = delta_jk e_il - delta_li e_kj on each pair of units once.
The CI smokes write their gl_N inputs with it, and `test_classify` checks
that the table parses to the algebra `test_classify.gl` builds.
"""

import sys


def gl_table(n: int) -> str:
    e = lambda i, j: f"e{i}{j}"
    units = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    rows = []
    for a, (i, j) in enumerate(units):
        for k, l in units[a + 1 :]:
            rhs = (e(i, l) if j == k else "") + ("-" + e(k, j) if l == i else "")
            if rhs:
                rows.append(f"[{e(i, j)},{e(k, l)}] = {rhs};")
    return (f"vars {', '.join(e(i, j) for i, j in units)};\n"
            f"bracket table {{ {' '.join(rows)} }};\n")


if __name__ == "__main__":
    sys.stdout.write(gl_table(int(sys.argv[1])))
