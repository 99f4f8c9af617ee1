"""Record the benchmark's inputs and golden reports from the current program.

    python3 perfbench/make_golden.py

Writes inputs/<entry>.pa (the `catalog file` output of every catalog entry)
and golden.json: for every scan and modules request its exit code, the SHA-256
of its exit code, stdout and stderr, and its input properties; for the catalog
every fact's report line and the SHA-256 of the `catalog run-all` machine
report without its seed record.  Re-record only when a change to the reports
is intended, and say so where the change is described.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys

import workloads as wl


def write_inputs(main):
    from poisson_atlas.catalog import catalog_names

    wl.INPUTS.mkdir(exist_ok=True)
    for name in catalog_names():
        _, rc, out, err = wl.call_cli(main, ["catalog", "file", name])
        if rc != 0:
            raise SystemExit(f"catalog file {name} failed: {err}")
        (wl.INPUTS / f"{name}.pa").write_text(out, encoding="utf-8")


def record_cli(main, requests):
    records, props = {}, {}
    for req in requests:
        _, rc, out, err = wl.call_cli(main, req.argv)
        records[req.id] = {"rc": rc, "sha256": wl.digest(rc, out, err)}
        props[req.id] = dict(req.props)
        if rc != 0:
            props[req.id]["known_defect"] = err.strip()
        count = re.search(r"^ideal\.count = (\d+)$", out, re.M)
        if count:
            props[req.id]["hits"] = int(count.group(1))
        if req.argv[0] == "module":
            props[req.id]["domain"] = "Q(sqrt(-1))" if "sqrt(-1)" in out else "Q"
        print(f"{req.id}: rc={rc}", file=sys.stderr)
    return records, props


def module_domains(props):
    """A verify request has the scalar domain of the module request it shares."""
    for rid, p in props.items():
        if rid.startswith("verify "):
            p["domain"] = props["module " + rid[len("verify "):]]["domain"]


def record_catalog():
    from poisson_atlas.catalog import RunConfig, catalog_names, get_entry, run_entry

    config = RunConfig()
    names = catalog_names()
    reports = {name: run_entry(get_entry(name), config) for name in names}
    facts, props = {}, {}
    for name in names:
        entry = get_entry(name)
        nvars = len(entry.presentation.varset) if entry.presentation is not None else None
        for result in reports[name].results:
            fact = f"{name}.{result.key}"
            facts[fact] = wl.fact_line(name, result)
            props[fact] = {"entry": name, "nvars": nvars}
    text = wl.catalog_report(names, reports, config)
    return {
        "facts": facts,
        "report_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "props": props,
    }


def main():
    sys.path.insert(0, str(wl.ROOT / "src"))
    os.chdir(wl.ROOT)
    from poisson_atlas import cli

    write_inputs(cli.main)
    golden = {"catalog": record_catalog()}
    for workload in ("scan", "modules"):
        records, props = record_cli(cli.main, wl.requests_for(workload))
        if workload == "modules":
            module_domains(props)
        golden[workload] = {"requests": records, "props": props}
    with open(wl.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
