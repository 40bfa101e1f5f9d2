"""Regenerate reference.json: the canonical-report digest and verdict of
every knot the family and census workloads certify.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the canonical reports (which
also raises the report's schema_version), and say so in the change.
"""

from __future__ import annotations

import json

import gate
import run
import workloads


def main() -> None:
    cli = run.import_cli()
    run.OUT.mkdir(parents=True, exist_ok=True)
    path = run.OUT / "reference-report.json"
    reference = {}
    for pq in (*workloads.FAMILY, *workloads.census()):
        cli.main(run.op_argv("certify", pq, path))
        report = json.loads(path.read_text(encoding="utf-8"))
        reference[pq] = {
            "sha256": gate.report_digest(report),
            "verdict": report["certificate"]["verdict"],
        }
    gate.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
