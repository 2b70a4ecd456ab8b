"""Summarize the run records in bench/out/ into one JSON document.

    python3 bench/summarize.py > bench/out/summary.json

For each workload and trace mode it gives, per metric, the median and
quartiles over the recorded runs (one run per seed) and the spread
(Q3 - Q1) / median, plus the run count, the seeds and the failure counts.
The environment is taken from the first record.  bench/baseline.json lists
such summaries, one per set of runs made at the seed commit.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarize(records: list[dict]) -> dict:
    groups = {}
    for rec in records:
        groups.setdefault(f"{rec['workload']}/trace{rec['trace']}", []).append(rec)
    result = {"environment": records[0]["environment"] if records else None, "runs": {}}
    for key, recs in sorted(groups.items()):
        metrics = {}
        for name in recs[0]["computed"]:
            values = [r["computed"][name]["value"] for r in recs if name in r["computed"]]
            entry = {"median": statistics.median(values), "unit": recs[0]["computed"][name]["unit"]}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3,
                             spread=(q3 - q1) / entry["median"] if entry["median"] else None)
            metrics[name] = entry
        failures = {}
        for r in recs:
            for k, v in r["failures"].items():
                failures[k] = failures.get(k, 0) + v
        result["runs"][key] = {
            "runs": len(recs),
            "seeds": sorted(r["seed"] for r in recs),
            "seconds": recs[0]["seconds"],
            "ops": sum(len(r["ops"]) for r in recs),
            "failures": failures,
            "metrics": metrics,
        }
    return result


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-seed*-trace*.json"))]
    json.dump(summarize(records), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
