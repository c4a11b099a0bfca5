"""Summarise the result files in ``perfbench/out`` into one BENCH file.

Usage: ``python3 perfbench/summarize.py perfbench/BENCH_<label>.json``

For each workload it keeps every untraced run's end-to-end metrics with their
median and spread (IQR / median, as ``statistics.quantiles(n=4)`` gives the
quartiles), and every traced run's per-layer metrics and self-time shares.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarise(results: list[dict]) -> dict:
    workloads: dict = {}
    for r in results:
        w = workloads.setdefault(r["workload"], {"runs": [], "traced": []})
        if r["trace"]:
            w["traced"].append({key: r[key] for key in
                                ("seed", "attempted", "failed", "absent", "module_share")}
                               | {"metrics": {k: m["value"] for k, m in r["metrics"].items()}})
        else:
            w["runs"].append({"seed": r["seed"], "attempted": r["attempted"],
                              "failed": r["failed"], "raw": r["raw"],
                              "metrics": {k: m["value"] for k, m in r["metrics"].items()}})
    for w in workloads.values():
        spread = {}
        for name in (w["runs"][0]["metrics"] if w["runs"] else ()):
            values = [run["metrics"][name] for run in w["runs"]]
            median = statistics.median(values)
            entry = {"median": median, "n": len(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["iqr_over_median"] = (q3 - q1) / median
            spread[name] = entry
        w["end_to_end"] = spread
    first = results[0]
    return {"environment": {k: v for k, v in first["environment"].items()
                            if not k.startswith("loadavg")},
            "units": {k: m["unit"] for r in results for k, m in r["metrics"].items()},
            "workloads": workloads}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    results = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-trace[01].json"))]
    results = [r for r in results if r["size"] == "full"]
    if not results:
        print(f"no results in {OUT}", file=sys.stderr)
        return 1
    Path(argv[0]).write_text(json.dumps(summarise(results), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
