#!/usr/bin/env python3
"""Compare two sets of benchmark results written with `run.py --out`.

    python3 perfbench/compare.py --base parent-*.json --new change-*.json

Prints, per workload and end-to-end metric, each side's median and
quartiles and the change of the medians as a share of the base median,
against the bound in BENCHMARK.json.  Refuses (exit 2) to compare results
whose kernel backend, workload mix or inputs differ: the same seed must
have produced the same input digest on both sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def comparable(base: list[dict], new: list[dict]) -> str | None:
    """Why the two sets cannot be compared, or None."""
    backends = {r["detail"]["provenance"]["backend"] for r in base + new}
    if len(backends) != 1:
        return f"kernel backends differ: {sorted(backends)}"
    digests: dict = {}
    for r in base + new:
        d = r["detail"]
        key = (d["workload"], d["seed"])
        if digests.setdefault(key, d["input_digest"]) != d["input_digest"]:
            return f"inputs differ for workload {key[0]} seed {key[1]}"
    if {r["detail"]["workload"] for r in base} != {r["detail"]["workload"] for r in new}:
        return "the two sets cover different workloads"
    return None


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)
    why = comparable(base, new)
    if why:
        print(f"refused: {why}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for workload in sorted({r["detail"]["workload"] for r in base}):
        b = [r["result"] for r in base if r["detail"]["workload"] == workload]
        n = [r["result"] for r in new if r["detail"]["workload"] == workload]
        print(f"{workload}: {len(b)} base runs, {len(n)} new runs")
        for name in b[0]["metrics"]:
            m = metrics.get(name, {"better": "lower"})
            bq = quartiles([r["metrics"][name]["value"] for r in b])
            nq = quartiles([r["metrics"][name]["value"] for r in n])
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            loss = change if m["better"] == "lower" else -change
            flag = ""
            if "bound" in m and loss > m["bound"]:
                flag, worse = "  WORSE than bound", worse + 1
            print(f"  {name:40s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  {change:+.3f}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
