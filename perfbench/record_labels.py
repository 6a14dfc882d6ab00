#!/usr/bin/env python3
"""Record the golden verdicts of every pooled instance into labels.json.

    python3 perfbench/record_labels.py [--jobs 2]

Run this only at a commit whose verdicts are trusted: the benchmark gate
treats the recorded verdicts as the truth for all later commits.  Each entry
stores the first 16 hex digits of the instance digest, so a changed
generator is caught instead of being checked against stale labels.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import run


def label(job):
    fam, n, key = job
    from polyattain.attainability import decide
    from polyattain.polygon import polygon

    P, Pp = run.inst.make(fam, n, key)
    verdict = decide(polygon(P), polygon(Pp))
    return f"{fam}/{n}/{key}", [run.inst.digest([(P, Pp)])[:16], verdict.status]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    jobs = sorted(set(run.label_pools()), key=lambda j: (j[1], j[0], j[2]))
    with ProcessPoolExecutor(args.jobs, mp_context=get_context("spawn"),
                             initializer=sys.path.insert, initargs=(0, str(run.SRC))) as ex:
        labels = dict(ex.map(label, jobs))
    with open(run.HERE / "labels.json", "w") as f:
        json.dump(labels, f, indent=0, sort_keys=True)
        f.write("\n")
    counts: dict = {}
    for (fam, n, _), (_, status) in zip(jobs, (labels[f"{f}/{n}/{k}"] for f, n, k in jobs)):
        counts.setdefault(f"{fam}/{n}", {}).setdefault(status, 0)
        counts[f"{fam}/{n}"][status] += 1
    for k, v in sorted(counts.items()):
        print(k, v)
    return 0


if __name__ == "__main__":
    sys.exit(main())
