#!/usr/bin/env python3
"""Print every end-to-end metric of every workload, one row per workload.

From the root of a checkout:

    python3 bench/report.py [--seed 1] [--seconds 25]

Each workload runs through run.py with tracing off, in a process of its
own, so peak RSS is per workload.  A cell reads "value unit (n=samples)";
fail_frac is oracle checks failed over checks attempted.
"""

import argparse
import json
import subprocess
import sys

from run import ROOT, record_path


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    header = None
    rows = []
    for w in spec["workloads"]:
        subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        rec = json.loads(record_path(w["name"], args.seed, 0).read_text())
        header = header or ["workload", *rec["metrics"], "fail_frac"]
        cells = [f"{m['value']:.4g} {m['unit']} (n={m['samples']})" for m in rec["metrics"].values()]
        rows.append([w["name"], *cells, f"{rec['fail_frac']:.3g} (n={rec['attempted']})"])
    rows.insert(0, header)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(wd) for c, wd in zip(r, widths)))


if __name__ == "__main__":
    main()
