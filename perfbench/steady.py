"""Repeat the benchmark over many seeds and report how steady each metric is.

    python3 perfbench/steady.py --seeds 100-109
    python3 perfbench/steady.py --workloads sbj-n64 --seeds 11-15

Runs run.py once per (workload, seed), one at a time, each in a fresh
process with the run length from BENCHMARK.json. For every end-to-end metric
it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, and names each metric that does not repeat
within a tenth or within a third of its bound. Raw results go to
perfbench/out/steady-<first seed>-<last seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for name in args.workloads.split(","):
        for seed in seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if res.returncode != 0:
                sys.stderr.write(res.stderr)
                raise SystemExit(f"{name} seed {seed} exited {res.returncode}")
            result = json.loads(res.stdout.strip().splitlines()[-1])
            runs.append({"workload": name, "seed": seed, "wall_s": wall, **result,
                         "notes": [ln for ln in res.stdout.splitlines()
                                   if ln.startswith("# ")]})
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {vals}", flush=True)

    print()
    print(f"{'workload':10s} {'metric':12s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    flagged = []
    for name in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == name]
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in mine]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            note = ""
            if spread > 0.1:
                note += " not within a tenth"
            if spread > bound / 3:
                note += " above bound/3"
            if note:
                flagged.append(f"{name} {metric}:{note}")
            print(f"{name:10s} {metric:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound:6.2f}{note}")
        walls = [r["wall_s"] for r in mine]
        print(f"{name:10s} wall s per run: median {statistics.median(walls):.1f} "
              f"max {max(walls):.1f}; all correct: {all(r['correct'] for r in mine)}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{seeds[0]}-{seeds[-1]}.json"
    path.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"\nflagged: {flagged or 'none'}; raw results in {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
