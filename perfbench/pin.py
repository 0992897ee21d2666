"""Pin the reference outputs the benchmark checks against.

    python3 perfbench/pin.py                 # every workload
    python3 perfbench/pin.py sbj-n64         # only these; keeps the others

Writes perfbench/reference.json: every simulate job a run of the default
and the held-out seed can reach (and the smoke jobs of both), plus the DE
per-bit values on the whole p grid. Run it only at a commit whose outputs
are trusted; a change that keeps outcomes must leave this file as it is.
Takes several minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent)]

from perfbench import run  # noqa: E402  (sets the BLAS thread count first)

run.import_program()

from perfbench import workloads  # noqa: E402

SEEDS = (0, 1)       # the default seed and the held-out seed
PINNED_JOBS = {"sbj-n256": 10, "sbj-n64": 80, "scl-n256": 48}


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(workloads.WORKLOADS)
    refs = {"simulate": {}, "de": {}}
    if names != list(workloads.WORKLOADS):
        refs = workloads.load_references()
    refs.update(src_sha256=run.src_digest(), git_sha=run.git_sha(),
                seeds=list(SEEDS))
    for name in names:
        wl = workloads.WORKLOADS[name]
        refs["simulate"].pop(name, None)
        spec = workloads.setup(wl)
        if wl.kind == "de":
            table = refs["de"].setdefault(name, {})
            for p in workloads.DE_GRID:
                per_bit, bler = workloads.de.de_run(spec, wl.decoder, p)
                table[f"{p:.2f}"] = {"per_bit": [float(v) for v in per_bit],
                                     "bler": float(bler)}
                print(name, p, flush=True)
            continue
        for variant, jobs in ((wl, PINNED_JOBS[name]), (workloads.smoke(wl), 1)):
            table = refs["simulate"].setdefault(name, {}).setdefault(
                str(variant.trials), {})
            for seed in SEEDS:
                for j in range(jobs):
                    out = workloads.run_job(variant, spec, seed, j)
                    table[str(workloads.job_seed(seed, j))] = out
                    print(name, variant.trials, seed, j, flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
