"""Benchmark of fcpolar, end to end and layer by layer.

    python3 perfbench/run.py --workload sbj-n256 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from ./src. One
run is one process with one BLAS thread. It times repeated fixed-size jobs
of one workload for --seconds seconds, in reference seconds that cancel the
host's speed swings (calib.py) (--trace 0), or times one job without and
then with the layer tracer (--trace 1), checks every output, and prints one
JSON result object as its last line. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
MIN_SETUP_REPS = 5      # cold set-ups per run at least; setup_s is their median
MAX_SETUP_REPS = 41     # ... and at most, while SETUP_BUDGET_S is not used up
SETUP_BUDGET_S = 2.0
MIN_JOBS = 3            # timed jobs per run, whatever --seconds says


def import_program():
    """Import fcpolar from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import fcpolar
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fcpolar from {src}: {exc}")
    if not Path(fcpolar.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: fcpolar was imported from {fcpolar.__file__}, "
                 f"not from {src}")


def cold_setups(workloads, wl, min_reps: int, budget_s: float) -> list[tuple[float, float]]:
    """Time the set-up cold in forked children of this fresh process.

    At least min_reps children, and more while budget_s seconds of set-up
    are not used up (cheap set-ups are timed many times). Each child starts
    from the parent's state before any set-up, so every sample is cold
    however the program caches. The process has no other threads (one BLAS
    thread), so forking is safe. Returns (wall, reference) seconds each.
    """
    from perfbench import calib
    times = []
    while len(times) < min_reps or (sum(w for w, _ in times) < budget_s
                                    and len(times) < MAX_SETUP_REPS):
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(rfd)
                calib.kernel()      # page in the kernel's copy-on-write memory
                with calib.Sampler() as s:
                    workloads.setup(wl)
                os.write(wfd, f"{s.wall_s!r} {s.ref_s!r}".encode())
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(wfd)
        with os.fdopen(rfd) as fh:
            text = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not text:
            raise RuntimeError("set-up failed in a forked child")
        wall, ref = (float(t) for t in text.split())
        times.append((wall, ref))
    return times


def timed_setup(workloads, wl):
    t0 = time.perf_counter()
    spec = workloads.setup(wl)
    return spec, time.perf_counter() - t0


def run_one_job(workloads, wl, spec, seed, j):
    """(seconds, output or None if the job raised)."""
    t0 = time.perf_counter()
    try:
        out = workloads.run_job(wl, spec, seed, j)
    except Exception:
        traceback.print_exc()
        out = None
    return time.perf_counter() - t0, out


def sampled_job(workloads, wl, spec, seed, j):
    """(wall seconds, reference seconds, output or None if the job raised)."""
    from perfbench import calib
    out = None
    try:
        with calib.Sampler() as s:
            out = workloads.run_job(wl, spec, seed, j)
    except Exception:
        traceback.print_exc()
    return s.wall_s, s.ref_s, out


class Gate:
    """Counts work items attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.pinned = 0
        self.reasons: list[str] = []

    def job(self, workloads, wl, seed, j, out, refs):
        self.attempted += wl.items
        if out is None:
            self.fail(wl.items, f"job {j} raised")
            return
        err, pinned = workloads.check_job(wl, seed, j, out, refs)
        self.pinned += pinned
        if err:
            self.fail(wl.items, f"job {j}: {err}")

    def spot(self, workloads, wl, spec, seed):
        try:
            m, err = workloads.spot_check(wl, spec, seed)
        except Exception:
            traceback.print_exc()
            m, err = wl.spot_trials, "spot check raised"
        self.attempted += m
        if err:
            self.fail(m, err)

    def fail(self, items, reason):
        self.failed += items
        self.reasons.append(reason)


def measure(workloads, wl, spec, seed, seconds, min_jobs, gate, refs):
    """Run jobs 0, 1, ... until --seconds are used.

    Returns (wall, reference) seconds of each job."""
    times, outputs = [], []
    start = time.perf_counter()
    while True:
        wall, ref, out = sampled_job(workloads, wl, spec, seed, len(times))
        times.append((wall, ref))
        outputs.append(out)
        elapsed = time.perf_counter() - start
        # Stop where the next job would be expected to end past the budget.
        if len(times) >= min_jobs and elapsed + 0.5 * elapsed / len(times) >= seconds:
            break
    for j, out in enumerate(outputs):
        gate.job(workloads, wl, seed, j, out, refs)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(wl, args) -> dict:
    import numpy
    import scipy
    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "items_per_job": wl.items, "item": "point" if wl.kind == "de" else "trial",
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": _blas_name(numpy),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "load": "one process, one job at a time",
    }
    return info


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = ROOT / "src" / "fcpolar"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas_name(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_plain(workloads, wl, args, refs, gate):
    if args.smoke:
        min_reps, budget_s, min_jobs = 2, 0.0, 1
    else:
        min_reps, budget_s, min_jobs = MIN_SETUP_REPS, SETUP_BUDGET_S, MIN_JOBS
    setups = cold_setups(workloads, wl, min_reps, budget_s)
    spec = workloads.setup(wl)
    times = measure(workloads, wl, spec, args.seed, args.seconds, min_jobs,
                    gate, refs)
    gate.spot(workloads, wl, spec, args.seed)
    item = "points" if wl.kind == "de" else "trials"
    print(f"# jobs {len(times)} x {wl.items} {item}, wall seconds "
          f"{' '.join(f'{w:.3f}' for w, _ in times)}")
    print(f"# jobs, reference seconds {' '.join(f'{r:.3f}' for _, r in times)}")
    wall, ref = (sum(t[k] for t in times) for k in (0, 1))
    print(f"# {item}/s in wall seconds {wl.items * len(times) / wall:.6g}")
    print(f"# {len(setups)} set-ups, wall seconds "
          f"{' '.join(f'{w:.4f}' for w, _ in setups)}")
    print(f"# set-ups, reference seconds {' '.join(f'{r:.4f}' for _, r in setups)}")
    return {
        "items_per_s": metric(wl.items * len(times) / ref, "1/s"),
        "setup_s": metric(statistics.median(r for _, r in setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
    }


def run_traced(workloads, wl, args, refs, gate, info):
    from perfbench import layers
    from perfbench.tracer import Tracer

    spec, setup_s = timed_setup(workloads, wl)
    job_s, plain_out = run_one_job(workloads, wl, spec, args.seed, 0)
    gate.job(workloads, wl, args.seed, 0, plain_out, refs)

    tracer = Tracer()
    layers.install(tracer)
    try:
        t0 = time.perf_counter()
        spec2 = workloads.setup(wl)
        t1 = time.perf_counter()
        _, traced_out = run_one_job(workloads, wl, spec2, args.seed, 0)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.unwrap_all()
    gate.job(workloads, wl, args.seed, 0, traced_out, refs)
    if traced_out != plain_out:
        gate.fail(0, "traced job output differs from the untraced one")
    # Untraced jobs before and after the traced one, so drift cancels.
    job2_s, again_out = run_one_job(workloads, wl, spec, args.seed, 0)
    gate.job(workloads, wl, args.seed, 0, again_out, refs)
    job_s = (job_s + job2_s) / 2
    gate.spot(workloads, wl, spec, args.seed)

    values = layers.metrics(tracer, traced_s, setup_s + job_s)
    print(f"# traced set-up {t1 - t0:.4f} s + job {traced_s - (t1 - t0):.4f} s; "
          f"untraced set-up {setup_s:.4f} s + job {job_s:.4f} s (mean of two)")
    if tracer.missing:
        print(f"# absent (function gone): {' '.join(tracer.missing)}")
    OUT.mkdir(exist_ok=True)
    dump = {"provenance": info, "metrics": values, "traced_s": traced_s,
            **tracer.dump()}
    path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    path.write_text(json.dumps(dump) + "\n")
    print(f"# spans written to {path.relative_to(ROOT)}")
    return {name: metric(values[name], unit)
            for name, (unit, _, _) in layers.METRICS.items()}


def run_workload(args) -> int:
    import_program()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload]
    if args.smoke:
        wl = workloads.smoke(wl)
    refs = workloads.load_references()
    info = provenance(wl, args)
    print("# provenance " + json.dumps(info, sort_keys=True))
    gate = Gate()
    if args.trace:
        metrics = run_traced(workloads, wl, args, refs, gate, info)
    else:
        metrics = run_plain(workloads, wl, args, refs, gate)
    share = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"# outputs: {gate.attempted} {info['item']}s checked, "
          f"{gate.pinned} jobs against pinned references")
    for reason in gate.reasons:
        print(f"# FAILED {reason}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']!s:>24} {m['unit']}")
    print(f"{'failed_share':32s} {share:>24} fraction")
    print(json.dumps({"correct": gate.failed == 0 and gate.attempted > 0,
                      "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process; one table at the end."""
    import_program()
    from perfbench.workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {res.returncode}")
        result = json.loads(lines[-1])
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="sbj-n256, sbj-n64, scl-n256, de-n128 or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny jobs, for the self-tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
