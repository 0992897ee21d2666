"""The benchmark's workloads: fixed-size closed jobs and their correctness gate.

Every job is one call of a public entry point with a fixed amount of work:
`fcpolar.cli.run_point` with a fixed trial count and no error stop rule, or
`fcpolar.de.de_run` over a fixed number of p points. Job j of a run with
seed s draws its inputs from job_seed(s, j) (simulate) or de_points(s, j)
(density evolution), so a run repeats different but reproducible inputs.

Program functions are always looked up as module attributes at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from fcpolar import batch, cli, codes, constraints, de, decoders, rng, search
from fcpolar.symbols import ERASURE

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The p points a de-n128 job may draw; every one has pinned per-bit values.
DE_GRID = tuple(round(0.30 + 0.01 * k, 2) for k in range(11))

SIM_FIELDS = ("p", "bler", "stderr", "avg_visits", "avg_iters", "trials",
              "errors", "dead_ends", "coin_misses", "avg_backjumps")


@dataclass(frozen=True)
class Workload:
    name: str
    N: int
    K: int
    decoder: str
    p: float | None = None      # channel point of a simulate job
    trials: int = 0             # trials per simulate job
    points: int = 0             # p points per de job
    list_size: int = 8
    structures: bool = True     # set-up builds the instant-system structures
    spot_trials: int = 0        # trials re-decoded by the scalar reference

    @property
    def kind(self) -> str:
        return "de" if self.points else "simulate"

    @property
    def items(self) -> int:
        """Work items in one job: trials, or DE p points."""
        return self.points or self.trials


# Why each workload is here: see BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("sbj-n256", N=256, K=128, decoder="bpscc-sbj", p=0.22, trials=64,
             spot_trials=2),
    # A job with a dead row takes its time from the deepest search (the
    # lockstep rounds), which is heavy-tailed at any p: at p=0.18 the
    # 256-trial jobs of one process ran at 48 to 109 trials/s. At p=0.10
    # about one 128-trial job in eight has a dead row, so a run holds
    # dozens of jobs and the search's share of it repeats across seeds.
    Workload("sbj-n64", N=64, K=32, decoder="bpscc-sbj", p=0.10, trials=128,
             spot_trials=4),
    Workload("scl-n256", N=256, K=128, decoder="scl", p=0.30, trials=24,
             structures=False),
    Workload("de-n128", N=128, K=64, decoder="bpscc1", points=1),
)}

# Tiny variants for the self-tests; their outputs are pinned as well.
SMOKE = {
    "sbj-n256": {"trials": 2, "spot_trials": 1},
    "sbj-n64": {"trials": 4, "spot_trials": 2},
    "scl-n256": {"trials": 2},
    "de-n128": {"points": 1},
}


def smoke(wl: Workload) -> Workload:
    return replace(wl, **SMOKE[wl.name])


def job_seed(seed: int, j: int) -> int:
    return seed * 1000 + j


def de_points(seed: int, j: int, count: int) -> list[float]:
    picks = random.Random(job_seed(seed, j)).sample(range(len(DE_GRID)), count)
    return [DE_GRID[k] for k in sorted(picks)]


def setup(wl: Workload):
    """Code construction, plus every structure the job visits."""
    spec = codes.build_nr_code(wl.N, wl.K)
    if wl.structures:
        for i in spec.A:
            ell = decoders.processing_index(spec, i)
            for t in range(1, spec.n + 1):
                constraints.system_structure(spec, ell, t)
    return spec


def run_job(wl: Workload, spec, seed: int, j: int):
    """One closed job; returns its output in reference form."""
    if wl.kind == "de":
        out = []
        for p in de_points(seed, j, wl.points):
            per_bit, bler = de.de_run(spec, wl.decoder, p)
            out.append({"p": p, "per_bit": [float(v) for v in per_bit],
                        "bler": float(bler)})
        return out
    row = cli.run_point(spec, wl.decoder, wl.p, wl.trials, job_seed(seed, j),
                        i_max=1, list_size=wl.list_size)
    return {k: row[k] for k in SIM_FIELDS}


def load_references(path: Path = REFERENCE_PATH) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def _close_de(a, b) -> bool:
    # DE sums floats; a reordered sum may move the last digits.
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)


def _sim_invariants(wl: Workload, row: dict, trials: int) -> str | None:
    if row["trials"] != trials:
        return f"ran {row['trials']} trials, asked for {trials}"
    if not 0 <= row["errors"] <= trials:
        return f"error count {row['errors']} out of range"
    if row["errors"] != row["dead_ends"] + row["coin_misses"]:
        return "errors != dead_ends + coin_misses"
    if not _close(row["bler"], row["errors"] / trials):
        return "bler != errors / trials"
    if not all(math.isfinite(row[k]) for k in SIM_FIELDS):
        return "non-finite field"
    return None


def check_job(wl: Workload, seed: int, j: int, out, refs: dict) -> tuple[str | None, bool]:
    """Compare one job's output with the pinned reference.

    Returns (error message or None, whether a pinned reference existed).
    Outputs without a reference still pass the invariant checks.
    """
    if wl.kind == "de":
        table = refs.get("de", {}).get(wl.name, {})
        for point in out:
            ref = table.get(f"{point['p']:.2f}")
            if ref is None:
                return f"no pinned DE values for p={point['p']}", False
            if len(ref["per_bit"]) != len(point["per_bit"]):
                return f"p={point['p']}: per-bit length differs", True
            if not all(_close_de(a, b) for a, b in zip(point["per_bit"], ref["per_bit"])):
                return f"p={point['p']}: per-bit values differ from reference", True
            if not _close_de(point["bler"], ref["bler"]):
                return f"p={point['p']}: P_B differs from reference", True
        return None, True
    bad = _sim_invariants(wl, out, wl.trials)
    if bad:
        return bad, False
    ref = (refs.get("simulate", {}).get(wl.name, {})
           .get(str(wl.trials), {}).get(str(job_seed(seed, j))))
    if ref is None:
        return None, False
    for k in SIM_FIELDS:
        same = out[k] == ref[k] if isinstance(ref[k], int) else _close(out[k], ref[k])
        if not same:
            return f"{k}={out[k]!r}, reference {ref[k]!r}", True
    return None, True


def scalar_decode(wl: Workload, spec, seed: int, t: int):
    """Trial t from scratch: scalar RNG, scalar encoder, scalar stack search.

    Returns (input word u, DecodeOutcome)."""
    msg = np.array([rng.keyed_bit(seed, rng.STREAM_MESSAGE, t, k)
                    for k in range(spec.K)], dtype=np.uint8)
    x = codes.encode(spec, msg)
    y = [ERASURE if rng.keyed_uniform(seed, rng.STREAM_CHANNEL, t, pos) < wl.p
         else int(x[pos]) for pos in range(spec.N)]
    res = search.decode_with_fc(spec, y, engine="bp_scc", i_max=1, sbj=True,
                                seed=seed, trial=t)
    return codes.input_word(spec, msg), res


def spot_check(wl: Workload, spec, seed: int) -> tuple[int, str | None]:
    """Job 0 through the batch engine, then its hardest trials (most node
    visits) again one by one through the scalar reference; returns (trials
    checked, error message or None). Hard trials are where the check
    engines and the search differ if they differ at all."""
    m = wl.spot_trials
    if not m:
        return 0, None
    s = job_seed(seed, 0)
    ids = np.arange(wl.trials)
    u, x = batch.encode_batch(spec, batch.sample_messages(spec, s, ids))
    yp = batch.channel_planes(x, batch.sample_erasures(spec, wl.p, s, ids))
    out = batch.decode_fc_batch(spec, yp, engine="bp_scc", i_max=1, sbj=True,
                                seed=s, trials=ids)
    a_cols = list(spec.A)
    for t in np.argsort(-out.visits, kind="stable")[:m]:
        u_ref, res = scalar_decode(wl, spec, s, int(t))
        if not (u[t] == u_ref).all():
            return m, f"spot check trial {t}: batch and scalar inputs differ"
        got = (bool(out.success[t]), int(out.visits[t]), int(out.backjumps[t]))
        want = (res.status == "success", res.visited_nodes, res.backjumps)
        if got != want:
            return m, (f"spot check trial {t}: batch (success, visits, "
                       f"backjumps) {got}, scalar {want}")
        if want[0] and (out.u_hat[t, a_cols] != res.u_hat[a_cols]).any():
            return m, f"spot check trial {t}: decoded words differ"
    return m, None
