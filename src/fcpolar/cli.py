"""Monte-Carlo harness and command-line front door.

Subcommands: simulate (BLER/complexity curves), de (density evolution),
bounds (DT and MC reference curves), mlbound (simulation-based ML lower
bound), toy-compare (BI-AWGN MAP comparison on the worked example),
build-code, dump-fc, and dump-matrices. `python -m fcpolar` runs the same
command line. With --out, simulate and de also write a JSON sidecar,
<out>.json: the version, the seed, the code hash and the configuration,
and for simulate every row.

Every random quantity is keyed by (seed, substream, trial, position), so
a (config, seed) pair fully determines every trial regardless of
chunking, and rerunning a point reproduces the CSV byte for byte. Each
decoder takes a whole chunk of trials per call; SCL holds its lists on
(trial, path) rows, so its chunks are list_size times shorter. The
per-point stop rule finishes at min(trials, first trial reaching
max-errors block errors), evaluating trials in index order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, batch, de
from .codes import CodeSpec, build_example1, build_nr_code
from .constraints import future_constraints
from .gf2 import format_matrix, mat_mul
from .rng import STREAM_CHANNEL, keyed_array
from .scl import decode_scl

CSV_HEADER = "p,bler,stderr,avg_visits,avg_iters,trials,errors"

# The decoders run_point simulates, and simulate's --decoder choices.
DECODERS = ("sc", "scc", "bpscc", "bpscc-sbj", "scl")

# Most points one grid flag may expand to.
_GRID_MAX = 10_000


def run_point(spec: CodeSpec, decoder: str, p: float, trials: int, seed: int,
              i_max: int = 1, list_size: int = 32,
              max_errors: int | None = None) -> dict:
    """Simulate one channel point; returns the summary row plus metadata.

    Trials are evaluated in index order in chunks, one decoder call per
    chunk: batch.CHUNK trials, or batch.CHUNK // list_size for SCL, whose
    rows are (trial, path) pairs. Once the cumulative block-error count
    reaches max_errors the point is cut at exactly that trial, every
    per-trial count with it, so the result is identical to a sequential
    trial loop.
    Under max_errors the chunks start at 64 trials and double up to that
    size, so little is decoded past the cut; outcomes never depend on the
    chunking. avg_iters counts i_max for each check that stops at a fixed
    point with its leaf erased, so it grows with i_max without more sweeps.
    sc and scl run no hypothesis check, so avg_iters falls back to 1.0.
    """
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p} out of range")
    if decoder == "scl" and list_size < 1:
        raise ValueError("list size must be at least 1")
    a_cols = list(spec.A)
    parts: dict[str, list] = {k: [] for k in (
        "err", "dead", "visits", "backjumps", "iters", "checks")}
    # an SCL trial takes up to list_size rows of its chunk
    cap = max(1, batch.CHUNK // list_size) if decoder == "scl" else batch.CHUNK
    chunk = cap if max_errors is None else min(64, cap)
    done = 0
    while done < trials:
        ids = np.arange(done, min(done + chunk, trials))
        msg = batch.sample_messages(spec, seed, ids)
        u, x = batch.encode_batch(spec, msg)
        erased = batch.sample_erasures(spec, p, seed, ids)
        yp = batch.channel_planes(x, erased)
        if decoder == "sc":
            out = batch.decode_sc_batch(spec, yp, seed, ids)
        elif decoder == "scl":
            out = decode_scl(spec, yp, list_size, seed, ids)
        else:
            engine = "scc" if decoder == "scc" else "bp_scc"
            out = batch.decode_fc_batch(spec, yp, engine=engine, i_max=i_max,
                                        sbj=decoder == "bpscc-sbj")
        wrong = (out.u_hat[:, a_cols] != u[:, a_cols]).any(axis=1)
        for k, v in (("err", ~out.success | wrong), ("dead", ~out.success),
                     ("visits", out.visits), ("backjumps", out.backjumps),
                     ("iters", out.iters_sum), ("checks", out.checks)):
            parts[k].append(v)
        done = ids[-1] + 1
        chunk = min(2 * chunk, cap)
        if (max_errors is not None
                and sum(e.sum() for e in parts["err"]) >= max_errors):
            break

    col = {k: np.concatenate(v) for k, v in parts.items()}
    if max_errors is not None:
        reached = np.flatnonzero(np.cumsum(col["err"]) >= max_errors)
        if reached.size:
            col = {k: v[:reached[0] + 1] for k, v in col.items()}
    err, dead = col["err"], col["dead"]
    iters_total, checks_total = (int(col[k].sum())
                                 for k in ("iters", "checks"))
    ran = err.size
    errors = int(err.sum())
    bler = errors / ran
    return {
        "p": p,
        "bler": bler,
        "stderr": float(np.sqrt(bler * (1.0 - bler) / ran)),
        "avg_visits": float(col["visits"].mean()),
        "avg_iters": (iters_total / checks_total) if checks_total else 1.0,
        "trials": ran,
        "errors": errors,
        "dead_ends": int(dead.sum()),
        "coin_misses": int((err & ~dead).sum()),
        "avg_backjumps": float(col["backjumps"].mean()),
    }


def emit_results(rows: list[dict], out_path: str | None, meta: dict) -> None:
    """Render the pinned CSV and persist it (plus a JSON sidecar) if asked."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row['p']:.6g},{row['bler']:.8g},{row['stderr']:.6g},"
            f"{row['avg_visits']:.8g},{row['avg_iters']:.8g},"
            f"{row['trials']},{row['errors']}")
    _write("\n".join(lines) + "\n", out_path, {**meta, "points": rows})


def _write(text: str, out_path: str | None, sidecar: dict | None = None) -> None:
    """Write text to out_path, or to stdout without one; a sidecar dict
    goes to out_path + ".json". An unwritable path exits with a message."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
        if sidecar is not None:
            with open(out_path + ".json", "w") as fh:
                json.dump(sidecar, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        raise SystemExit(f"cannot write {out_path}: {exc}")


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError(f"bad grid {text!r}, want start:stop:step")
    values = [float(t) for t in parts]
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"grid {text!r} is not finite")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    if start > stop:
        raise argparse.ArgumentTypeError(
            f"empty grid {text!r}: start above stop")
    # the stop is kept within a tolerance of 1e-9 steps
    steps = (stop - start) / step + 1e-9
    if steps >= _GRID_MAX:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has over {_GRID_MAX} points")
    return [round(start + k * step, 12) for k in range(math.floor(steps) + 1)]


def _p_grid(text: str) -> list[float]:
    """Argument type of --p-grid: a grid of erasure probabilities in [0, 1]."""
    grid = _parse_grid(text)
    for p in grid:
        if not 0.0 <= p <= 1.0:
            raise argparse.ArgumentTypeError(
                f"erasure probability {p:g} out of range [0, 1]")
    return grid


def _esn0_grid(text: str) -> list[float]:
    """Argument type of --esn0-grid: a grid of Es/N0 values in dB, each
    with a finite positive noise variance sigma2 under which toy-compare's
    log-likelihoods stay finite. A received value is at most d = 2 +
    z sigma away from either symbol, z = |ndtri(2^-65)| the largest finite
    noise magnitude of _gaussian_noise, so d^2 and a score, N d^2 /
    (2 sigma2), must be finite: -3066 <= Es/N0 <= 3067 dB on the
    integers."""
    from scipy.special import ndtri
    from .oracle import awgn_sigma2
    z, N = -float(ndtri(2.0 ** -65)), build_example1().N
    grid = _parse_grid(text)
    for esn0 in grid:
        try:
            sigma2 = awgn_sigma2(esn0)
            d2 = (2.0 + z * math.sqrt(sigma2)) ** 2
            ok = sigma2 > 0.0 and math.isfinite(d2 / (2.0 * sigma2) * N)
        except (OverflowError, ZeroDivisionError):
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(
                f"Es/N0 {esn0:g} dB has no finite positive noise variance "
                "with finite log-likelihoods")
    return grid


def _count(text: str) -> int:
    """Argument type of the count and code-size flags: an integer of at
    least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _read_config(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SystemExit(f"bad config line in {path}: {raw.rstrip()}")
                key, val = (t.strip() for t in line.split("=", 1))
                values[key.replace("-", "_")] = val
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"cannot read config {path}: {exc}")
    return values


def _code_size(args) -> tuple[int, int]:
    if args.n is None or args.k is None:
        raise SystemExit("--n and --k are required for this command")
    return 1 << args.n, args.k


def _build_spec(args) -> CodeSpec:
    N, K = _code_size(args)
    return build_nr_code(N, K, crc=args.crc)


def _add_code_args(sub):
    sub.add_argument("--n", type=_count, choices=range(1, 11),
                     help="log2 of the block length N (N <= 1024)")
    sub.add_argument("--k", type=_count, help="number of information bits")
    sub.add_argument("--crc", choices=("nr11", "none"), default="nr11")


def _meta(spec: CodeSpec, args) -> dict:
    return {
        "version": __version__,
        "seed": args.seed,
        "code_hash": spec.code_hash(),
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k != "func" and v is not None},
    }


def _cmd_simulate(args) -> int:
    spec = _build_spec(args)
    rows = []
    for p in args.p_grid:
        rows.append(run_point(spec, args.decoder, p, args.trials, args.seed,
                              i_max=args.imax, list_size=args.list_size,
                              max_errors=args.max_errors))
    emit_results(rows, args.out, _meta(spec, args))
    return 0


def _cmd_de(args) -> int:
    spec = _build_spec(args)
    lines = ["p,P_B," + ",".join(f"pb_{i}" for i in spec.A)]
    for p in args.p_grid:
        per_bit, bler = de.de_run(spec, args.decoder, p)
        lines.append(f"{p:.6g},{bler:.8g}," +
                     ",".join(f"{v:.8g}" for v in per_bit))
    _write("\n".join(lines) + "\n", args.out, _meta(spec, args))
    return 0


def _cmd_bounds(args) -> int:
    from . import bounds
    N, K = _code_size(args)
    if K > N:
        raise ValueError(f"K = {K} exceeds N = {N}")
    lines = ["p,dt,mc"]
    for p in args.p_grid:
        lines.append(f"{p:.6g},{bounds.dt_bound(N, K, p):.8g},"
                     f"{bounds.mc_bound(N, K, p):.8g}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_mlbound(args) -> int:
    from . import bounds
    spec = _build_spec(args)
    lines = ["p,ml_bound,trials"]
    for p in args.p_grid:
        val = bounds.ml_bound_sim(spec, p, args.trials, args.seed)
        lines.append(f"{p:.6g},{val:.8g},{args.trials}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_toy_compare(args) -> int:
    """The three oracle decoders, batch.CHUNK trials per call."""
    from . import oracle
    spec = build_example1()
    lines = ["esn0_db,bler_sc,bler_bitwise,bler_blockwise,trials"]
    for esn0 in args.esn0_grid:
        sigma2 = oracle.awgn_sigma2(esn0)
        errors = np.zeros(3, dtype=np.int64)
        for start in range(0, args.trials, batch.CHUNK):
            ids = np.arange(start, min(start + batch.CHUNK, args.trials))
            u, x = batch.encode_batch(
                spec, batch.sample_messages(spec, args.seed, ids))
            noise = _gaussian_noise(args.seed, ids, spec.N, esn0)
            ll = oracle.awgn_loglik(
                1.0 - 2.0 * x.astype(float) + noise * np.sqrt(sigma2), sigma2)
            for d, decode in enumerate((oracle.sc_marginal_decode_batch,
                                        oracle.bitwise_map_sc_decode_batch,
                                        oracle.blockwise_map_decode_batch)):
                wrong = (decode(spec, ll) != u).any(axis=1)
                errors[d] += np.count_nonzero(wrong)
        lines.append(f"{esn0:.6g}," + ",".join(
            f"{b:.8g}" for b in errors / args.trials) + f",{args.trials}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _gaussian_noise(seed: int, ids: np.ndarray, N: int, tag: float) -> np.ndarray:
    """Standard normal draws keyed per (trial, position, SNR tag); the
    uniform is clamped below 1.0, so every draw is finite."""
    from scipy.special import ndtri
    tag_key = np.uint64(int(round(1000 * tag)) & 0xFFFFFFFF)
    h = keyed_array(seed, STREAM_CHANNEL, np.asarray(ids, dtype=np.uint64)[:, None],
                    np.arange(N, dtype=np.uint64)[None, :], tag_key)
    return ndtri(np.minimum((h.astype(np.float64) + 0.5) / 2.0 ** 64,
                            np.nextafter(1.0, 0.0)))


def _cmd_build_code(args) -> int:
    spec = _build_spec(args)
    out = [
        f"N = {spec.N}",
        f"K = {spec.K}",
        f"outer = {spec.outer or 'none'}",
        f"code_hash = {spec.code_hash()}",
        f"A = {' '.join(map(str, spec.A))}",
        f"P = {' '.join(map(str, spec.P))}",
        f"F = {' '.join(map(str, spec.F))}",
    ]
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_dump_fc(args) -> int:
    spec = build_example1() if args.n is None else _build_spec(args)
    targets = [args.i] if args.i is not None else list(spec.A)
    for i in targets:
        fc = future_constraints(spec, i)
        sys.stdout.write(f"i={i} L={list(fc.L)}\n")
        for t, cols in enumerate(fc.per_stage):
            if cols:
                sys.stdout.write(f"  t={t}: {list(cols)}\n")
    return 0


def _cmd_dump_matrices(args) -> int:
    spec = build_example1() if args.n is None else _build_spec(args)
    from .constraints import global_Q
    sections = [("T", spec.T), ("H", spec.H), ("G", spec.generator),
                ("TG", mat_mul(spec.T, spec.generator)),
                ("Q", global_Q(spec))]
    chunks = [f"# {name}\n{format_matrix(m)}" for name, m in sections]
    _write("\n".join(chunks), args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fcpolar",
        description="future-constraint-aided polar decoding workbench")
    parser.add_argument("--config", help="key=value file of default flags")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte-Carlo BLER/complexity curves")
    _add_code_args(sim)
    sim.add_argument("--decoder", default="bpscc-sbj",
                     choices=DECODERS)
    sim.add_argument("--imax", type=_count, default=1, help=(
        "avg_iters counts i_max for each check that stops at a fixed point "
        "with its leaf erased, so it grows with --imax without more sweeps"))
    sim.add_argument("--list-size", type=_count, default=32)
    sim.add_argument("--p-grid", type=_p_grid, default=[0.5])
    sim.add_argument("--trials", type=_count, default=10000)
    sim.add_argument("--max-errors", type=_count)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out")
    sim.set_defaults(func=_cmd_simulate)

    dep = sub.add_parser("de", help="density evolution curves")
    _add_code_args(dep)
    dep.add_argument("--decoder", default="bpscc1",
                     choices=de.DECODERS)
    dep.add_argument("--p-grid", type=_p_grid, default=[0.5])
    dep.add_argument("--out")
    dep.set_defaults(func=_cmd_de, seed=0)

    bnd = sub.add_parser("bounds", help="DT and MC reference curves")
    _add_code_args(bnd)
    bnd.add_argument("--p-grid", type=_p_grid, default=[0.5])
    bnd.add_argument("--out")
    bnd.set_defaults(func=_cmd_bounds)

    mlb = sub.add_parser("mlbound", help="simulation-based ML lower bound")
    _add_code_args(mlb)
    mlb.add_argument("--p-grid", type=_p_grid, default=[0.5])
    mlb.add_argument("--trials", type=_count, default=10000)
    mlb.add_argument("--seed", type=int, default=0)
    mlb.add_argument("--out")
    mlb.set_defaults(func=_cmd_mlbound)

    toy = sub.add_parser("toy-compare",
                         help="BI-AWGN MAP comparison on the worked example")
    toy.add_argument("--esn0-grid", type=_esn0_grid, default=[-2.0, 0.0, 2.0, 4.0])
    toy.add_argument("--trials", type=_count, default=10000)
    toy.add_argument("--seed", type=int, default=0)
    toy.add_argument("--out")
    toy.set_defaults(func=_cmd_toy_compare)

    bld = sub.add_parser("build-code", help="print code construction summary")
    _add_code_args(bld)
    bld.set_defaults(func=_cmd_build_code)

    dfc = sub.add_parser("dump-fc", help="future-constraint index sets per bit")
    _add_code_args(dfc)
    dfc.add_argument("--i", type=int, help="restrict to one information bit")
    dfc.set_defaults(func=_cmd_dump_fc)

    dmx = sub.add_parser("dump-matrices", help="emit T, H, G, TG, Q as text")
    _add_code_args(dmx)
    dmx.add_argument("--out")
    dmx.set_defaults(func=_cmd_dump_matrices)

    args = parser.parse_args(argv)
    if args.config:
        cmd = sub.choices[args.command]
        cmd.set_defaults(**_coerce_config(parser, cmd, args.command,
                                          _read_config(args.config)))
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _coerce_config(parser, cmd, command: str, values: dict) -> dict:
    """Config values converted by the subcommand's own flags; a key that is
    not one of its flags, or a value its flag rejects, is a usage error."""
    flags = {a.dest: a for a in cmd._actions
             if a.option_strings and a.dest != "help"}
    coerced = {}
    for key, val in values.items():
        action = flags.get(key)
        try:
            if action is None:
                raise ValueError(f"not a flag of {command}")
            value = action.type(val) if action.type else val
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"invalid choice {value!r} (choose from "
                                 f"{', '.join(map(str, action.choices))})")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"config {key}: {exc}")
        coerced[key] = value
    return coerced

if __name__ == "__main__":
    sys.exit(main())
