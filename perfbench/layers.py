"""Where the traced run wraps the program, and the per-layer metrics it reports.

Each target is a module-level function at the attribute its caller resolves
(batch calls `system_structure` through its own module globals, cli calls
`batch.decode_fc_batch` through the batch module, and so on). A metric whose
targets are all missing is reported as absent (None), never as zero.
"""

from __future__ import annotations

import importlib

import numpy as np

# (module, attribute, span name or None for count-only)
TARGETS = (
    ("fcpolar.codes", "build_nr_code", "codes.build"),
    ("fcpolar.constraints", "system_structure", "constraints.structure"),
    ("fcpolar.batch", "system_structure", "constraints.structure"),
    ("fcpolar.bitboard", "system_structure", "constraints.structure"),
    ("fcpolar.de", "system_structure", "constraints.structure"),
    ("fcpolar.constraints", "mat_mul", "gf2.mat_mul"),
    ("fcpolar.gf2", "mat_mul", "gf2.mat_mul"),
    ("fcpolar.batch", "sample_messages", "batch.channel"),
    ("fcpolar.batch", "encode_batch", "batch.channel"),
    ("fcpolar.batch", "sample_erasures", "batch.channel"),
    ("fcpolar.batch", "channel_planes", "batch.channel"),
    ("fcpolar.batch", "decode_fc_batch", "batch.decode"),
    ("fcpolar.batch", "_extend_prefix", "batch.prefix"),
    ("fcpolar.batch", "_check_batch", "batch.check"),
    ("fcpolar.batch", "_fccn_pass_batch", "batch.fccn"),
    ("fcpolar.batch", "_dfs_recover64", "batch.recover"),
    ("fcpolar.bitboard", "check_batch64", "bitboard.check"),
    ("fcpolar.bitboard", "_fccn_pass64", "bitboard.fccn"),
    ("fcpolar.batch", "decode_with_fc", "search.scalar"),
    ("fcpolar.cli", "decode_scl", "scl.decode"),
    ("fcpolar.cli", "run_point", "cli.run_point"),
    ("fcpolar.de", "de_run", "de.run"),
    ("fcpolar.de", "de_fccn_update", "de.fccn"),
    ("fcpolar.de", "psi_boxplus", None),
    ("fcpolar.de", "psi_boxdot", None),
)


def _structure(tr, args, kwargs, result):
    # The memoized structure comes back as the same object on a cache hit;
    # holding it keeps its id from being reused.
    tr.samples.setdefault("structures", {}).setdefault(id(result), result)


def _checks(prefix):
    def observe(tr, args, kwargs, result):
        passed = result[0]
        tr.counts[prefix + ".rows"] += len(passed)
        tr.counts["check.run"] += len(passed)
        tr.counts["check.passed"] += int(np.count_nonzero(passed))
    return observe


def _decode(tr, args, kwargs, result):
    tr.samples["visits"].append(result.visits)
    tr.samples["backjumps"].append(result.backjumps)


def _recover(tr, args, kwargs, result):
    tr.counts["search.dead_rows"] += len(result[0])


def _scalar(tr, args, kwargs, result):
    tr.counts["search.dead_rows"] += 1


def _scl(tr, args, kwargs, result):
    tr.samples["scl_visits"].append(result.visited_nodes)


OBSERVERS = {
    "constraints.structure": _structure,
    "batch.check": _checks("batch.check"),
    "bitboard.check": _checks("bitboard.check"),
    "batch.decode": _decode,
    "batch.recover": _recover,
    "search.scalar": _scalar,
    "scl.decode": _scl,
}


def install(tracer) -> None:
    for mod_name, attr, span in TARGETS:
        try:
            module = importlib.import_module(mod_name)
        except ImportError:
            tracer.missing.append(f"{mod_name}.{attr}")
            continue
        tracer.wrap(module, attr, span, OBSERVERS.get(span))


def _quantile(parts, q) -> float:
    if not parts:
        return 0.0
    values = np.concatenate([np.atleast_1d(p) for p in parts])
    return float(np.quantile(values, q, method="inverted_cdf"))


# name: (unit, better, spans it is read from). A metric is absent when
# none of its spans could be wrapped; the trace.* metrics always exist.
METRICS = {
    "codes.build_s": ("s", "lower", ("codes.build",)),
    "constraints.structure_s": ("s", "lower", ("constraints.structure",)),
    "constraints.structure_builds": ("count", "lower",
                                     ("constraints.structure",)),
    "gf2.mat_mul_s": ("s", "lower", ("gf2.mat_mul",)),
    "batch.channel_s": ("s", "lower", ("batch.channel",)),
    "batch.decode_self_s": ("s", "lower", ("batch.decode",)),
    "batch.prefix_s": ("s", "lower", ("batch.prefix",)),
    "batch.prefix_calls": ("count", "lower", ("batch.prefix",)),
    "batch.check_s": ("s", "lower", ("batch.check",)),
    "batch.check_calls": ("count", "lower", ("batch.check",)),
    "batch.check_rows": ("rows", "higher", ("batch.check",)),
    "batch.fccn_s": ("s", "lower", ("batch.fccn",)),
    "batch.fccn_calls": ("count", "lower", ("batch.fccn",)),
    "batch.recover_s": ("s", "lower", ("batch.recover",)),
    "bitboard.check_s": ("s", "lower", ("bitboard.check",)),
    "bitboard.check_calls": ("count", "lower", ("bitboard.check",)),
    "bitboard.check_rows": ("rows", "higher", ("bitboard.check",)),
    "bitboard.fccn_s": ("s", "lower", ("bitboard.fccn",)),
    "check.pass_ratio": ("ratio", "higher", ("batch.check", "bitboard.check")),
    "search.scalar_s": ("s", "lower", ("search.scalar",)),
    "search.scalar_calls": ("count", "lower", ("search.scalar",)),
    "search.dead_rows": ("count", "lower", ("batch.recover", "search.scalar")),
    "search.visits_p50": ("visits", "lower", ("batch.decode",)),
    "search.visits_p99": ("visits", "lower", ("batch.decode",)),
    "search.visits_max": ("visits", "lower", ("batch.decode",)),
    "search.backjumps_p99": ("count", "lower", ("batch.decode",)),
    "scl.decode_s": ("s", "lower", ("scl.decode",)),
    "scl.decode_calls": ("count", "lower", ("scl.decode",)),
    "scl.visits_p50": ("visits", "lower", ("scl.decode",)),
    "scl.visits_p99": ("visits", "lower", ("scl.decode",)),
    "de.run_s": ("s", "lower", ("de.run",)),
    "de.fccn_s": ("s", "lower", ("de.fccn",)),
    "de.fccn_calls": ("count", "lower", ("de.fccn",)),
    "de.psi_calls": ("count", "lower",
                     ("fcpolar.de.psi_boxplus", "fcpolar.de.psi_boxdot")),
    "cli.run_point_self_s": ("s", "lower", ("cli.run_point",)),
    "trace.untraced_s": ("s", "lower", ()),
    "trace.overhead_ratio": ("ratio", "lower", ()),
}


def metrics(tracer, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced region of traced_s seconds.

    untraced_s is the same work timed without the tracer. Self times of
    all spans plus trace.untraced_s add up to traced_s.
    """
    wrapped = set(tracer.wrapped)
    have = {span or f"{mod}.{attr}" for mod, attr, span in TARGETS
            if f"{mod}.{attr}" in wrapped}
    self_s = tracer.self_times()
    calls = tracer.span_calls()
    c = tracer.counts
    s = tracer.samples

    def mean_rows(span):
        n = calls.get(span, 0)
        return c[span + ".rows"] / n if n else 0.0

    values = {
        "codes.build_s": self_s.get("codes.build", 0.0),
        "constraints.structure_s": self_s.get("constraints.structure", 0.0),
        "constraints.structure_builds": len(s.get("structures", ())),
        "gf2.mat_mul_s": self_s.get("gf2.mat_mul", 0.0),
        "batch.channel_s": self_s.get("batch.channel", 0.0),
        "batch.decode_self_s": self_s.get("batch.decode", 0.0),
        "batch.prefix_s": self_s.get("batch.prefix", 0.0),
        "batch.prefix_calls": calls.get("batch.prefix", 0),
        "batch.check_s": self_s.get("batch.check", 0.0),
        "batch.check_calls": calls.get("batch.check", 0),
        "batch.check_rows": mean_rows("batch.check"),
        "batch.fccn_s": self_s.get("batch.fccn", 0.0),
        "batch.fccn_calls": calls.get("batch.fccn", 0),
        "batch.recover_s": self_s.get("batch.recover", 0.0),
        "bitboard.check_s": self_s.get("bitboard.check", 0.0),
        "bitboard.check_calls": calls.get("bitboard.check", 0),
        "bitboard.check_rows": mean_rows("bitboard.check"),
        "bitboard.fccn_s": self_s.get("bitboard.fccn", 0.0),
        "check.pass_ratio": (c["check.passed"] / c["check.run"]
                             if c["check.run"] else 0.0),
        "search.scalar_s": self_s.get("search.scalar", 0.0),
        "search.scalar_calls": calls.get("search.scalar", 0),
        "search.dead_rows": int(c["search.dead_rows"]),
        "search.visits_p50": _quantile(s["visits"], 0.5),
        "search.visits_p99": _quantile(s["visits"], 0.99),
        "search.visits_max": _quantile(s["visits"], 1.0),
        "search.backjumps_p99": _quantile(s["backjumps"], 0.99),
        "scl.decode_s": self_s.get("scl.decode", 0.0),
        "scl.decode_calls": calls.get("scl.decode", 0),
        "scl.visits_p50": _quantile(s["scl_visits"], 0.5),
        "scl.visits_p99": _quantile(s["scl_visits"], 0.99),
        "de.run_s": self_s.get("de.run", 0.0),
        "de.fccn_s": self_s.get("de.fccn", 0.0),
        "de.fccn_calls": calls.get("de.fccn", 0),
        "de.psi_calls": int(c["fcpolar.de.psi_boxplus.calls"]
                            + c["fcpolar.de.psi_boxdot.calls"]),
        "cli.run_point_self_s": self_s.get("cli.run_point", 0.0),
        "trace.untraced_s": traced_s - tracer.covered(),
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    for name, (_, _, needs) in METRICS.items():
        if needs and not have.intersection(needs):
            values[name] = None
    return values
