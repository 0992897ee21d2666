"""Self-tests of the benchmark: tracer arithmetic, clean unwrapping, and a
tiny smoke run of every workload whose outputs must all pass the gate."""

from __future__ import annotations

import importlib
import json
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calib, layers, run  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_span_minus_children():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and a [5, 9].
    tr = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    outer = tr.open("outer")
    a = tr.open("a")
    b = tr.open("b")
    tr.close(b)
    tr.close(a)
    a2 = tr.open("a")
    tr.close(a2)
    tr.close(outer)
    assert tr.self_times() == {"outer": 3, "a": 6, "b": 1}
    assert tr.span_calls() == {"outer": 1, "a": 2, "b": 1}
    assert tr.covered() == 10
    assert sum(tr.self_times().values()) == tr.covered()
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 0]


def test_spans_close_in_order():
    tr = Tracer(clock=FakeClock(range(10)))
    first = tr.open("first")
    tr.open("second")
    with pytest.raises(RuntimeError):
        tr.close(first)


def test_sampler_scales_net_time_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    # probe [0, 1], region from 2, an alarm's probe [5, 8], region ends at
    # 12, probe [13, 14]: wall 10 s, 3 s of it probing, mean probe 5/3 s.
    sampler = calib.Sampler(period_s=100.0, probe=lambda: None,
                            clock=FakeClock([0, 1, 2, 5, 8, 12, 13, 14]))
    with pytest.raises(ZeroDivisionError):
        with sampler:
            assert signal.getsignal(signal.SIGALRM) != before
            sampler._on_alarm(signal.SIGALRM, None)
            1 / 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.samples == [1, 3, 1]
    assert (sampler.wall_s, sampler.net_s) == (10, 7)
    assert sampler.ref_s == pytest.approx(7 * calib.NOMINAL_S / (5 / 3))


def _toy_module():
    mod = types.ModuleType("toy")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    return mod


def test_wrappers_record_and_are_removed():
    mod = _toy_module()
    originals = (mod.inner, mod.outer)
    seen = []
    tr = Tracer()
    assert tr.wrap(mod, "outer", "toy.outer")
    assert tr.wrap(mod, "inner", "toy.inner",
                   observe=lambda t, args, kwargs, result: seen.append(result))
    assert tr.wrap(mod, "inner", None) is True  # count-only on top
    assert not tr.wrap(mod, "gone", "toy.gone")
    try:
        assert mod.outer(1) == 4
    finally:
        tr.unwrap_all()
    assert (mod.inner, mod.outer) == originals
    assert seen == [2]
    assert tr.counts["toy.inner.calls"] == 1
    assert [(name, parent) for name, _, _, parent in tr.spans] == [
        ("toy.outer", -1), ("toy.inner", 0)]
    assert tr.missing == ["toy.gone"]


def test_metric_of_a_missing_function_is_absent():
    tr = Tracer()
    tr.wrapped = [f"{m}.{a}" for m, a, _ in layers.TARGETS
                  if (m, a) != ("fcpolar.bitboard", "_fccn_pass64")]
    values = layers.metrics(tr, traced_s=1.0, untraced_s=1.0)
    assert values["bitboard.fccn_s"] is None
    assert values["bitboard.check_s"] == 0.0
    assert set(values) == set(layers.METRICS)


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_traced_run_reports_every_layer_and_unwraps(capsys):
    assert run.main(["--workload", "sbj-n64", "--seed", "0", "--seconds", "0",
                     "--trace", "1", "--smoke"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == set(layers.METRICS)
    assert all(m["value"] is not None for m in result["metrics"].values())
    for mod_name, attr, _ in layers.TARGETS:
        fn = getattr(importlib.import_module(mod_name), attr)
        assert not getattr(fn, "__wrapped_by_tracer__", False), (mod_name, attr)

    dump = json.loads((run.OUT / "trace-sbj-n64-seed0.json").read_text())
    values = dump["metrics"]
    layer_s = sum(v for k, v in values.items()
                  if k.endswith("_s") and not k.startswith("trace."))
    assert layer_s + values["trace.untraced_s"] == pytest.approx(dump["traced_s"])
    assert values["bitboard.check_calls"] > 0


def test_smoke_run_of_every_workload_passes_the_gate():
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--smoke", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    result = _last_json(res.stdout)
    assert result["failed"] == 0 and result["correct"], res.stdout
    for name in ("sbj-n256", "sbj-n64", "scl-n256", "de-n128"):
        for metric in ("items_per_s", "setup_s", "peak_rss_mb"):
            assert result["metrics"][f"{name}.{metric}"]["value"] > 0
    assert "failed_share" in res.stdout
