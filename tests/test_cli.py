"""Command-line harness: reproducibility, config layering, output formats."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fcpolar import batch, bounds, cli, de
from fcpolar.codes import build_nr_code


def _run(argv):
    return cli.main(argv)


def test_cli_import_leaves_scipy_stats_and_special_out(tmp_path):
    # Only bounds, mlbound and toy-compare need scipy.stats/scipy.special;
    # importing the CLI must not load them, and those commands must still
    # load what they need when run.
    script = f"""
import sys
import fcpolar.cli as cli
loaded = [m for m in ("scipy.stats", "scipy.special") if m in sys.modules]
assert not loaded, loaded
assert cli.main(["bounds", "--n", "4", "--k", "8", "--p-grid", "0.3",
                 "--out", {str(tmp_path / "b.csv")!r}]) == 0
assert cli.main(["toy-compare", "--esn0-grid", "2.0", "--trials", "20",
                 "--out", {str(tmp_path / "t.csv")!r}]) == 0
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "b.csv").read_text().startswith("p,dt,mc\n")
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 2


def test_simulate_csv_reproducible(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--n", "4", "--k", "6", "--crc", "none",
            "--decoder", "bpscc", "--p-grid", "0.4:0.5:0.05",
            "--trials", "300", "--seed", "7"]
    assert _run(argv + ["--out", str(out1)]) == 0
    assert _run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.splitlines()[0] == cli.CSV_HEADER
    assert len(text.splitlines()) == 4  # header + three grid points
    meta = json.loads((tmp_path / "a.csv.json").read_text())
    assert meta["seed"] == 7
    assert meta["code_hash"] == build_nr_code(16, 6, crc="none").code_hash()
    assert len(meta["points"]) == 3


def test_chunking_does_not_change_results(nr16, monkeypatch):
    # an SCL chunk holds CHUNK // list_size trials: one trial at CHUNK = 3;
    # the cut BP-SCC point runs chunks of 64 and 128 trials, then of 3
    nr32 = build_nr_code(32, 16)
    cases = [(nr16, "scc", 0.45, 500, {}), (nr16, "sc", 0.45, 150, {}),
             (nr16, "scl", 0.45, 150, {"list_size": 4}),
             (nr16, "scl", 0.45, 150, {"list_size": 2, "max_errors": 10}),
             (nr32, "bpscc", 0.1, 3000, {"i_max": 3, "max_errors": 5})]
    ref = [cli.run_point(c, d, p, n, seed=3, **kw) for c, d, p, n, kw in cases]
    monkeypatch.setattr(batch, "CHUNK", 3)
    small = [cli.run_point(c, d, p, n, seed=3, **kw)
             for c, d, p, n, kw in cases]
    assert ref == small
    assert ref[3]["errors"] == 10
    assert ref[4]["errors"] == 5 and ref[4]["trials"] > 64 + 64


@pytest.mark.parametrize("decoder,p", [("scc", 0.05), ("bpscc", 0.1),
                                       ("bpscc-sbj", 0.3)])
def test_max_errors_row_equals_run_up_to_the_cut(decoder, p):
    # Every field of a cut point, avg_iters too, is that of a run of exactly
    # the trials up to the cut: the trials decoded past it count nowhere.
    spec = build_nr_code(32, 16)
    cut = cli.run_point(spec, decoder, p, 3000, seed=3, i_max=3, max_errors=5)
    assert cut["errors"] == 5 and cut["trials"] > 64
    again = cli.run_point(spec, decoder, p, cut["trials"], seed=3, i_max=3)
    for field, value in again.items():
        assert cut[field] == value, field


def test_scl_csv_does_not_depend_on_chunk_size(tmp_path, monkeypatch):
    argv = ["simulate", "--n", "4", "--k", "6", "--crc", "none",
            "--decoder", "scl", "--list-size", "3", "--p-grid", "0.4:0.5:0.05",
            "--trials", "100", "--seed", "5", "--out"]
    assert _run(argv + [str(tmp_path / "a.csv")]) == 0
    monkeypatch.setattr(batch, "CHUNK", 3)
    assert _run(argv + [str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_max_errors_cuts_like_sequential_loop(nr16):
    full = cli.run_point(nr16, "sc", 0.5, 3000, seed=1)
    cut = cli.run_point(nr16, "sc", 0.5, 3000, seed=1, max_errors=40)
    assert cut["errors"] == 40
    assert cut["trials"] < full["trials"]
    # the cut point is a prefix of the full run: same error count there
    again = cli.run_point(nr16, "sc", 0.5, cut["trials"], seed=1)
    assert again["errors"] == 40
    assert again["bler"] == cut["bler"]


def test_run_point_validation(nr16):
    with pytest.raises(ValueError):
        cli.run_point(nr16, "viterbi", 0.5, 10, seed=0)
    with pytest.raises(ValueError):
        cli.run_point(nr16, "sc", 1.5, 10, seed=0)
    with pytest.raises(ValueError):
        cli.run_point(nr16, "scl", 0.5, 10, seed=0, list_size=0)


def test_parse_grid():
    assert cli._parse_grid("0.5") == [0.5]
    assert cli._parse_grid("0.35:0.5:0.05") == [0.35, 0.4, 0.45, 0.5]
    # the stop's tolerance is in steps: a tiny step does not run past it
    assert cli._parse_grid("0.3:0.3:1e-12") == [0.3]
    assert cli._parse_grid("0.3:0.3:1e-20") == [0.3]
    with pytest.raises(Exception):
        cli._parse_grid("0.1:0.5")
    with pytest.raises(Exception):
        cli._parse_grid("0.5:0.1:-0.2")
    with pytest.raises(Exception):
        cli._parse_grid("0.5:0.3:0.1")


def test_config_defaults_and_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ntrials = 123\np-grid = 0.5\nseed = 9\n")
    argv = ["--config", str(cfg), "simulate", "--n", "4", "--k", "6",
            "--crc", "none", "--decoder", "sc"]
    assert _run(argv) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[1].split(",")[5] == "123"

    argv2 = argv + ["--trials", "50"]
    assert _run(argv2) == 0
    rows2 = capsys.readouterr().out.strip().splitlines()
    assert rows2[1].split(",")[5] == "50"


def test_de_subcommand_matches_module(tmp_path):
    out = tmp_path / "de.csv"
    assert _run(["de", "--n", "6", "--k", "32", "--decoder", "scc",
                 "--p-grid", "0.5", "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    spec = build_nr_code(64, 32)
    per_bit, bler = de.de_run(spec, "scc", 0.5)
    vals = row.split(",")
    assert float(vals[1]) == pytest.approx(bler, rel=1e-6)
    assert len(vals) == 2 + spec.K
    assert float(vals[2]) == pytest.approx(per_bit[0], rel=1e-6)


def test_de_out_writes_a_deterministic_sidecar(tmp_path, capsys):
    argv = ["de", "--n", "5", "--k", "16", "--decoder", "bpscc1",
            "--p-grid", "0.3:0.4:0.05"]
    assert _run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "de.csv"
    sidecars = []
    for _ in range(2):
        assert _run(argv + ["--out", str(out)]) == 0
        # the sidecar leaves the CSV as it was without --out
        assert out.read_text() == printed
        sidecars.append((tmp_path / "de.csv.json").read_bytes())
    assert sidecars[0] == sidecars[1]
    meta = json.loads(sidecars[0])
    assert meta["code_hash"] == build_nr_code(32, 16).code_hash()
    assert meta["version"] == cli.__version__
    assert meta["config"]["p_grid"] == [0.3, 0.35, 0.4]


def test_python_m_fcpolar_runs_the_cli(capsys):
    argv = ["de", "--n", "5", "--k", "16", "--decoder", "scc",
            "--p-grid", "0.3:0.5:0.1"]
    assert _run(argv) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "fcpolar", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out


def test_bounds_subcommand_matches_module(tmp_path):
    out = tmp_path / "b.csv"
    assert _run(["bounds", "--n", "6", "--k", "32",
                 "--p-grid", "0.35:0.5:0.05", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,dt,mc"
    for line in lines[1:]:
        p, dt, mc = (float(v) for v in line.split(","))
        assert dt == pytest.approx(bounds.dt_bound(64, 32, p), rel=1e-6)
        assert mc == pytest.approx(bounds.mc_bound(64, 32, p), rel=1e-6)


def test_mlbound_subcommand(tmp_path):
    out = tmp_path / "ml.csv"
    assert _run(["mlbound", "--n", "4", "--k", "6", "--crc", "none",
                 "--p-grid", "0.45", "--trials", "400", "--seed", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,ml_bound,trials"
    spec = build_nr_code(16, 6, crc="none")
    val = float(lines[1].split(",")[1])
    assert val == pytest.approx(bounds.ml_bound_sim(spec, 0.45, 400, 2))


@pytest.mark.parametrize("argv", [
    ["mlbound", "--n", "4", "--k", "6", "--crc", "none", "--p-grid",
     "0.4:0.5:0.05", "--trials", "100", "--seed", "2"],
    ["toy-compare", "--esn0-grid=-2:2:2", "--trials", "60", "--seed", "4"],
])
def test_chunk_size_does_not_change_mlbound_or_toy_compare(argv, tmp_path,
                                                           monkeypatch):
    # Both commands decode batch.CHUNK trials per call and sum integer
    # counts, so chunks of 7 give the bytes of one chunk for all trials.
    assert _run(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    monkeypatch.setattr(batch, "CHUNK", 7)
    assert _run(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_toy_compare_structure(tmp_path):
    out = tmp_path / "toy.csv"
    assert _run(["toy-compare", "--esn0-grid", "2.0", "--trials", "200",
                 "--seed", "4", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "esn0_db,bler_sc,bler_bitwise,bler_blockwise,trials"
    vals = lines[1].split(",")
    assert len(vals) == 5
    blers = [float(v) for v in vals[1:4]]
    assert all(0.0 <= b <= 1.0 for b in blers)
    # twice the same invocation, byte for byte
    out2 = tmp_path / "toy2.csv"
    assert _run(["toy-compare", "--esn0-grid", "2.0", "--trials", "200",
                 "--seed", "4", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_build_code_summary(capsys):
    assert _run(["build-code", "--n", "6", "--k", "32"]) == 0
    text = capsys.readouterr().out
    assert "N = 64" in text and "K = 32" in text
    assert "code_hash = " in text


def test_dump_fc_worked_example(capsys):
    assert _run(["dump-fc"]) == 0
    text = capsys.readouterr().out
    assert "i=3" in text
    assert "L=[4, 6]" in text
    assert "t=2: [6]" in text


def test_dump_matrices_sections(capsys):
    assert _run(["dump-matrices"]) == 0
    text = capsys.readouterr().out
    for name in ("# T", "# H", "# G", "# TG", "# Q"):
        assert name in text


def test_unknown_arguments_rejected():
    with pytest.raises(SystemExit):
        _run(["simulate", "--n", "4", "--k", "6", "--bogus", "1"])


def test_decoder_needs_code():
    with pytest.raises(SystemExit):
        _run(["simulate", "--decoder", "sc"])


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "4", "--k", "6", "--imax", "0"],
    ["simulate", "--n", "4", "--k", "6", "--imax", "-2"],
    ["simulate", "--n", "4", "--k", "6", "--trials", "0"],
    ["simulate", "--n", "4", "--k", "6", "--max-errors", "0"],
    ["mlbound", "--n", "4", "--k", "6", "--trials", "0"],
    ["toy-compare", "--trials", "0"],
    ["toy-compare", "--trials", "x"],
])
def test_counts_below_one_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: " in capsys.readouterr().err


def test_config_count_below_one_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("imax = 0\n")
    with pytest.raises(SystemExit) as exc:
        _run(["--config", str(cfg), "simulate", "--n", "4", "--k", "6"])
    assert exc.value.code == 2
    assert "config imax: must be at least 1" in capsys.readouterr().err


_BAD_VALUES = [
    ("simulate", "p_grid", "0.5:1.5:0.5",
     "erasure probability 1.5 out of range [0, 1]"),
    ("simulate", "p_grid", "0.5:0.3:0.1", "empty grid '0.5:0.3:0.1'"),
    ("simulate", "p_grid", "-0.1", "erasure probability -0.1 out of range"),
    ("de", "p_grid", "1.5", "erasure probability 1.5 out of range"),
    ("bounds", "p_grid", "1.5:2:0.5", "erasure probability 1.5 out of range"),
    ("mlbound", "p_grid", "1.5:2:0.5", "erasure probability 1.5 out of range"),
    ("mlbound", "p_grid", "0.4:0.2:0.1", "empty grid"),
    ("simulate", "p_grid", "0.3:0.4:1e-20",
     "grid '0.3:0.4:1e-20' has over 10000 points"),
    ("simulate", "p_grid", "0.3:inf:0.1", "grid '0.3:inf:0.1' is not finite"),
    ("de", "p_grid", "0.3:0.4:nan", "grid '0.3:0.4:nan' is not finite"),
    ("mlbound", "p_grid", "0.3:0.31:1e-20",
     "grid '0.3:0.31:1e-20' has over 10000 points"),
    ("bounds", "p_grid", "nan", "grid 'nan' is not finite"),
    ("simulate", "list_size", "0", "must be at least 1, got 0"),
    ("bounds", "k", "0", "must be at least 1, got 0"),
    ("de", "n", "-1", "must be at least 1, got -1"),
    ("dump-matrices", "n", "0", "must be at least 1, got 0"),
    ("simulate", "k", "-2", "must be at least 1, got -2"),
    # N above 1024: bounds would ask np.arange(N + 1) for 8 TiB at n = 40
    ("bounds", "n", "40", "invalid choice"),
    ("simulate", "n", "11", "invalid choice"),
]
_BAD_IDS = [f"{c}-{k}={v}" for c, k, v, _ in _BAD_VALUES]


@pytest.mark.parametrize("command,key,value,message", _BAD_VALUES,
                         ids=_BAD_IDS)
def test_bad_values_rejected_while_parsing(command, key, value, message,
                                           tmp_path, capsys):
    # Exit 2 before any trial runs, and nothing is written.
    out = tmp_path / "x.csv"
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        _run([command, "--n", "4", "--k", "6", f"{flag}={value}",
              "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_esn0_grid_rejected_while_parsing(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["toy-compare", "--esn0-grid=0:inf:1"])
    assert exc.value.code == 2
    assert "grid '0:inf:1' is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("esn0", ["4000", "-4000", "3080", "-3090"])
def test_esn0_without_a_finite_noise_variance_rejected(esn0, capsys):
    # 10^(Es/N0 / 10) overflows (4000) or its inverse does (-3090), or the
    # variance underflows to 0 (3080) or its denominator does (-4000).
    with pytest.raises(SystemExit) as exc:
        _run(["toy-compare", f"--esn0-grid={esn0}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --esn0-grid: Es/N0 {esn0} dB has no finite positive " \
        "noise variance" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,key,value,message", _BAD_VALUES,
                         ids=_BAD_IDS)
def test_bad_config_values_rejected(command, key, value, message, tmp_path,
                                    capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        _run(["--config", str(cfg), command, "--n", "4", "--k", "6",
              "--out", str(out)])
    assert exc.value.code == 2
    assert f"config {key}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["bounds", "--p-grid", "0.3"], "--n and --k are required"),
    (["bounds", "--n", "3"], "--n and --k are required"),
    (["dump-matrices", "--n", "2"], "--n and --k are required"),
], ids=["bounds-no-size", "bounds-no-k", "dump-matrices-no-k"])
def test_missing_code_size_exits_with_message(argv, message):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert str(exc.value.code).startswith(message)


def test_bounds_reject_k_above_n(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert _run(["bounds", "--n", "3", "--k", "9", "--out", str(out)]) == 1
    assert "error: K = 9 exceeds N = 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "4", "--k", "6", "--crc", "none", "--trials", "5"],
    ["de", "--n", "4", "--k", "6", "--crc", "none", "--decoder", "sc"],
    ["bounds", "--n", "4", "--k", "6"],
    ["mlbound", "--n", "4", "--k", "6", "--crc", "none", "--trials", "5"],
    ["toy-compare", "--esn0-grid", "2.0", "--trials", "5"],
    ["dump-matrices"],
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_with_message(argv, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    with pytest.raises(SystemExit) as exc:
        _run(argv + ["--out", str(path)])
    assert str(exc.value.code).startswith(f"cannot write {path}: ")


@pytest.mark.parametrize("line,message", [
    ("bogus_key = 3", "config bogus_key: not a flag of simulate"),
    ("decoder = viterbi", "config decoder: invalid choice 'viterbi'"),
    ("seed = x", "config seed: invalid literal"),
], ids=["unknown-key", "bad-choice", "bad-int"])
def test_config_rejects_what_the_flag_rejects(line, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        _run(["--config", str(cfg), "simulate", "--n", "4", "--k", "6"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
