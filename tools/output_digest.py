"""Print a SHA-256 digest of every output of a fixed set of fcpolar runs.

    python3 tools/output_digest.py [CHECKOUT]

CHECKOUT is a source tree of this project (default: the one holding this
script); its src/ goes on PYTHONPATH. The runs cover every subcommand,
build-code, simulate and de on a code with and without the CRC, and sc
and scl on codes with a step of 128 leaves (bitboard.steps), one of them
past the first information leaf, where the list has forked, and on a code
with an information block at leaf N/2. The search decoders also run below
p = 0.25, where plain SC decides most information bits.
The commands run at most one per CPU at a time, each with one BLAS
thread, in one temporary directory with a relative --out name each,
because the simulate and de sidecars record the path; build-code and
dump-fc have no --out, so their stdout goes to a named file there. Each
line is "<sha256>  <file>", for every output and every JSON sidecar, in
file-name order, so two checkouts that produce the same bytes print the
same lines:

    diff <(python3 tools/output_digest.py ../parent) \\
         <(python3 tools/output_digest.py)
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# (n, k, p grid, trials) of the simulate points
_SIM_CODES = ((6, 32, "0.25:0.40:0.05", 200), (8, 128, "0.30:0.36:0.03", 60),
              (10, 512, "0.38:0.42:0.04", 8))
_SIM_DECODERS = ("sc", "scc", "bpscc", "bpscc-sbj", "scl")
_IMAX_DECODERS = ("scc", "bpscc", "bpscc-sbj")
_DE_DECODERS = ("sc", "scc", "bpscc1")
# (decoder, imax, p, max errors) of the --max-errors cuts, all on NR(64, 32)
_CUTS = (("bpscc", 1, "0.40", 25), ("sc", 1, "0.25", 25),
         ("scl", 1, "0.40", 25), ("bpscc-sbj", 3, "0.42", 10))
# subcommands that print their output and take no --out
_PRINTERS = ("build-code", "dump-fc")


def commands() -> list[tuple[str, list[str]]]:
    """(output name, fcpolar arguments before --out) of every run."""
    runs = []
    for n, k, grid, trials in _SIM_CODES:
        for dec in _SIM_DECODERS:
            for imax in (1, 3) if dec in _IMAX_DECODERS else (1,):
                runs.append((f"simulate-{dec}-n{n}-imax{imax}.csv", [
                    "simulate", "--n", str(n), "--k", str(k), "--decoder", dec,
                    "--imax", str(imax), "--p-grid", grid,
                    "--trials", str(trials), "--seed", "1"]))
    for dec, imax, p, errors in _CUTS:
        tag = f"-imax{imax}" if imax > 1 else ""
        runs.append((f"simulate-{dec}-n6{tag}-maxerr.csv", [
            "simulate", "--n", "6", "--k", "32", "--decoder", dec,
            "--imax", str(imax), "--p-grid", p, "--trials", "2000",
            "--max-errors", str(errors), "--seed", "2"]))
    for n in (6, 7, 8, 9):
        for dec in _DE_DECODERS:
            runs.append((f"de-{dec}-n{n}.csv", [
                "de", "--n", str(n), "--k", str(1 << (n - 1)),
                "--decoder", dec, "--p-grid", "0.30:0.40:0.05"]))
    runs.append(("de-bpscc1-n10.csv", [
        "de", "--n", "10", "--k", "512", "--decoder", "bpscc1",
        "--p-grid", "0.40"]))
    runs.append(("bounds-n8.csv", [
        "bounds", "--n", "8", "--k", "128", "--p-grid", "0.30:0.46:0.04"]))
    # near capacity, where the bound is not 0 on 300 trials
    for n, k in ((6, 32), (8, 128)):
        runs.append((f"mlbound-n{n}.csv", [
            "mlbound", "--n", str(n), "--k", str(k),
            "--p-grid", "0.45:0.55:0.05", "--trials", "300", "--seed", "3"]))
    runs.append(("toy-compare.csv", ["toy-compare", "--trials", "2000"]))
    runs.append(("build-code-n8.txt", ["build-code", "--n", "8", "--k", "128"]))
    # a plain polar code: no CRC, so no parity bits
    plain = ["--n", "6", "--k", "32", "--crc", "none"]
    runs.append(("build-code-n6-nocrc.txt", ["build-code", *plain]))
    for dec in _SIM_DECODERS:
        runs.append((f"simulate-{dec}-n6-nocrc.csv", [
            "simulate", *plain, "--decoder", dec, "--p-grid",
            "0.30:0.40:0.05", "--trials", "200", "--seed", "1"]))
    for dec in _DE_DECODERS:
        runs.append((f"de-{dec}-n6-nocrc.csv", [
            "de", *plain, "--decoder", dec, "--p-grid", "0.30:0.40:0.05"]))
    # NR(256, 8) has a step of 128 frozen leaves and one information leaf;
    # near p = 0.97 the list forks and paths die on its frozen leaves
    for dec in ("sc", "scl"):
        runs.append((f"simulate-{dec}-n8-k8-nocrc.csv", [
            "simulate", "--n", "8", "--k", "8", "--crc", "none",
            "--decoder", dec, "--p-grid", "0.85:0.97:0.04",
            "--trials", "200", "--seed", "4", "--list-size", "4"]))
    # NR(64, 58) is an information block from leaf N/2 on: at 0.01 it is
    # clean on every row and taken whole, at 0.02 split into halves that
    # are, at 0.03 split down to leaves
    for dec in ("sc", "scl"):
        runs.append((f"simulate-{dec}-n6-k58-nocrc.csv", [
            "simulate", "--n", "6", "--k", "58", "--crc", "none",
            "--decoder", dec, "--p-grid", "0.01:0.03:0.01",
            "--trials", "200", "--seed", "1"]))
    # NR(512, 16) + CRC11 forks the list at its first information leaf
    # (255), and paths die inside the next step, 128 leaves that end at
    # the information leaf 383; every decoder runs at each simulate size
    for dec in _SIM_DECODERS:
        runs.append((f"simulate-{dec}-n9-k16.csv", [
            "simulate", "--n", "9", "--k", "16", "--decoder", dec,
            "--p-grid", "0.85:0.95:0.05", "--trials", "200", "--seed", "4",
            "--list-size", "4"]))
    # below p = 0.25 plain SC decides most information bits, and the
    # search takes its verdicts there instead of checking them
    for dec in _IMAX_DECODERS:
        for imax in (1, 3):
            runs.append((f"simulate-{dec}-n8-imax{imax}-lowp.csv", [
                "simulate", "--n", "8", "--k", "128", "--decoder", dec,
                "--imax", str(imax), "--p-grid", "0.16:0.24:0.04",
                "--trials", "256", "--seed", "7"]))
    runs.append(("dump-fc-n6.txt", ["dump-fc", "--n", "6", "--k", "32"]))
    runs.append(("dump-fc-example1.txt", ["dump-fc"]))
    runs.append(("dump-matrices-n5.txt", [
        "dump-matrices", "--n", "5", "--k", "16"]))
    return runs


def _run(out: str, args: list[str], tmp: str, env: dict) -> None:
    """Run one fcpolar command in tmp, writing its output to out."""
    run = [sys.executable, "-m", "fcpolar", *args]
    if args[0] in _PRINTERS:
        with open(Path(tmp, out), "wb") as stdout:
            subprocess.run(run, cwd=tmp, env=env, check=True, stdout=stdout)
    else:
        subprocess.run([*run, "--out", out], cwd=tmp, env=env, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", nargs="?",
                        default=str(Path(__file__).resolve().parents[1]))
    checkout = Path(parser.parse_args(argv).checkout).resolve()
    # the workers fill the CPUs between them
    blas = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}
    env = {**os.environ, **blas, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryDirectory(prefix="fcpolar-digest-") as tmp:
        # one subprocess per command, at most one per CPU at a time
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            jobs = [pool.submit(_run, out, args, tmp, env)
                    for out, args in commands()]
            for job in jobs:
                job.result()
        for path in sorted(Path(tmp).iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.name}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
