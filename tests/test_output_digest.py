"""The byte-identity digest (tools/output_digest.py) covers the whole CLI.

The digest is the check that a change leaves every output unchanged, so a
subcommand or decoder it never runs could change its bytes unseen. These
tests read the digest's command list without running it.
"""
import importlib.util
import re
from pathlib import Path

import pytest

from fcpolar import bitboard, cli, de
from fcpolar.codes import build_nr_code

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def _digest_commands():
    module_spec = importlib.util.spec_from_file_location("output_digest",
                                                         _TOOL)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return [args for _, args in module.commands()]


def _flag(args, name):
    return args[args.index(name) + 1]


def test_digest_runs_every_subcommand(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    listed = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
    run = {args[0] for args in _digest_commands()}
    assert set(listed.split(",")) <= run


def test_digest_runs_every_decoder():
    commands = _digest_commands()
    simulate = {(_flag(a, "--n"), _flag(a, "--decoder"))
                for a in commands if a[0] == "simulate"}
    sizes = {n for n, _ in simulate}
    assert len(sizes) >= 3
    assert {(n, d) for n in sizes for d in cli.DECODERS} <= simulate
    assert set(de.DECODERS) <= {_flag(a, "--decoder")
                                for a in commands if a[0] == "de"}


def test_digest_builds_every_outer_code(capsys):
    # a run without --crc builds the default NR + CRC11 code
    with pytest.raises(SystemExit):
        cli.main(["build-code", "--help"])
    listed = re.search(r"--crc \{([a-z0-9,]+)\}",
                       capsys.readouterr().out).group(1)
    commands = _digest_commands()
    for command in ("build-code", "simulate"):
        built = {_flag(a, "--crc") if "--crc" in a else "nr11"
                 for a in commands if a[0] == command}
        assert set(listed.split(",")) <= built


def _sc_and_scl_codes():
    """(decoder, code) of every sc and scl simulate run of the digest."""
    for args in _digest_commands():
        if args[0] == "simulate" and _flag(args, "--decoder") in ("sc", "scl"):
            crc = _flag(args, "--crc") if "--crc" in args else "nr11"
            yield _flag(args, "--decoder"), build_nr_code(
                1 << int(_flag(args, "--n")), int(_flag(args, "--k")), crc=crc)


def test_digest_decodes_a_long_step():
    # SC and SCL take a run of frozen leaves and the leaf after it as one
    # step; the digest runs both on a code with a step of 128 leaves or
    # more past its first unfrozen leaf, where SC reads a leaf the channel
    # may leave erased and SCL paths can die inside the step.
    long_step = set()
    for decoder, spec in _sc_and_scl_codes():
        first = min(spec.A + spec.P)
        if any(t >= 7 and i0 > first for i0, t in bitboard.steps(spec)):
            long_step.add(decoder)
    assert long_step == {"sc", "scl"}


def test_digest_decodes_an_information_block_at_the_half():
    # SC and SCL take a block of information leaves whole where no row has
    # an erased or conflicting symbol on it, and its halves otherwise. A
    # block at leaf N/2 reads the channel block, and the digest runs both
    # on a code that has one.
    at_half = set()
    for decoder, spec in _sc_and_scl_codes():
        half = spec.N >> 1
        if any(i0 == half and t and spec.info_mask[half]
               for i0, t in bitboard.steps(spec)):
            at_half.add(decoder)
    assert at_half == {"sc", "scl"}
