"""cli.run_point rows and de.de_run outputs pinned exactly: a change to an
engine must not move them.

The rows were recorded before the check engines shared one stage sweep.
Each decoder runs at N=64, 128 and 256 (NR codes, CRC11, SCL with L=8) on
points where rows dead-end and, under SBJ, backjump; every field is compared
exactly, floats included, so any changed trial outcome shows. The SCL rows
at L = 1 to 32 and N up to 1024 were recorded before the list decode was
batched across trials.

The density-evolution outputs were recorded before the PMFs became (m, 4)
arrays with one batched FCCN round: P_B exactly, and the per-bit values
P_b(i) by the SHA-256 of their little-endian float64 bytes, so a change in
the last bit of any one of them shows. The bpscc1 values at N=256 were
recorded while each information bit was still swept on its own, the N=512
values before each FCCN round folded its distinct messages only once, and
the N=1024 values before all information bits went in one sweep (the
bits went in 217 groups then).
"""
import hashlib

import pytest

from fcpolar.cli import run_point
from fcpolar.codes import build_nr_code
from fcpolar.de import de_run

FIELDS = ('p', 'bler', 'stderr', 'avg_visits', 'avg_iters', 'trials', 'errors',
          'dead_ends', 'coin_misses', 'avg_backjumps')

# ((N, K, decoder, p, trials, i_max, seed), row values in FIELDS order)
PINNED = [
    ((64, 32, 'sc', 0.3, 40, 1, 0), (0.3, 0.575, 0.07816249100431741, 64.0,
     1.0, 40, 23, 0, 23, 0.0)),
    ((64, 32, 'scc', 0.3, 40, 1, 0), (0.3, 0.5, 0.07905694150420949, 78.2, 1.0,
     40, 20, 20, 0, 0.0)),
    ((64, 32, 'bpscc', 0.3, 40, 1, 0), (0.3, 0.4, 0.07745966692414834, 73.875,
     1.0, 40, 16, 16, 0, 0.0)),
    ((64, 32, 'bpscc', 0.3, 40, 3, 0), (0.3, 0.4, 0.07745966692414834, 73.675,
     1.1501042390548992, 40, 16, 16, 0, 0.0)),
    ((64, 32, 'bpscc-sbj', 0.3, 8, 1, 1), (0.3, 0.0, 0.0, 173.125, 1.0, 8, 0,
     0, 0, 9.5)),
    ((64, 32, 'bpscc-sbj', 0.3, 8, 3, 1), (0.3, 0.0, 0.0, 173.125,
     1.3060109289617485, 8, 0, 0, 0, 9.5)),
    ((64, 32, 'scl', 0.3, 8, 1, 1), (0.3, 0.125, 0.11692679333668567, 140.0,
     1.0, 8, 1, 1, 0, 0.0)),
    ((128, 64, 'sc', 0.32, 30, 1, 0), (0.32, 0.4, 0.08944271909999159, 128.0,
     1.0, 30, 12, 0, 12, 0.0)),
    ((128, 64, 'scc', 0.32, 30, 1, 0), (0.32, 0.43333333333333335,
     0.09047201327032126, 142.56666666666666, 1.0, 30, 13, 13, 0, 0.0)),
    ((128, 64, 'bpscc', 0.32, 30, 1, 0), (0.32, 0.43333333333333335,
     0.09047201327032126, 142.3, 1.0, 30, 13, 13, 0, 0.0)),
    ((128, 64, 'bpscc', 0.32, 30, 3, 0), (0.32, 0.43333333333333335,
     0.09047201327032126, 142.3, 1.083949313621964, 30, 13, 13, 0, 0.0)),
    ((128, 64, 'bpscc-sbj', 0.32, 4, 1, 3), (0.32, 0.0, 0.0, 198.5, 1.0, 4, 0,
     0, 0, 0.25)),
    ((128, 64, 'bpscc-sbj', 0.32, 4, 3, 3), (0.32, 0.0, 0.0, 198.5,
     1.051779935275081, 4, 0, 0, 0, 0.25)),
    ((128, 64, 'scl', 0.32, 4, 1, 0), (0.32, 0.0, 0.0, 153.25, 1.0, 4, 0, 0, 0,
     0.0)),
    ((256, 128, 'sc', 0.35, 30, 1, 0), (0.35, 0.3333333333333333,
     0.08606629658238704, 256.0, 1.0, 30, 10, 0, 10, 0.0)),
    ((256, 128, 'scc', 0.35, 10, 1, 0), (0.35, 0.2, 0.1264911064067352, 330.5,
     1.0, 10, 2, 2, 0, 0.0)),
    ((256, 128, 'bpscc', 0.35, 10, 1, 0), (0.35, 0.2, 0.1264911064067352,
     330.5, 1.0, 10, 2, 2, 0, 0.0)),
    ((256, 128, 'bpscc', 0.35, 10, 3, 0), (0.35, 0.2, 0.1264911064067352,
     330.5, 1.0367786937222574, 10, 2, 2, 0, 0.0)),
    ((256, 128, 'bpscc-sbj', 0.3, 4, 1, 5), (0.3, 0.0, 0.0, 401.75, 1.0, 4, 0,
     0, 0, 0.25)),
    ((256, 128, 'bpscc-sbj', 0.3, 4, 3, 0), (0.3, 0.0, 0.0, 384.5,
     1.0078023407022108, 4, 0, 0, 0, 0.0)),
    ((256, 128, 'scl', 0.35, 4, 1, 1), (0.35, 0.25, 0.21650635094610965, 338.5,
     1.0, 4, 1, 1, 0, 0.0)),
]

# SCL rows at list sizes 1, 4, 8 and 32 (NR codes, CRC11), recorded before
# the list decode ran on (trial, path) rows: on every point some list
# overflows and some whole list dies, the L=8 row has coin misses, and the
# last row is cut by max_errors.
# ((N, K, list_size, p, trials, seed, max_errors), row values in FIELDS order)
PINNED_SCL = [
    ((64, 32, 1, 0.35, 24, 1, None), (0.35, 0.7916666666666666,
     0.08289816934939807, 43.0, 1.0, 24, 19, 19, 0, 0.0)),
    ((64, 32, 4, 0.4, 24, 1, None), (0.4, 0.5416666666666666,
     0.10170707302692229, 135.20833333333334, 1.0, 24, 13, 13, 0, 0.0)),
    ((64, 32, 32, 0.45, 24, 1, None), (0.45, 0.4583333333333333,
     0.10170707302692229, 836.7083333333334, 1.0, 24, 11, 11, 0, 0.0)),
    ((64, 32, 8, 0.5, 48, 1, None), (0.5, 0.8958333333333334,
     0.04409175381666768, 316.0416666666667, 1.0, 48, 43, 41, 2, 0.0)),
    ((256, 128, 1, 0.35, 24, 1, None), (0.35, 0.20833333333333334,
     0.08289816934939807, 215.58333333333334, 1.0, 24, 5, 5, 0, 0.0)),
    ((256, 128, 4, 0.4, 24, 1, None), (0.4, 0.3333333333333333,
     0.09622504486493763, 307.2916666666667, 1.0, 24, 8, 8, 0, 0.0)),
    ((256, 128, 32, 0.45, 24, 1, None), (0.45, 0.3333333333333333,
     0.09622504486493763, 1816.2916666666667, 1.0, 24, 8, 8, 0, 0.0)),
    ((1024, 512, 1, 0.4, 24, 1, None), (0.4, 0.5833333333333334,
     0.10063456073742666, 599.125, 1.0, 24, 14, 14, 0, 0.0)),
    ((1024, 512, 4, 0.42, 24, 1, None), (0.42, 0.20833333333333334,
     0.08289816934939807, 1082.7083333333333, 1.0, 24, 5, 5, 0, 0.0)),
    ((1024, 512, 32, 0.45, 24, 1, None), (0.45, 0.375, 0.09882117688026186,
     3082.75, 1.0, 24, 9, 9, 0, 0.0)),
    ((64, 32, 4, 0.4, 200, 2, 5), (0.4, 0.8333333333333334,
     0.15214515486254612, 140.33333333333334, 1.0, 6, 5, 5, 0, 0.0)),
]

# ((N, K, decoder, p), (P_B, first 32 hex digits of SHA-256 of P_b(i)))
PINNED_DE = [
    ((64, 32, 'sc', 0.3), (0.6669394018473959, 'c0e110045c21ff7dbb6d0d6827ba3e80')),
    ((64, 32, 'sc', 0.4), (0.9644599565079891, 'b8714c4c09ea1d0cd10a9729031214ff')),
    ((64, 32, 'scc', 0.3), (0.6515066756302365, 'ef0db170ec66461cf6e9405f0c1e7f40')),
    ((64, 32, 'scc', 0.4), (0.9627212476147518, 'f0a700bc996eeb07fa722b00605a91a5')),
    ((64, 32, 'bpscc1', 0.3), (0.5354640787868423, '9d0141a18963e7884f1daa31c0b71055')),
    ((64, 32, 'bpscc1', 0.4), (0.9182848868094043, 'c4e5adac67662db97997c4bea4c975ef')),
    ((128, 64, 'sc', 0.3), (0.4334755391600621, '5219ab674b422f2a8244b523b3959bbb')),
    ((128, 64, 'sc', 0.4), (0.9292899414438685, 'e365c8dd39aa3f7eee626b0774314954')),
    ((128, 64, 'scc', 0.3), (0.37155011714604813, 'bb303117bc89598a55fc502f40c133a6')),
    ((128, 64, 'scc', 0.4), (0.9191269541719468, '7df688b470ef8b919f37c487018bcb96')),
    ((128, 64, 'bpscc1', 0.3), (0.14850731859893784, '4a13dac934f8e97f4fc59fefc75c175d')),
    ((128, 64, 'bpscc1', 0.4), (0.7978143320766069, '746ff52a13999a3243fe2cb6f10aff73')),
    ((256, 128, 'sc', 0.3), (0.14812507534129626, 'ba7a029e8a93479e7aa4d30cfd8d8620')),
    ((256, 128, 'sc', 0.4), (0.8380685258357212, 'fc1b76442ea1241097f48741cfe5edca')),
    ((256, 128, 'scc', 0.3), (0.09546704538131712, '3416a540a082b72a3a86cf373bb1f7a0')),
    ((256, 128, 'scc', 0.4), (0.8032381278340708, '9ca82a33b84c23dab9be947582f6d973')),
    ((256, 128, 'bpscc1', 0.3), (0.02048513535930463, '5e382ea0cd8ff524fa54b7e3867b3985')),
    ((256, 128, 'bpscc1', 0.4), (0.5360802685176032, '1708c3edc412c1a28ef412fb039d4a86')),
    ((512, 256, 'scc', 0.4), (0.6912685574313324, 'b2461c184ab3e3f4f542697c61a1e431')),
    ((512, 256, 'bpscc1', 0.4), (0.528482437282585, '37532279e9aa2507a2551d742a6df4e9')),
    ((1024, 512, 'bpscc1', 0.4), (0.4823422527575303, 'd744762e610627fa59a1cbf268286041')),
]

_SPECS = {}


def _spec(N, K):
    return _SPECS.get(N) or _SPECS.setdefault(N, build_nr_code(N, K))


@pytest.mark.parametrize("case,row", PINNED, ids=[
    f"{c[2]}-N{c[0]}-imax{c[5]}" for c, _ in PINNED])
def test_run_point_rows_are_pinned(case, row):
    N, K, decoder, p, trials, i_max, seed = case
    spec = _spec(N, K)
    assert run_point(spec, decoder, p, trials, seed, i_max=i_max,
                     list_size=8) == dict(zip(FIELDS, row))


@pytest.mark.parametrize("case,row", PINNED_SCL, ids=[
    f"scl-N{c[0]}-L{c[2]}-p{c[3]}" + ("-cut" if c[6] else "")
    for c, _ in PINNED_SCL])
def test_scl_rows_are_pinned(case, row):
    N, K, list_size, p, trials, seed, max_errors = case
    assert run_point(_spec(N, K), "scl", p, trials, seed, list_size=list_size,
                     max_errors=max_errors) == dict(zip(FIELDS, row))


@pytest.mark.parametrize("case,pinned", PINNED_DE, ids=[
    f"de-{c[2]}-N{c[0]}-p{c[3]}" for c, _ in PINNED_DE])
def test_de_outputs_are_pinned(case, pinned):
    N, K, decoder, p = case
    per_bit, bler = de_run(_spec(N, K), decoder, p)
    digest = hashlib.sha256(per_bit.astype("<f8").tobytes()).hexdigest()
    assert (bler, digest[:32]) == pinned
