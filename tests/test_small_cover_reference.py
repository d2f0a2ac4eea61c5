"""Small covers against the identity cover.

``resolve`` covers a 2-module by the generators of M0 that no unit pivot
of pi0's relations solves for.  The reference below is the cover it
replaced: every generator of M0, by the identity.  The stage loop takes
its free covers from ``resolution._free_stage``, whose pass also gives the
stage kernel; the reference patches it with the identity cover and no
kernel, so its stage kernels go through ``relative_kernel``.  Any two
projective resolutions are homotopy equivalent (Weibel, Comparison
Theorem 2.2.6), so under both covers every resolution must validate, the
pi-profiles of L_0..L_2 must agree, and every long sequence must pass its
check with the same pi-profiles in its entries.  The small cover is never
larger, and it is strictly smaller where a relation of pi0 has a unit as
its first nonzero entry, as the echelon pass then puts a unit pivot on it.
"""

import json
import random
from math import gcd
from pathlib import Path

import pytest

from test_complex2 import derive_input
from twohom import resolution
from twohom.cli import load_doc
from twohom.derived import (FunctorSpec, check_long_sequence, derived_complex,
                            long_sequence)
from twohom.exactlin import Matrix, RingSpec, ZZ
from twohom.fpmod import FPModule
from twohom.resolution import free_mor, validate_resolution
from twohom.twomod import TwoModule, pi0

ROOT = Path(__file__).resolve().parents[1]
CATALOG = ROOT / "catalog.json"
WORKSPACE = ROOT / "tests" / "cli_small_workspace.json"
Z4, Z12 = RingSpec.Zmod(4), RingSpec.Zmod(12)


def identity_cover(m: TwoModule):
    """The reference: [0 -> R^{gens(M0)}] -> m by the identity."""
    p = TwoModule.free(m.ring, m.M0.gens)
    return p, free_mor(p, m, Matrix.identity(m.ring, m.M0.gens))


def under_both(monkeypatch, run):
    """run() with the small cover, then with the identity cover, whose
    stage kernels must go through ``relative_kernel``."""
    small = run()
    with monkeypatch.context() as mp:
        calls = []

        def relative_kernel(*args, _real=resolution.relative_kernel, **kw):
            calls.append(args)
            return _real(*args, **kw)

        mp.setattr(resolution, "_free_stage",
                   lambda m: (*identity_cover(m), None))
        mp.setattr(resolution, "relative_kernel", relative_kernel)
        ref = run()
        assert calls
        return small, ref


def has_unit_relation(m: TwoModule) -> bool:
    """Some relation of pi0(m) has a unit as its first nonzero entry."""
    n = m.ring.n
    for col in zip(*pi0(m).rel.tolists()):
        x = next((x for x in col if x), 0)
        if x and (abs(x) if n is None else gcd(x, n)) == 1:
            return True
    return False


def _workspace(path, ring_doc=None):
    doc = json.loads(path.read_text())
    if ring_doc is not None:
        doc["ring"] = ring_doc
    objs = doc["objects"]
    return load_doc(doc), lambda kind: sorted(
        k for k, v in objs.items() if v["type"] == kind)


def _derive_cases():
    """(id, functor, 2-module): seeded derive inputs on each ring, and the
    2-modules of the catalog (over Z and Z/12) and of the cli-small
    workspace under each of their functors."""
    out = []
    for ring, k in ((ZZ, 6), (Z4, 2), (Z12, 4)):
        rng = random.Random(f"small cover {ring}")
        t = FunctorSpec.tensor_with(FPModule.cyclic(ring, k))
        out += [(f"{ring} derive {i}", t, derive_input(rng, ring, g))
                for i, g in enumerate((5, 6, 7, 8))]
    for name, path, ring_doc in (("catalog", CATALOG, None),
                                 ("catalog Z/12", CATALOG, {"kind": "Zmod", "n": 12}),
                                 ("cli-small", WORKSPACE, None)):
        ws, of = _workspace(path, ring_doc)
        out += [(f"{name} {t} {m}", ws.get(t), ws.get(m))
                for t in of("functor") for m in of("twomodule")]
    return out


def _extension_cases():
    """(id, functor, extension) of the catalog and the cli-small workspace."""
    out = []
    for name, path in (("catalog", CATALOG), ("cli-small", WORKSPACE)):
        ws, of = _workspace(path)
        out += [(f"{name} {t} {e}", ws.get(t), ws.get(e))
                for e in of("extension") for t in of("functor")]
    return out


DERIVE = _derive_cases()
EXTENSIONS = _extension_cases()


@pytest.mark.parametrize("t, m", [c[1:] for c in DERIVE],
                         ids=[c[0] for c in DERIVE])
def test_derived_profiles_agree_with_the_identity_cover(t, m, monkeypatch):
    def run():
        res, tc = derived_complex(t, m, 2, 4)
        ok, why = validate_resolution(res)
        assert ok, why
        return [tc.homology(i).pi for i in range(3)], res.module(0).M0.gens

    (small, rank), (ref, ref_rank) = under_both(monkeypatch, run)
    assert small == ref
    assert ref_rank == m.M0.gens
    assert rank < ref_rank if has_unit_relation(m) else rank <= ref_rank


def test_derive_inputs_include_unit_relations():
    derive = [m for name, _, m in DERIVE if " derive " in name]
    assert any(has_unit_relation(m) for m in derive)


@pytest.mark.parametrize("t, ext", [c[1:] for c in EXTENSIONS],
                         ids=[c[0] for c in EXTENSIONS])
def test_long_sequences_agree_with_the_identity_cover(t, ext, monkeypatch):
    def run():
        seq = long_sequence(t, *ext, 2)
        assert check_long_sequence(seq)
        return [(e.label, e.degree, e.homology.pi) for e in seq.entries]

    small, ref = under_both(monkeypatch, run)
    assert small == ref
