"""Every construction the library builds with ``check=False`` because it
proves the condition is checked here after all.

A fixture rebuilds each OneMor and TwoMor that one of the sites below makes
unchecked with ``check=True`` instead, so a wrong proof raises
InvalidMorphism.  It likewise runs every relative kernel, relative cokernel
and relative-kernel factorization that the library makes with
``check=False`` with ``check=True``, so that the skipped null-homotopy and
compatibility checks raise CompatibilityError on a wrong proof, and reads
the ``pi`` of every relative cokernel, which makes its p and pi.  It counts
the hits, so that no site goes unexercised, and a call with ``check=False``
from a site not listed fails the test.  The results then pass
``validate_resolution``, ``validate_complex`` and ``check_long_sequence``.
The inputs are the catalog, the cli-small workspace, and seeded 2-modules
and extensions over Z and Z/12.
"""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from twohom import catalog, twomod
from twohom.cli import load
from twohom.complex2 import homology, validate_complex
from twohom.derived import (FunctorSpec, apply, check_long_sequence,
                            long_sequence)
from twohom.exactlin import Matrix, RingSpec, ZZ
from twohom.fpmod import FPModule, ModMor
from twohom.resolution import (compare, free_cover, free_mor, lift_through,
                               resolve, validate_resolution)
from twohom.twomod import (OneMor, TwoModule, TwoMor, check_relative_two_exact,
                           compose, plain_kernel, relative_cokernel,
                           zero_null_homotopy)

ROOT = Path(__file__).resolve().parents[1]
Z12 = RingSpec.Zmod(12)

# (file, function) of each site that builds a 1- or 2-morphism unchecked,
# as it proves the condition; a cell made through null_homotopy counts for
# the function that called it
SITES = {
    ("twomod.py", "rk_factorize"),        # E' and psi'
    ("twomod.py", "_cells"),              # p and the cell pi, on first read
    ("resolution.py", "lift_through"),    # sigma
    ("resolution.py", "stage"),           # the horseshoe's psi_a and psi_c
    ("derived.py", "one_mor"),            # T(F) for a 1-morphism F
    ("derived.py", "image"),              # T(phi) for a 2-morphism phi
}


# (file, function, construction) of each call that skips the checks of a
# relative (co)kernel or factorization, as it proves them; the two
# factorizations of a horseshoe stage run together, so they share a key
CHECKED_CALLS = {
    ("complex2.py", "_homology", "relative_kernel"),
    ("complex2.py", "_homology", "rk_factorize"),
    ("complex2.py", "_homology", "relative_cokernel"),
    ("resolution.py", "_start", "relative_kernel"),
    ("resolution.py", "_extend", "relative_kernel"),
    ("resolution.py", "stage", "rk_factorize"),
    ("twomod.py", "plain_kernel", "relative_kernel"),
    ("twomod.py", "is_extension", "relative_cokernel"),
    ("twomod.py", "check_relative_two_exact", "relative_cokernel"),
    ("derived.py", "_right_exact_at_b_and_c", "rk_factorize"),
}


@pytest.fixture
def checked_sites(monkeypatch):
    hits = Counter()
    for name in ("relative_kernel", "relative_cokernel", "rk_factorize"):
        real = getattr(twomod, name)

        def construction(*args, check=True, _real=real, _name=name):
            if not check:
                f = sys._getframe(1)
                hits[(Path(f.f_code.co_filename).name, f.f_code.co_name,
                      _name)] += 1
            res = _real(*args)   # checked
            if _name == "relative_cokernel":
                res.pi   # makes p and pi, at the _cells site
            return res

        for mod in [m for n, m in sys.modules.items()
                    if n == "twohom" or n.startswith("twohom.")]:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, construction)
    for cls in (OneMor, TwoMor):
        def init(self, *args, check=True, _real=cls.__init__):
            if not check:
                f = sys._getframe(1)
                if f.f_code.co_name == "null_homotopy":
                    f = f.f_back
                site = (Path(f.f_code.co_filename).name, f.f_code.co_name)
                if site in SITES:
                    hits[site] += 1
                    check = True
            _real(self, *args, check=check)
        monkeypatch.setattr(cls, "__init__", init)
    return hits


def _assert_all_hit(hits):
    assert {site for site in SITES | CHECKED_CALLS if hits[site] == 0} == set()
    assert set(hits) - SITES <= CHECKED_CALLS


def _random_two_module(ring, rng):
    """[free --d--> presented]: every d is a morphism."""
    gens, rels = rng.randint(1, 3), rng.randint(0, 2)
    m0 = FPModule(ring, gens, Matrix(ring, gens, rels,
                                     [rng.randint(-4, 4) for _ in range(gens * rels)]))
    m1 = FPModule.free(ring, rng.randint(0, 2))
    d = Matrix(ring, gens, m1.gens,
               [rng.randint(-3, 3) for _ in range(gens * m1.gens)])
    return TwoModule(m1, m0, ModMor(m1, m0, d, check=False), check=False)


def _cyclic_extension(ring, m, n):
    """Z/m --n--> Z/mn --> Z/n as discrete 2-modules, with the zero cell."""
    a, b, c = (TwoModule.discrete(FPModule.cyclic(ring, k))
               for k in (m, m * n, n))
    f = OneMor(a, b, ModMor.zero(a.M1, b.M1),
               ModMor(a.M0, b.M0, Matrix.from_rows(ring, [[n]])))
    g = OneMor(b, c, ModMor.zero(b.M1, c.M1),
               ModMor(b.M0, c.M0, Matrix.from_rows(ring, [[1]])))
    return f, zero_null_homotopy(compose(f, g)), g


def _kernel_extension(ring):
    """Ker(id) -> M --id--> M for M = [R -2-> R], where the kernel's cell is
    nonzero and M.M0 is not."""
    r = FPModule.free(ring, 1)
    g = OneMor.identity(TwoModule(r, r, ModMor(r, r, Matrix.from_rows(ring, [[2]]))))
    k = plain_kernel(g)
    return k.e, k.eps, g


def _extensions(ring):
    exts = [catalog.catalog_extension()] if ring == ZZ else []
    return exts + [_cyclic_extension(ring, 2, 3), _cyclic_extension(ring, 2, 2),
                   _kernel_extension(ring)]


def _check_resolution(res, t):
    ok, why = validate_resolution(res)
    assert ok, why
    for c in (res.augmented(), apply(t, res.complex())):
        ok, why = validate_complex(c)
        assert ok, why
        for i in range(c.length + 1):
            homology(c, i)


@pytest.mark.parametrize("ring", [ZZ, Z12], ids=["Z", "Z/12"])
def test_sites_hold_when_checked_on_seeded_inputs(ring, checked_sites):
    rng = random.Random(f"unchecked sites {ring}")
    t = FunctorSpec.tensor_with(FPModule.cyclic(ring, 2))
    for _ in range(8):
        m = _random_two_module(ring, rng)
        res = resolve(m, 3)
        _check_resolution(res, t)
        compare(OneMor.identity(m), res, resolve(m, 3))
        apply(t, tuple(k.eps for k in res.kernels))   # cells with s = to_b
    # a lift with a nonzero cell: 1 = 3 x + 2 y, through [R -2-> R]'s cover by 3
    r = FPModule.free(ring, 1)
    m = TwoModule(r, r, ModMor(r, r, Matrix.from_rows(ring, [[2]])))
    p, cover = free_cover(m)
    lift_through(p, cover, free_mor(p, m, Matrix.from_rows(ring, [[3]])))
    for f, phi, g in _extensions(ring):
        relative_cokernel(f, phi, g).pi
        assert check_relative_two_exact(f, phi, g)
        for depth in (1, 2):
            assert check_long_sequence(long_sequence(t, f, phi, g, depth))
    _assert_all_hit(checked_sites)


def test_sites_hold_when_checked_on_the_workspaces(checked_sites):
    ws = load(str(ROOT / "catalog.json"))
    for name in ("C1", "C3"):
        c = ws.get(name)
        for i in range(c.length + 1):
            homology(c, i)
    for name in ("Zfree", "Zmod2", "mul2", "shift"):
        _check_resolution(resolve(ws.get(name), 3), ws.get("T2"))
    ws = load(str(ROOT / "tests" / "cli_small_workspace.json"))
    for e, t in (("e0", "T3"), ("e2", "T4"), ("e4", "T6")):
        f, phi, g = ws.get(e)
        assert check_long_sequence(long_sequence(ws.get(t), f, phi, g, 2))
    _assert_all_hit(checked_sites)
