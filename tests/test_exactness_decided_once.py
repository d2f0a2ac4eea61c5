"""Each 2-exactness condition is decided once, and the tests below pin the
proofs that let the library drop its second tests.

* ``check_relative_two_exact`` reads the middle spot off the triple's
  relative kernel and cokernel: Ker(F, phi) is the plain kernel of the
  comparison c: A -> Ker(G), so pi0(Ker(F, phi)) is zero exactly when c is
  full, and pi1(Coker(phi, G)) = coker pi0(c).
* ``is_extension`` tests the left and right edges only: pi1(Ker(F, phi)) =
  ker pi1(F) makes the left edge decide that F is faithful,
  pi0(Coker(phi, G)) = coker pi0(G) makes the right edge decide that G is
  essentially surjective, and the two edges decide the middle spot as above.
* ``derived._right_exact_at_b_and_c`` tests the pi1-epi half of the B spot
  only: for T = identity or - (x) N, the relative cokernel of T applied to
  an extension is pi-trivial, and its pi1 is coker pi0 of the comparison.
* ``validate_resolution`` tests the homology of the augmented complex
  only: wherever the comparison into the relative stage kernel is full and
  essentially surjective, that homology is pi-trivial.

Each test runs the test of the dropped condition as a reference, and
checks that the verdict is the same with and without it.
The seeded triples take their cells from ``find_null_homotopy``, whose
cells are checked to be module maps at the end.
"""

import random
from collections import Counter
from pathlib import Path

import pytest

from test_derived import _cyclic_extension
from test_resolution import _random_extension, _zp_extension
from test_twomod import _random_two_module_over
from twohom import catalog, twomod
from twohom.cli import load
from twohom.complex2 import validate_complex
from twohom.derived import (FunctorSpec, _right_exact_at_b_and_c, apply,
                            find_null_homotopy)
from twohom.exactlin import Matrix, RingSpec, ZZ, hstack, solve_many
from twohom.fpmod import (FPModule, InvalidMorphism, ModMor, cokernel,
                          invariant_factors, is_epi, is_valid_mor, kernel)
from twohom.resolution import _extend, resolve, validate_resolution
from twohom.twomod import (OneMor, TwoModule, TwoMor, check_relative_two_exact,
                           compose, is_essentially_surjective, is_extension,
                           is_faithful, is_full, is_pi_trivial, pi0, pi0_mor,
                           pi1, pi1_mor, plain_kernel, relative_cokernel,
                           relative_kernel, rk_factorize, zero_null_homotopy)

Z4, Z9, Z12 = RingSpec.Zmod(4), RingSpec.Zmod(9), RingSpec.Zmod(12)
WORKSPACE = Path(__file__).with_name("cli_small_workspace.json")


# ---------------------------------------------------------------------------
# seeded composable triples with a null homotopy
# ---------------------------------------------------------------------------

def _ints(rng, k, bound=3):
    return [rng.randint(-bound, bound) for _ in range(k)]


def _two_module(ring, rng):
    """[M1 --d--> M0], both presented; d is zero when the random matrix is
    not a morphism."""
    def module(top):
        gens, rels = rng.randint(0, top), rng.randint(0, 1)
        return FPModule(ring, gens, Matrix(ring, gens, rels,
                                           _ints(rng, gens * rels, 4)))
    m1, m0 = module(2), module(2)
    d = ModMor(m1, m0, Matrix(ring, m0.gens, m1.gens,
                              _ints(rng, m0.gens * m1.gens)), check=False)
    if not is_valid_mor(d):
        d = ModMor.zero(m1, m0)
    return TwoModule(m1, m0, d)


def _one_mor(ring, rng, x, y):
    """A random 1-morphism x -> y: a random f0 that is a module map, and an
    f1 that makes the square commute; the zero map when none is found."""
    for _ in range(8):
        f0 = ModMor(x.M0, y.M0, Matrix(ring, y.M0.gens, x.M0.gens,
                                       _ints(rng, y.M0.gens * x.M0.gens)),
                    check=False)
        if not is_valid_mor(f0):
            continue
        # y.d f1 = f0 x.d modulo y.M0's relations
        sol = solve_many(hstack([y.d.mat, y.M0.rel]), f0.mat @ x.d.mat)
        if sol is None:
            continue
        try:
            return OneMor(x, y, ModMor(x.M1, y.M1, sol[:y.M1.gens]), f0)
        except InvalidMorphism:
            continue
    return OneMor.zero(x, y)


def _composites(ring, seed, count):
    """``count`` seeded composites (F, G) of random 1-morphisms."""
    rng = random.Random(f"composites {ring} {seed}")
    out = []
    for _ in range(count):
        a, b, c = (_two_module(ring, rng) for _ in range(3))
        out.append((_one_mor(ring, rng, a, b), _one_mor(ring, rng, b, c)))
    return out


def _triples(ring):
    """Seeded triples (F, phi, G) with phi a found null homotopy of G∘F,
    most of them not extensions, and seeded extensions Ker G -> B -> C."""
    out = []
    for f, g in _composites(ring, "triples", 120):
        phi = find_null_homotopy(compose(f, g))
        if phi is not None:
            out.append((f, phi, g))
    rng = random.Random(f"extensions {ring}")
    return out + [_random_extension(rng, ring) for _ in range(4)]


# ---------------------------------------------------------------------------
# (a) the middle spot is read off the relative kernel and cokernel
# ---------------------------------------------------------------------------

def _comparison(F, phi, G):
    """The comparison A -> Ker(G) induced by (F, phi), checked."""
    return rk_factorize(plain_kernel(G), F, phi)[0]


def _parent_check_relative_two_exact(F, phi, G):
    """The comparison into the kernel of G is full and essentially
    surjective."""
    c = _comparison(F, phi, G)
    return is_full(c) and is_essentially_surjective(c)


@pytest.mark.parametrize("ring", [ZZ, Z4, Z12], ids=str)
def test_the_edges_decide_the_middle_spot(ring):
    verdicts = []
    for F, phi, G in _triples(ring):
        c = _comparison(F, phi, G)
        left = relative_kernel(F, phi, G).K
        right = relative_cokernel(F, phi, G).Q
        # pi0(Ker(F, phi)) = pi0(Ker c) is zero exactly when c is full, and
        # pi1(Coker(phi, G)) = coker pi0(c)
        assert (invariant_factors(pi0(left)) == []) == is_full(c)
        assert (invariant_factors(pi1(right))
                == invariant_factors(cokernel(pi0_mor(c))))
        verdict = check_relative_two_exact(F, phi, G)
        assert verdict == _parent_check_relative_two_exact(F, phi, G)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# (b) is_extension: the edges decide the legs' conditions
# ---------------------------------------------------------------------------

def _parent_is_extension(F, phi, G):
    """The five-condition formula: faithful F, essentially surjective G,
    pi-trivial left edge, 2-exact middle, pi-trivial right edge."""
    return (is_faithful(F) and is_essentially_surjective(G)
            and is_pi_trivial(relative_kernel(F, phi, G).K)
            and _parent_check_relative_two_exact(F, phi, G)
            and is_pi_trivial(relative_cokernel(F, phi, G).Q))


@pytest.mark.parametrize("ring", [ZZ, Z4, Z12], ids=str)
def test_edges_decide_faithful_and_essentially_surjective(ring):
    triples = _triples(ring)
    verdicts = []
    for F, phi, G in triples:
        left = relative_kernel(F, phi, G).K
        right = relative_cokernel(F, phi, G).Q
        # pi1(Ker(F, phi)) = ker pi1(F) and pi0(Coker(phi, G)) = coker pi0(G)
        assert (invariant_factors(pi1(left))
                == invariant_factors(kernel(pi1_mor(F))[0]))
        assert (invariant_factors(pi0(right))
                == invariant_factors(cokernel(pi0_mor(G))))
        assert (invariant_factors(pi1(left)) == []) == is_faithful(F)
        assert (invariant_factors(pi0(right)) == []) == is_essentially_surjective(G)
        verdict = is_extension(F, phi, G)
        assert verdict == _parent_is_extension(F, phi, G)
        verdicts.append(verdict)
    # both legs' conditions fail somewhere, and most triples are not extensions
    assert not all(is_faithful(F) for F, _, _ in triples)
    assert not all(is_essentially_surjective(G) for _, _, G in triples)
    assert 4 <= verdicts.count(True) < verdicts.count(False)


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls each construction receives from twomod."""
    seen = Counter()
    for name in ("relative_kernel", "relative_cokernel", "plain_kernel",
                 "rk_factorize"):
        def counting(*args, _real=getattr(twomod, name), _name=name, **kw):
            seen[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(twomod, name, counting)
    return seen


@pytest.mark.parametrize("which", ["catalog", "cli-small"])
def test_exactness_builds_no_comparison(which, calls):
    F, phi, G = (catalog.catalog_extension() if which == "catalog"
                 else load(str(WORKSPACE)).get("e0"))
    assert twomod.is_extension(F, phi, G)
    assert calls == Counter(relative_kernel=1, relative_cokernel=1)
    calls.clear()
    assert twomod.check_relative_two_exact(F, phi, G)
    assert calls == Counter(relative_kernel=1, relative_cokernel=1)


# ---------------------------------------------------------------------------
# (c) right exactness: the C spot holds on every extension
# ---------------------------------------------------------------------------

def _z3_extension(n):
    """Z/3 --3--> Z/9 --> Z/3 over Z/n (Z/9 is Z/n itself for n = 9)."""
    ring = RingSpec.Zmod(n)
    a, b = FPModule.cyclic(ring, 3), FPModule.cyclic(ring, 0 if n == 9 else 9)
    A, B = TwoModule.discrete(a), TwoModule.discrete(b)
    f = OneMor(A, B, ModMor.zero(A.M1, B.M1),
               ModMor(a, b, Matrix.from_rows(ring, [[3]])))
    g = OneMor(B, A, ModMor.zero(B.M1, A.M1),
               ModMor(b, a, Matrix.from_rows(ring, [[1]])))
    return f, zero_null_homotopy(compose(f, g)), g


def _extensions():
    exts = [catalog.catalog_extension()]
    exts += [_cyclic_extension(m, n, split)[1]
             for m, n, split in [(2, 2, False), (2, 3, False), (4, 2, False),
                                 (2, 4, False), (2, 2, True), (3, 2, True)]]
    exts += [_z3_extension(n) for n in (9, 27)]
    exts += [_zp_extension(n, p) for n, p in ((4, 2), (9, 3), (27, 3))]
    ws = load(str(WORKSPACE))
    exts += [ws.get(f"e{j}") for j in range(5)]
    for ring in (ZZ, Z4, Z12):
        exts += [t for t in _triples(ring) if is_extension(*t)]
    return exts


def test_the_c_spot_holds_on_every_extension():
    """The tests that ``_right_exact_at_b_and_c`` does not run, on every
    extension these tests build: the relative cokernel of T applied to the
    extension is pi-trivial, so the comparison c into the kernel of T(G) is
    essentially surjective, and the verdict is the parent's B-spot test."""
    exts = _extensions()
    assert len(exts) >= 30
    verdicts = []
    for F, phi, G in exts:
        assert is_extension(F, phi, G)
        ring = F.src.ring
        functors = [FunctorSpec.identity()] + [
            FunctorSpec.tensor_with(FPModule.cyclic(ring, k)) for k in (2, 3, 4, 6)]
        for t in functors:
            tf, tphi, tg = apply(t, (F, phi, G))
            assert is_pi_trivial(relative_cokernel(tf, tphi, tg).Q)
            c = _comparison(tf, tphi, tg)
            assert is_essentially_surjective(c)
            verdict = _right_exact_at_b_and_c(t, F, phi, G)
            assert verdict == is_epi(pi1_mor(c))
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# (d), (e) validate_resolution: one criterion per spot
# ---------------------------------------------------------------------------

def _relative_comparison_holds(res, i):
    """The comparison P_{i+1} -> Ker(F_i, cell_i, F_{i-1}) is full and
    essentially surjective."""
    k = relative_kernel(res.f(i), res.cell(i), res.f(i - 1))
    cmp_mor, _ = rk_factorize(k, res.f(i + 1), res.cell(i + 1))
    return is_full(cmp_mor) and is_essentially_surjective(cmp_mor)


def _interior_spots(res):
    return range(0, (res.depth if res.terminated else res.depth - 2) + 1)


def _parent_validate_resolution(res):
    """A spot passes on the comparison into the relative stage kernel or,
    failing that, on pi-trivial homology of the augmented complex."""
    for n, p in enumerate(res.modules):
        if not p.is_free():
            return False, f"P_{n} is not free"
    ok, why = validate_complex(res.augmented())
    if not ok:
        return False, f"augmented complex: {why}"
    if not is_essentially_surjective(res.aug):
        return False, "augmentation is not essentially surjective"
    for i in _interior_spots(res):
        if _relative_comparison_holds(res, i):
            continue
        if is_pi_trivial(res.augmented().homology(i + 1).module):
            continue
        return False, f"not relative 2-exact at P_{i}"
    return True, "ok"


def test_a_full_comparison_means_trivial_homology():
    held = failed = 0
    for ring in (ZZ, Z4, Z9, Z12):
        rng = random.Random(f"spots {ring}")
        for _ in range(12):
            res = resolve(_random_two_module_over(ring, rng), 4)
            for i in _interior_spots(res):
                trivial = is_pi_trivial(res.augmented().homology(i + 1).module)
                if _relative_comparison_holds(res, i):
                    held += 1
                    assert trivial, (ring, i)
                else:
                    failed += 1
            assert validate_resolution(res) == _parent_validate_resolution(res)
    # the homology criterion decides spots the comparison cannot
    assert held and failed


@pytest.mark.parametrize("ring", [ZZ, Z12], ids=str)
def test_a_stage_that_covers_a_nonzero_kernel_by_zero_fails(ring):
    m = TwoModule.discrete(FPModule.cyclic(ring, 2))
    res0 = resolve(m, 0)
    assert not res0.terminated

    def by_zero(n, prev_k):
        zero = TwoModule.zero(ring)
        return zero, OneMor.zero(zero, prev_k.K)

    res = _extend(res0, 2, by_zero)
    want = (False, "not relative 2-exact at P_0")
    assert validate_resolution(res) == want
    assert _parent_validate_resolution(res) == want


# ---------------------------------------------------------------------------
# find_null_homotopy returns module maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring", [ZZ, Z4, Z12], ids=str)
def test_every_null_homotopy_found_is_a_module_map(ring):
    """Seeded 1-morphisms between 2-modules whose modules carry relations:
    the solver raises on none, and each cell it finds is checked."""
    rng = random.Random(f"cells {ring}")
    verdicts = []
    for _ in range(300):
        x, y = _two_module(ring, rng), _two_module(ring, rng)
        w = _one_mor(ring, rng, x, y)
        cell = find_null_homotopy(w)
        if cell is not None:
            TwoMor(w, OneMor.zero(x, y), cell.s, check=True)
        verdicts.append(cell is not None)
    assert True in verdicts and False in verdicts


def test_no_null_homotopy_when_only_a_non_map_solves_the_identities():
    """X = [0 -> Z/2], Y = [Z --2--> Z/4], w = (0, x2): s = -1 solves both
    identities but is no map Z/2 -> Z, and the only map, 0, leaves
    0 = -2 mod 4 false."""
    z, z2, z4 = (FPModule.cyclic(ZZ, k) for k in (0, 2, 4))
    x = TwoModule.discrete(z2)
    y = TwoModule(z, z4, ModMor(z, z4, Matrix.from_rows(ZZ, [[2]])))
    w = OneMor(x, y, ModMor.zero(x.M1, y.M1),
               ModMor(z2, z4, Matrix.from_rows(ZZ, [[2]])))
    assert find_null_homotopy(w) is None
