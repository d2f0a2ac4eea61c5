import random
from collections import Counter

import pytest

from twohom import catalog
from twohom.exactlin import (DimensionMismatch, Matrix, RingSpec, ZZ, block,
                              hstack, vstack)
from twohom.fpmod import (
    FPModule,
    ModMor,
    compose as mcompose,
    direct_sum,
    equal_mor,
    invariant_factors,
    is_exact_at,
    kernel,
)
from twohom.twomod import (
    CompatibilityError,
    OneMor,
    TwoModule,
    TwoMor,
    biproduct,
    check_relative_two_exact,
    compose,
    is_essentially_surjective,
    is_extension,
    is_faithful,
    is_full,
    is_pi_trivial,
    null_homotopy,
    one_mor_equal,
    pi0,
    pi0_mor,
    pi1,
    pi1_mor,
    pi_profile,
    relative_cokernel,
    relative_kernel,
    rc_compatible,
    rc_factorize,
    rk_compatible,
    rk_factorize,
    vcomp,
    whisker_left,
    whisker_right,
    zero_null_homotopy,
)
from twohom.resolution import resolve


def m(rows):
    return Matrix.from_rows(ZZ, rows)


def one(src, dst, f0_rows, f1_rows=None):
    f0 = ModMor(src.M0, dst.M0, m(f0_rows) if f0_rows else
                Matrix.zeros(ZZ, dst.M0.gens, src.M0.gens))
    if f1_rows is None:
        f1 = ModMor.zero(src.M1, dst.M1)
    else:
        f1 = ModMor(src.M1, dst.M1, m(f1_rows))
    return OneMor(src, dst, f1, f0)


class TestPi:
    def test_catalog(self):
        for name, mod, expected in catalog.pi_catalog():
            assert pi_profile(mod) == expected, name

    def test_functorial_pi0(self):
        f = catalog.projection()
        p = pi0_mor(f)
        assert invariant_factors(p.src) == [0]
        assert invariant_factors(p.dst) == [2]

    def test_functorial_pi1(self):
        mul2 = catalog.mul_two()
        f = OneMor.identity(mul2)
        assert pi1_mor(f).src.gens == pi1(mul2).gens


class TestBiproduct:
    def test_unit(self):
        a = catalog.mul_two()
        b = biproduct(a, TwoModule.zero(ZZ))
        assert pi_profile(b.total) == pi_profile(a)

    def test_free_sum(self):
        b = biproduct(catalog.z_free(), catalog.z_free())
        assert pi_profile(b.total) == ([0, 0], [])

    def test_pi0_crt(self):
        b = biproduct(catalog.z_mod(2), catalog.z_mod(3))
        assert invariant_factors(pi0(b.total)) == [6]

    def test_equations(self):
        b = biproduct(catalog.mul_two(), catalog.z_mod(2))
        from twohom.twomod import one_mor_equal
        assert one_mor_equal(compose(b.inj1, b.proj1),
                             OneMor.identity(catalog.mul_two()))
        z = compose(b.inj1, b.proj2)
        assert z.f0.mat.is_zero() and z.f1.mat.is_zero()


class TestTwoMorAlgebra:
    def test_vcomp_identity(self):
        f = catalog.times_two()
        ident = TwoMor.identity(f)
        assert equal_mor(vcomp(ident, ident).s, ident.s)

    def test_whisker_of_zero_homotopy(self):
        f, phi, g = catalog.catalog_extension()
        w = whisker_right(phi, OneMor.identity(f.src))
        assert w.s.mat.is_zero()

    def test_interchange_random(self):
        rng = random.Random(6)
        zf = catalog.z_free()
        mul2 = catalog.mul_two()
        for _ in range(30):
            # alpha: F => F' between maps [0->Z] -> [Z -2-> Z]
            s1 = ModMor(zf.M0, mul2.M1, m([[rng.randint(-3, 3)]]))
            f_low = one(zf, mul2, [[rng.randint(-3, 3)]])
            f_high = OneMor(zf, mul2, f_low.f1,
                            f_low.f0 + mcompose(s1, mul2.d))
            alpha = TwoMor(f_low, f_high, s1)
            # beta: G => G' between maps [Z -2-> Z] -> [Z -2-> Z]
            s2 = ModMor(mul2.M0, mul2.M1, m([[rng.randint(-3, 3)]]))
            g_low = OneMor.identity(mul2)
            g_high = OneMor(mul2, mul2,
                            g_low.f1 + mcompose(mul2.d, s2),
                            g_low.f0 + mcompose(s2, mul2.d))
            beta = TwoMor(g_low, g_high, s2)
            lhs = vcomp(whisker_left(g_low, alpha), whisker_right(beta, f_high))
            rhs = vcomp(whisker_right(beta, f_low), whisker_left(g_high, alpha))
            assert equal_mor(lhs.s, rhs.s)


class TestFullness:
    def test_projection_profile(self):
        p = catalog.projection()
        assert is_essentially_surjective(p)
        assert not is_full(p)

    def test_identity_all_three(self):
        i = OneMor.identity(catalog.mul_two())
        assert is_full(i) and is_faithful(i) and is_essentially_surjective(i)

    def test_doubling(self):
        t = catalog.times_two()
        assert is_faithful(t)
        assert not is_essentially_surjective(t)


class TestRelativeKernel:
    def test_ordinary_kernel_of_doubling(self):
        t = catalog.times_two()
        zero = TwoModule.zero(ZZ)
        g = OneMor.zero(t.dst, zero)
        rk = relative_kernel(t, zero_null_homotopy(compose(t, g)), g)
        assert is_pi_trivial(rk.K)

    def test_kernel_into_contractible(self):
        zf = catalog.z_free()
        idm = catalog.identity_mod()
        f = one(zf, idm, [[1]])
        zero = TwoModule.zero(ZZ)
        g = OneMor.zero(idm, zero)
        rk = relative_kernel(f, zero_null_homotopy(compose(f, g)), g)
        assert pi_profile(rk.K) == ([0], [])

    def test_kernel_of_identity_trivial(self):
        zf = catalog.z_free()
        zero = TwoModule.zero(ZZ)
        g = OneMor.zero(zf, zero)
        rk = relative_kernel(OneMor.identity(zf),
                             zero_null_homotopy(compose(OneMor.identity(zf), g)), g)
        assert is_pi_trivial(rk.K)

    def test_eps_compatible_with_phi(self):
        f, phi, g = catalog.catalog_extension()
        rk = relative_kernel(f, phi, g)
        assert rk_compatible(rk, rk.e, rk.eps)

    def test_factorize_self(self):
        f, phi, g = catalog.catalog_extension()
        rk = relative_kernel(f, phi, g)
        e2, psi2 = rk_factorize(rk, rk.e, rk.eps)
        from twohom.twomod import one_mor_equal
        assert one_mor_equal(compose(e2, rk.e), rk.e)

    def test_factorize_zero(self):
        f, phi, g = catalog.catalog_extension()
        rk = relative_kernel(f, phi, g)
        zsrc = TwoModule.zero(ZZ)
        e = OneMor.zero(zsrc, f.src)
        psi = zero_null_homotopy(compose(e, f))
        ep, _ = rk_factorize(rk, e, psi)
        assert ep.f0.mat.is_zero()

    def test_incompatibility_rejected(self):
        # a cell that is not even a homotopy of the composite
        f, phi, g = catalog.catalog_extension()
        rk = relative_kernel(f, phi, g)
        bad = zero_null_homotopy(OneMor.zero(f.src, f.dst))
        with pytest.raises(CompatibilityError):
            rk_factorize(rk, OneMor.identity(f.src), bad)


class TestRelativeCokernel:
    def test_cokernel_of_doubling(self):
        t = catalog.times_two()
        zero = TwoModule.zero(ZZ)
        f = OneMor.zero(zero, t.src)
        rc = relative_cokernel(f, zero_null_homotopy(compose(f, t)), t)
        assert pi_profile(rc.Q) == ([2], [])

    def test_cokernel_of_identity_trivial(self):
        zf = catalog.z_free()
        zero = TwoModule.zero(ZZ)
        f = OneMor.zero(zero, zf)
        rc = relative_cokernel(f, zero_null_homotopy(compose(f, OneMor.identity(zf))),
                               OneMor.identity(zf))
        assert is_pi_trivial(rc.Q)

    def test_catalog_extension_cokernel_trivial(self):
        f, phi, g = catalog.catalog_extension()
        rc = relative_cokernel(f, phi, g)
        assert is_pi_trivial(rc.Q)

    def test_pi_compatible(self):
        f, phi, g = catalog.catalog_extension()
        rc = relative_cokernel(f, phi, g)
        assert rc_compatible(rc, rc.p, rc.pi)

    def test_differential_annihilates_relations(self):
        f, phi, g = catalog.catalog_extension()
        rc = relative_cokernel(f, phi, g)
        # constructor validates; double-check through the public predicate
        from twohom.fpmod import is_valid_mor
        assert is_valid_mor(rc.Q.d)

    def test_factorize_self(self):
        f, phi, g = catalog.catalog_extension()
        rc = relative_cokernel(f, phi, g)
        e2, psi2 = rc_factorize(rc, rc.p, rc.pi)
        from twohom.twomod import one_mor_equal
        assert one_mor_equal(compose(rc.p, e2), rc.p)

    @pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
    def test_p_and_pi_are_made_on_first_read(self, ring, monkeypatch):
        """No Matrix of p or pi exists until one of them is read; the first
        reads give the blocks (0; I) and (-I; 0), and later reads the same
        objects."""
        m1, m0 = FPModule.free(ring, 1), FPModule.free(ring, 2)
        c = TwoModule(m1, m0, ModMor(m1, m0, Matrix.from_rows(ring, [[2], [3]])))
        g = OneMor.identity(c)
        f = OneMor.zero(TwoModule.zero(ring), c)
        phi = zero_null_homotopy(compose(f, g))
        made = []     # keeps every Matrix alive, so identity comparison holds
        real = Matrix.__init__

        def init(self, *args, **kwargs):
            made.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Matrix, "__init__", init)
        rc = relative_cokernel(f, phi, g)
        built = len(made)
        p, pi = rc.p, rc.pi
        for mat in (p.f1.mat, p.f0.mat, pi.s.mat):
            assert not any(mat is m for m in made[:built])
            assert any(mat is m for m in made[built:])
        assert rc.p is p and rc.pi is pi
        monkeypatch.undo()
        assert p.f1.mat == vstack([Matrix.zeros(ring, 2, 1), Matrix.identity(ring, 1)])
        assert p.f0.mat == Matrix.identity(ring, 2)
        assert pi.s.mat == vstack([-Matrix.identity(ring, 2),
                                   Matrix.zeros(ring, 1, 2)])
        assert rc_compatible(rc, p, pi)


class TestExactness:
    def test_catalog_middle(self):
        f, phi, g = catalog.catalog_extension()
        assert check_relative_two_exact(f, phi, g)

    def test_nonzero_sandwich_fails(self):
        a = catalog.z_mod(2)
        zero = TwoModule.zero(ZZ)
        f = OneMor.zero(zero, a)
        g = OneMor.zero(a, zero)
        assert not check_relative_two_exact(f, zero_null_homotopy(compose(f, g)), g)

    def test_zero_sandwich_passes(self):
        zero = TwoModule.zero(ZZ)
        z = OneMor.zero(zero, zero)
        assert check_relative_two_exact(z, zero_null_homotopy(compose(z, z)), z)


class TestExtension:
    def test_catalog(self):
        f, phi, g = catalog.catalog_extension()
        assert is_extension(f, phi, g)

    def test_catalog_extension_shares_its_target(self):
        # one Z/2 object: the legs of g land on the modules of g.dst itself
        f, phi, g = catalog.catalog_extension()
        assert g.f0.dst is g.dst.M0 and g.f1.dst is g.dst.M1
        assert g.src is f.dst

    def test_identity_extension(self):
        a = catalog.z_free()
        zero = TwoModule.zero(ZZ)
        ida = OneMor.identity(a)
        g = OneMor.zero(a, zero)
        assert is_extension(ida, zero_null_homotopy(compose(ida, g)), g)

    def test_zero_map_not_extension(self):
        a = catalog.z_free()
        f = OneMor.zero(a, a)
        g = OneMor.zero(a, a)
        assert not is_extension(f, zero_null_homotopy(compose(f, g)), g)

    def test_six_term_consequence(self):
        f, phi, g = catalog.catalog_extension()
        assert is_extension(f, phi, g)
        maps = [pi1_mor(f), pi1_mor(g)]
        # pi1 legs are between trivial modules here; the pi0 part is the
        # classical exact sequence Z --2--> Z --> Z/2 --> 0
        p0f, p0g = pi0_mor(f), pi0_mor(g)
        assert is_exact_at(p0f, p0g)
        from twohom.fpmod import is_epi
        assert is_epi(p0g)


def _random_two_module(rng):
    g0 = rng.randint(1, 2)
    rc = rng.randint(0, 2)
    rel = Matrix(ZZ, g0, rc, [rng.randint(-4, 4) for _ in range(g0 * rc)])
    m0 = FPModule(ZZ, g0, rel)
    m1 = FPModule.free(ZZ, rng.randint(0, 2))
    d = ModMor(m1, m0, Matrix(ZZ, g0, m1.gens,
                              [rng.randint(-3, 3) for _ in range(g0 * m1.gens)]),
               check=False)
    return TwoModule(m1, m0, d, check=False)


class TestFiberSequence:
    def test_pi_exactness_of_kernel_fiber(self):
        rng = random.Random(9)
        for _ in range(30):
            src = TwoModule.free(ZZ, rng.randint(1, 2))
            dst = _random_two_module(rng)
            f0 = ModMor(src.M0, dst.M0,
                        Matrix(ZZ, dst.M0.gens, src.M0.gens,
                               [rng.randint(-4, 4)
                                for _ in range(dst.M0.gens * src.M0.gens)]),
                        check=False)
            f = OneMor(src, dst, ModMor.zero(src.M1, dst.M1), f0)
            zero = TwoModule.zero(ZZ)
            g = OneMor.zero(dst, zero)
            rk = relative_kernel(f, zero_null_homotopy(compose(f, g)), g)
            # connecting map pi1(dst) -> pi0(K): b |-> class of (0, b)
            from twohom.twomod import _pi1_data
            from twohom.fpmod import factor_through, cokernel as mcok
            kb, incl_b = _pi1_data(dst)
            top = [[0] * kb.gens for _ in range(src.M0.gens)]
            lift = ModMor(kb, rk.incl.dst,
                          Matrix(ZZ, rk.incl.dst.gens, kb.gens,
                                 [x for row in (top + incl_b.mat.tolists())
                                  for x in row]),
                          check=False)
            conn_to_k = factor_through(rk.incl, lift)
            delta = mcompose(conn_to_k, mcok(rk.K.d)[1])
            # 0 -> pi1 K -> pi1 A -> pi1 B -> pi0 K -> pi0 A -> pi0 B exact
            assert is_exact_at(pi1_mor(f), delta)
            assert is_exact_at(delta, pi0_mor(rk.e))
            assert is_exact_at(pi0_mor(rk.e), pi0_mor(f))
            # faithfulness end: pi1(K) -> pi1(A) is mono
            from twohom.fpmod import is_mono
            assert is_mono(pi1_mor(rk.e))


def test_a_two_module_equals_itself_without_comparing_matrices(monkeypatch):
    m = catalog.mul_two()

    def boom(self, other):
        raise AssertionError("matrices compared")

    monkeypatch.setattr(Matrix, "__eq__", boom)
    assert m == m
    assert m.M0 == m.M0
    with pytest.raises(AssertionError):
        m == catalog.mul_two()


# ---------------------------------------------------------------------------
# relative (co)kernels build only their ambient modules
# ---------------------------------------------------------------------------

Z6 = RingSpec.Zmod(6)
Z12 = RingSpec.Zmod(12)


def _ints(rng, k, bound=4):
    return [rng.randint(-bound, bound) for _ in range(k)]


def _random_module(ring, rng):
    gens, rels = rng.randint(1, 3), rng.randint(0, 2)
    return FPModule(ring, gens, Matrix(ring, gens, rels, _ints(rng, gens * rels)))


def _random_two_module_over(ring, rng):
    """[free --d--> presented]: every d is a morphism."""
    m0 = _random_module(ring, rng)
    m1 = FPModule.free(ring, rng.randint(0, 2))
    d = Matrix(ring, m0.gens, m1.gens, _ints(rng, m0.gens * m1.gens, 3))
    return TwoModule(m1, m0, ModMor(m1, m0, d, check=False), check=False)


def _extension_over(ring):
    """The catalog extension's recipe over any ring:
    [0->R] --*2--> [0->R] --proj--> [0->R/2], with the zero cell."""
    a, b = TwoModule.free(ring, 1), TwoModule.free(ring, 1)
    c = TwoModule.discrete(FPModule.cyclic(ring, 2))
    f = OneMor(a, b, ModMor.zero(a.M1, b.M1),
               ModMor(a.M0, b.M0, Matrix.from_rows(ring, [[2]])))
    g = OneMor(b, c, ModMor.zero(b.M1, c.M1),
               ModMor(b.M0, c.M0, Matrix.from_rows(ring, [[1]])))
    return f, zero_null_homotopy(compose(f, g)), g


def _triples(ring):
    """The catalog extension (over Z/12, the same recipe), then every stage
    triple (F_n, cell_n, F_{n-1}) of seeded resolutions, each with the
    relative kernel the resolution stored for it (None for the extension)."""
    ext = catalog.catalog_extension() if ring == ZZ else _extension_over(ring)
    out = [(ext, None)]
    rng = random.Random(f"stages {ring}")
    for _ in range(6):
        res = resolve(_random_two_module_over(ring, rng), 2)
        out += [((res.f(n), res.cell(n), res.f(n - 1)), res.kernels[n])
                for n in range(res.depth + 1)]
    return out


def _old_relative_kernel(F, phi, G):
    """(incl, to_a, to_b, K.M0.rel) from two full biproducts, to_a and
    to_b as the inclusion followed by the biproduct projections."""
    A, B, C = F.src, F.dst, G.dst
    dom, _, _, dom_pa, dom_pb = direct_sum(A.M0, B.M1)
    theta = ModMor(dom, direct_sum(B.M0, C.M1)[0],
                   block([[F.f0.mat, B.d.mat], [-phi.s.mat, G.f1.mat]]),
                   check=False)
    kmod, incl = kernel(theta)
    return (incl.mat, mcompose(incl, dom_pa).mat, mcompose(incl, dom_pb).mat,
            kmod.rel)


def _old_relative_cokernel_rel(F, phi, G):
    """Q.M1.rel: the biproduct's relations, then the columns of N."""
    B, C = F.dst, G.dst
    return hstack([direct_sum(B.M0, C.M1)[0].rel,
                   vstack([F.f0.mat, phi.s.mat]),
                   vstack([B.d.mat, -G.f1.mat])])


@pytest.mark.parametrize("ring", [ZZ, Z12], ids=str)
def test_relative_kernel_and_cokernel_match_the_biproduct_construction(ring):
    for (F, phi, G), stored in _triples(ring):
        old = [x.tolists() for x in _old_relative_kernel(F, phi, G)]
        for rk in filter(None, (relative_kernel(F, phi, G), stored)):
            new = (rk.incl.mat, rk.to_a.mat, rk.to_b.mat, rk.K.M0.rel)
            assert [x.tolists() for x in new] == old
            assert (rk.to_a.src, rk.to_a.dst) == (rk.K.M0, F.src.M0)
            assert (rk.to_b.src, rk.to_b.dst) == (rk.K.M0, F.dst.M1)
        rc = relative_cokernel(F, phi, G)
        assert rc.Q.M1.rel.tolists() == _old_relative_cokernel_rel(F, phi, G).tolists()


@pytest.mark.parametrize("ring", [ZZ, Z12], ids=str)
def test_relative_kernel_and_cokernel_build_no_biproduct(ring, monkeypatch):
    from twohom import complex2, fpmod, twomod

    triples = [t for t, _ in _triples(ring)]

    def boom(*args):
        raise AssertionError("direct_sum called")

    for mod in (fpmod, twomod, complex2):
        monkeypatch.setattr(mod, "direct_sum", boom, raising=False)
    for F, phi, G in triples:
        relative_kernel(F, phi, G)
        relative_cokernel(F, phi, G)
    complex2.total(catalog.complex_mul2())


# ---------------------------------------------------------------------------
# zero tests read the target's relations
# ---------------------------------------------------------------------------

def _random_map(ring, rng, src, dst):
    """A map from the free module src that is zero, a nonzero matrix that
    is zero modulo dst's relations, or random."""
    kind = rng.randrange(3)
    if kind == 1 and dst.rel.cols:
        mat = dst.rel @ Matrix(ring, dst.rel.cols, src.gens,
                               _ints(rng, dst.rel.cols * src.gens, 3))
    elif kind == 2:
        mat = Matrix(ring, dst.gens, src.gens, _ints(rng, dst.gens * src.gens, 3))
    else:
        mat = Matrix.zeros(ring, dst.gens, src.gens)
    return ModMor(src, dst, mat, check=False)


def _random_cell(ring, rng):
    """A 2-morphism whose target 1-morphism has random components (each
    zero, zero modulo relations, or random) into a 2-module whose modules
    both carry relations."""
    m1 = FPModule.free(ring, rng.randint(1, 2))
    m0 = FPModule.free(ring, rng.randint(1, 2))
    src = TwoModule(m1, m0, ModMor.zero(m1, m0))
    n1, n0 = _random_module(ring, rng), _random_module(ring, rng)
    dst = TwoModule(n1, n0, ModMor.zero(n1, n0))
    to = OneMor(src, dst, _random_map(ring, rng, m1, n1),
                _random_map(ring, rng, m0, n0), check=False)
    return TwoMor(to, to, ModMor.zero(m0, n1), check=False)


@pytest.mark.parametrize("ring", [ZZ, Z6], ids=str)
def test_is_null_agrees_with_comparing_to_the_zero_one_morphism(ring, monkeypatch):
    rng = random.Random(f"is_null {ring}")
    cells = [_random_cell(ring, rng) for _ in range(200)]
    verdicts = [one_mor_equal(a.to, OneMor.zero(a.frm.src, a.frm.dst))
                for a in cells]
    # both verdicts occur, and some null cells have nonzero matrices
    assert True in verdicts and False in verdicts
    assert any(v and not (a.to.f0.mat.is_zero() and a.to.f1.mat.is_zero())
               for a, v in zip(cells, verdicts))

    def boom(*args):
        raise AssertionError("OneMor.zero built")

    monkeypatch.setattr(OneMor, "zero", staticmethod(boom))
    assert [a.is_null() for a in cells] == verdicts


# ---------------------------------------------------------------------------
# composites and zero 1-morphisms make their matrices on first read
# ---------------------------------------------------------------------------

def _scalar(x, k):
    """k times the identity of x: a 1-morphism on any 2-module."""
    return OneMor(x, x, ModMor(x.M1, x.M1, Matrix.identity(x.ring, x.M1.gens)
                               .scale(k), check=False),
                  ModMor(x.M0, x.M0, Matrix.identity(x.ring, x.M0.gens)
                         .scale(k), check=False), check=False)


def _composable(ring):
    """Seeded composable triples (f, g, h): stages of resolutions, scalars on
    2-modules (some with no generators in M1) and both mixed."""
    rng = random.Random(f"composable {ring}")
    out = []
    for _ in range(6):
        x = _random_two_module_over(ring, rng)
        res = resolve(x, 2)
        out.append((res.f(1), res.f(0), res.f(-1)))
        k = [rng.randint(-3, 3) for _ in range(3)]
        out.append((res.f(0), _scalar(x, k[0]), _scalar(x, k[1])))
        out.append(tuple(_scalar(x, j) for j in k))
    assert any(f.src.M1.gens == 0 for f, _, _ in out)
    assert any(f.src.M1.gens > 0 for f, _, _ in out)
    return out


def _eager(f, g):
    return OneMor(f.src, g.dst, mcompose(f.f1, g.f1), mcompose(f.f0, g.f0),
                  check=False)


def _same(a, b):
    """The same ModMor or OneMor, endpoints and matrices."""
    if isinstance(a, OneMor):
        return (a.src == b.src and a.dst == b.dst and _same(a.f1, b.f1)
                and _same(a.f0, b.f0))
    return (a.src == b.src and a.dst == b.dst and a.mat.ring == b.mat.ring
            and a.mat.shape == b.mat.shape and a.mat.tolists() == b.mat.tolists())


@pytest.mark.parametrize("ring", [ZZ, Z12], ids=str)
def test_a_composite_equals_the_eager_products_whichever_is_read_first(ring):
    for f, g, h in _composable(ring):
        f0_first, f1_first = compose(f, g), compose(f, g)
        assert _same(f0_first.f0, mcompose(f.f0, g.f0))
        assert _same(f0_first.f1, mcompose(f.f1, g.f1))
        assert _same(f1_first.f1, mcompose(f.f1, g.f1))
        assert _same(f1_first.f0, mcompose(f.f0, g.f0))
        assert _same(compose(compose(f, g), h), compose(f, compose(g, h)))
        assert _same(compose(compose(f, g), h), _eager(_eager(f, g), h))


@pytest.mark.parametrize("ring", [ZZ, Z12], ids=str)
def test_a_zero_one_morphism_has_zero_components_of_the_right_shapes(ring):
    for f, g, _ in _composable(ring):
        z = OneMor.zero(f.src, g.dst)
        assert (z.src, z.dst) == (f.src, g.dst)
        for part, a, b in ((z.f1, f.src.M1, g.dst.M1), (z.f0, f.src.M0, g.dst.M0)):
            assert (part.src, part.dst) == (a, b)
            assert part.mat.shape == (b.gens, a.gens) and part.mat.is_zero()
            assert part.mat.ring == ring


@pytest.mark.parametrize("ring", [ZZ, Z12], ids=str)
def test_lazy_and_eager_one_morphisms_behave_the_same(ring):
    rng = random.Random(f"lazy ops {ring}")
    for f, g, h in _composable(ring):
        lazy, eager = compose(f, g), _eager(f, g)
        zero = OneMor.zero(f.src, g.dst)
        for x, y in ((lazy, eager), (eager, lazy), (lazy, lazy)):
            assert _same(x + y, _eager(f, g) + _eager(f, g))
            assert _same(x - y, zero)
            assert _same(-x, -_eager(f, g))
            assert one_mor_equal(x, y) and one_mor_equal(x - y, zero)
        assert _same(lazy + zero, eager) and _same(zero + zero, zero)
        assert one_mor_equal(zero, _eager(f, g) - eager)
        src, dst = lazy.src, lazy.dst
        s = ModMor(src.M0, dst.M1, Matrix(ring, dst.M1.gens, src.M0.gens,
                                          _ints(rng, dst.M1.gens * src.M0.gens)),
                   check=False)
        for a, b in ((TwoMor(lazy, lazy, s, check=False),
                      TwoMor(eager, eager, s, check=False)),
                     (TwoMor(zero, lazy, s, check=False),
                      TwoMor(_eager(zero, OneMor.identity(dst)), eager, s,
                             check=False))):
            wl, wl_eager = whisker_left(h, a), whisker_left(h, b)
            assert _same(wl.s, wl_eager.s)
            assert _same(wl.frm, wl_eager.frm) and _same(wl.to, wl_eager.to)
        t = TwoMor(compose(g, h), compose(g, h), ModMor.zero(g.src.M0, h.dst.M1),
                   check=False)
        wr, wr_eager = whisker_right(t, f), whisker_right(
            TwoMor(_eager(g, h), _eager(g, h), t.s, check=False), f)
        assert _same(wr.s, wr_eager.s)
        assert _same(wr.frm, wr_eager.frm) and _same(wr.to, wr_eager.to)


def test_a_non_composable_pair_raises_at_the_call():
    ext_f, _, ext_g = catalog.catalog_extension()
    with pytest.raises(DimensionMismatch):
        compose(ext_g, ext_f)
    f, g, _ = _composable(ZZ)[0]
    with pytest.raises(DimensionMismatch):
        compose(g, f)


@pytest.mark.parametrize("ring", [ZZ, Z12], ids=str)
def test_composites_and_zero_maps_make_no_matrix_until_read(ring, monkeypatch):
    made = Counter()
    init, matmul = Matrix.__init__, Matrix.__matmul__

    def counting_init(self, *args, **kwargs):
        made["Matrix"] += 1
        init(self, *args, **kwargs)

    def counting_matmul(self, other):
        made["product"] += 1
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    for f, g, h in _composable(ring):
        s = ModMor.zero(f.src.M0, g.dst.M1)
        a = TwoMor.identity(g)
        made.clear()
        fg = compose(f, g)
        z = OneMor.zero(f.src, h.dst)
        null_homotopy(compose(f, g), s, check=False)
        assert made == Counter()
        # whisker_right multiplies its own cell only, not its 1-morphisms
        whisker_right(a, f)
        assert made == Counter(Matrix=1, product=1)
        made.clear()
        f0 = fg.f0
        assert made == Counter(Matrix=2, product=2)
        assert fg.f0 is f0 and fg.f1 is fg.f1
        z1 = z.f1
        assert made == Counter(Matrix=4, product=2)
        assert z.f1 is z1 and z.f0 is z.f0
        assert made == Counter(Matrix=4, product=2)
