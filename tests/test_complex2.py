import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from twohom import catalog, exactlin
from twohom.cli import load
from twohom.exactlin import Matrix, RingSpec, ZZ, kernel_basis
from twohom.fpmod import FPModule, InvalidMorphism, ModMor, invariant_factors
from twohom.twomod import (
    OneMor,
    TwoModule,
    TwoMor,
    compose as tcompose,
    is_equivalence,
    is_pi_trivial,
    one_mor_equal,
    pi_profile,
    relative_kernel,
    rk_factorize,
    zero_null_homotopy,
)
from twohom.complex2 import (
    ChainHomotopy,
    ChainMor,
    Complex2,
    compose_chain,
    homotopy_equiv_witness,
    hyper,
    induced,
    total,
    validate_chain_homotopy,
    validate_chain_mor,
    validate_complex,
    window_profile,
)
from twohom.derived import FunctorSpec, apply
from twohom.resolution import _extend, resolve

ROOT = Path(__file__).resolve().parents[1]


def random_strict_free_complex(rng, length=3):
    ranks = [rng.randint(0, 3) for _ in range(length + 1)]
    mods = [TwoModule.free(ZZ, r) for r in ranks]
    diffs = []
    prev = None
    for n in range(1, length + 1):
        if prev is None:
            mat = Matrix(ZZ, ranks[0], ranks[1],
                         [rng.randint(-3, 3) for _ in range(ranks[0] * ranks[1])])
        else:
            basis = kernel_basis(prev)
            coef = Matrix(ZZ, basis.cols, ranks[n],
                          [rng.randint(-2, 2) for _ in range(basis.cols * ranks[n])])
            mat = basis @ coef if basis.cols else Matrix.zeros(ZZ, ranks[n - 1],
                                                               ranks[n])
        diffs.append(OneMor(mods[n], mods[n - 1],
                            ModMor.zero(mods[n].M1, mods[n - 1].M1),
                            ModMor(mods[n].M0, mods[n - 1].M0, mat, check=False),
                            check=False))
        prev = mat
    return Complex2(ZZ, mods, diffs)


def random_two_module(rng, ring):
    """[R^a --d--> M0] with a free M1 of rank 1-2 and an M0 with 1-3
    generators and 0-2 relations, so pi0 may have torsion and pi1 be
    nonzero."""
    a, g, k = rng.randint(1, 2), rng.randint(1, 3), rng.randint(0, 2)

    def mat(rows, cols):
        return Matrix(ring, rows, cols,
                      [rng.randint(-4, 4) for _ in range(rows * cols)])

    m1, m0 = FPModule.free(ring, a), FPModule(ring, g, mat(g, k))
    return TwoModule(m1, m0, ModMor(m1, m0, mat(g, a)))


class TestValidation:
    def test_zero_complex(self):
        c = Complex2(ZZ, [TwoModule.zero(ZZ)], [])
        ok, _ = validate_complex(c)
        assert ok

    def test_strict_catalog(self):
        ok, _ = validate_complex(catalog.complex_mul2())
        assert ok

    def test_broken_square_reported(self):
        zf = catalog.z_free()
        t = catalog.times_two()
        c = Complex2(ZZ, [zf, zf, zf], [t, OneMor.identity(zf)])
        ok, why = validate_complex(c)
        assert not ok
        assert "alpha[2]" in why

    def test_nonstrict_cell_validates(self):
        # [Z->0] resolution complex: the zero composite carries a nonzero cell
        from twohom.resolution import resolve
        res = resolve(catalog.shift_mod(), 2)
        ok, why = validate_complex(res.augmented())
        assert ok, why
        assert not res.augmented().alpha_s(2).mat.is_zero()


class TestHomology:
    def test_catalog_values(self):
        for c, n, expected in catalog.homology_catalog():
            assert c.homology(n).pi == expected

    def test_zero_differentials_preserve_pi(self):
        zm = catalog.zero_map_mod()
        c = Complex2(ZZ, [zm], [])
        assert c.homology(0).pi == pi_profile(zm)

    def test_right_edge_completion(self):
        c = catalog.complex_to_zero()
        assert c.homology(0).pi == ([], [0])
        assert c.homology(1).pi == ([0], [])

    def test_beyond_length_trivial(self):
        c = catalog.complex_mul2()
        assert c.homology(5).pi == ([], [])


class TestWindowLaw:
    def test_catalog(self):
        for c, n, _ in catalog.homology_catalog():
            assert c.homology(n).pi == window_profile(c, n)

    def test_random_strict_free(self):
        rng = random.Random(13)
        for _ in range(100):
            c = random_strict_free_complex(rng)
            for i in range(c.length + 1):
                assert c.homology(i).pi == window_profile(c, i)

    def test_total_square_zero_with_cells(self):
        # a complex with nonzero alpha built from a resolution of [Z -> 0]
        from twohom.resolution import resolve
        res = resolve(catalog.shift_mod(), 2)
        tc = total(res.augmented())
        for k in range(1, len(tc.diffs)):
            from twohom.fpmod import compose as mcompose
            assert mcompose(tc.d(k + 1), tc.d(k)).is_zero_mor()

    def test_contractible_square_has_vanishing_hyper(self):
        # [Z -id-> Z] as a one-module complex: all hyper vanish
        c = Complex2(ZZ, [catalog.identity_mod()], [])
        tc = total(c)
        for k in range(3):
            assert invariant_factors(hyper(tc, k)) == []

    def test_nonzero_alpha_complex_with_vanishing_hyper(self):
        # the augmented [Z -> 0] resolution: zero differentials glued by a
        # nonzero cell; exactness makes every hyper group vanish
        from twohom.resolution import resolve
        aug = resolve(catalog.shift_mod(), 2).augmented()
        assert not aug.alpha_s(2).mat.is_zero()
        tc = total(aug)
        for k in range(aug.length + 2):
            assert invariant_factors(hyper(tc, k)) == []

    @pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(4), RingSpec.Zmod(12)],
                             ids=str)
    def test_augmented_resolutions_with_torsion_and_cells(self, ring):
        """The window law on non-discrete 2-modules with torsion and nonzero
        cells: augmented resolutions of random 2-modules, and their images
        under - (x) Z/k."""
        rng = random.Random(f"window-{ring}")
        cells = 0
        for _ in range(12):
            aug = resolve(random_two_module(rng, ring), 3).augmented()
            zk = FPModule.cyclic(ring, rng.choice([2, 3, 4]))
            for c in (aug, apply(FunctorSpec.tensor_with(zk), aug)):
                cells += not c.alpha_s(2).mat.is_zero()
                for i in range(c.length + 1):
                    assert c.homology(i).pi == window_profile(c, i), i
        assert cells > 0


def _pi_shift_complexes():
    """Random strict complexes, the catalog's and the workspaces'
    complexes, and augmented resolutions at depths 1-4 over Z and Z/12,
    with nonzero cells and often truncated, and their images under
    - (x) Z/k; with the count of each kind of augmented resolution."""
    rng = random.Random(31)
    out = [random_strict_free_complex(rng) for _ in range(20)]
    out += [c for c, _, _ in catalog.homology_catalog()]
    for path, names in (("catalog.json", ("C1", "C3")),
                        ("tests/cli_small_workspace.json", ("K0", "K1", "K2"))):
        ws = load(str(ROOT / path))
        out += [ws.get(name) for name in names]
    kinds = {"cells": 0, "truncated": 0}
    for ring in (ZZ, RingSpec.Zmod(12)):
        rng = random.Random(f"pi shift {ring}")
        for depth in (1, 2, 3, 4):
            for _ in range(3):
                res = resolve(random_two_module(rng, ring), depth)
                aug = res.augmented()
                kinds["cells"] += not aug.alpha_s(2).mat.is_zero()
                kinds["truncated"] += not res.terminated
                zk = FPModule.cyclic(ring, rng.choice([2, 3, 4]))
                out += [aug, apply(FunctorSpec.tensor_with(zk), aug)]
    return out, kinds


class TestPiShift:
    """pi_1 of H_n is read as pi_0 of H_{n+1}.  These tests keep the pi_1
    kernel of a homology 2-module under test, which the window law no
    longer reaches."""

    def test_pi_is_the_pi_profile_of_the_module(self):
        complexes, kinds = _pi_shift_complexes()
        assert kinds["cells"] > 0 and kinds["truncated"] > 0
        for c in complexes:
            for n in range(-1, c.length + 3):
                h = c.homology(n)
                assert h.pi == pi_profile(h.module), n

    @staticmethod
    def _incoherent_at_3():
        """A_k = [Z --0--> Z] for k = 0..4, L_1 = L_3 = (1, 0), L_2 = L_4 =
        0 and alpha_3 = 1, so alpha_3 after L_1 is 1, not 0."""
        z = FPModule.free(ZZ, 1)
        a = TwoModule(z, z, ModMor.zero(z, z))
        one, zero = ModMor.identity(z), ModMor.zero(z, z)
        ell = OneMor(a, a, one, zero)
        return Complex2(ZZ, [a] * 5, [ell, OneMor.zero(a, a), ell,
                                      OneMor.zero(a, a)], {3: one})

    def test_pi_raises_what_the_next_homology_raises(self):
        c = self._incoherent_at_3()
        assert validate_complex(c) == (False, "coherence at n=3")
        assert c.homology(0).module is not None
        with pytest.raises(InvalidMorphism) as want:
            self._incoherent_at_3().homology(1)
        with pytest.raises(InvalidMorphism) as got:
            c.homology(0).pi
        assert str(got.value) == str(want.value)


def derive_input(rng, ring, g=8):
    """A 2-module drawn as the derive workloads of ``bench/`` draw theirs:
    M0 with g generators and about g/2 relations, M1 free of rank about
    g/2, entries in [-4, 4]."""
    r, h = g // 2 + rng.randint(-1, 1), g // 2 + rng.randint(-1, 1)

    def mat(rows, cols):
        return Matrix(ring, rows, cols,
                      [rng.randint(-4, 4) for _ in range(rows * cols)])

    m1, m0 = FPModule.free(ring, h), FPModule(ring, g, mat(g, r))
    return TwoModule(m1, m0, ModMor(m1, m0, mat(g, h)))


def stage_one_inputs(ring, count):
    """Seeded derive inputs whose resolutions stop at stage 1: stage
    kernel 1 is pi-trivial, and stage kernel 0 is not."""
    rng = random.Random(f"stage one {ring}")
    out = []
    while len(out) < count:
        m = derive_input(rng, ring)
        k0, k1 = resolve(m, 1).kernels
        if is_pi_trivial(k1.K) and not is_pi_trivial(k0.K):
            out.append(m)
    return out


def is_zero_spot(c, n):
    """Ker(L_n, alpha_n) and A_{n+1}.M0 have no generators, so H_n is the
    zero 2-module and no elimination runs for it."""
    k = c.homology(n).kernel.K
    return not (k.M0.gens or k.M1.gens or c.module(n + 1).M0.gens)


def _zero_spot_complexes(ring):
    """Resolutions that stop at stage 1, before and after - (x) Z/k; strict
    complexes padded with zero modules; and (complex, n) for the near
    misses, where H_n != 0 although A_n = 0, with A_{n+1}.M0 != 0 or A_{n-1}.M1
    != 0, or although A_n.M0 = 0 and the ambient of Ker(L_n, alpha_n) is
    zero, with K.M1 = A_n.M1 != 0."""
    out = []
    for m, k in zip(stage_one_inputs(ring, 2), (2, 3)):
        res = resolve(m, 3)
        t = FunctorSpec.tensor_with(FPModule.cyclic(ring, k))
        for c in (res.complex(), res.augmented()):
            out += [c, apply(t, c)]
    zero, free = TwoModule.zero(ring), TwoModule.free(ring, 1)
    mul2 = OneMor(free, free, ModMor.zero(free.M1, free.M1),
                  ModMor(free.M0, free.M0, Matrix.from_rows(ring, [[2]])))
    out.append(Complex2(
        ring, [zero, free, free, zero, zero],
        [OneMor.zero(free, zero), mul2, OneMor.zero(zero, free),
         OneMor.zero(zero, zero)]))
    r = FPModule.free(ring, 1)
    shift = TwoModule(r, FPModule.zero(ring), ModMor.zero(r, FPModule.zero(ring)))
    near = [(Complex2(ring, [zero, free], [OneMor.zero(free, zero)]), 0),
            (Complex2(ring, [shift, zero], [OneMor.zero(zero, shift)]), 1),
            (Complex2(ring, [shift], []), 0)]
    return out, near


class TestZeroSpots:
    """At a zero spot the relative kernel, homology and homology maps
    return at once, with no elimination; the Tot window law, which shares
    no code with those returns, pins their answers."""

    @pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
    def test_homology_is_the_window_at_every_degree(self, ring):
        complexes, near = _zero_spot_complexes(ring)
        spots = 0
        for c in complexes + [c for c, _ in near]:
            for n in range(-1, c.length + 3):
                h = c.homology(n)
                assert h.pi == pi_profile(h.module) == window_profile(c, n), n
                spots += is_zero_spot(c, n)
        assert spots > 0
        for c, n in near:
            assert c.module(n).M0.gens == 0
            assert not is_zero_spot(c, n)
            assert pi_profile(c.homology(n).module) != ([], [])

    @pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
    def test_relative_kernel_of_a_zero_ambient(self, ring):
        """A = [R/4 --> 0], whose M0 has no generators but two (empty)
        relations, B = [0 -> R/3] and C = [0 -> R/6]: A.M0 (+) B.M1 is
        zero."""
        a = TwoModule(FPModule.cyclic(ring, 4),
                      FPModule(ring, 0, Matrix.zeros(ring, 0, 2)),
                      ModMor.zero(FPModule.cyclic(ring, 4),
                                  FPModule(ring, 0, Matrix.zeros(ring, 0, 2))))
        b = TwoModule.discrete(FPModule.cyclic(ring, 3))
        c = TwoModule.discrete(FPModule.cyclic(ring, 6))
        f = OneMor(a, b, ModMor.zero(a.M1, b.M1), ModMor.zero(a.M0, b.M0))
        g = OneMor(b, c, ModMor.zero(b.M1, c.M1),
                   ModMor(b.M0, c.M0, Matrix.from_rows(ring, [[2]])))
        res = relative_kernel(f, zero_null_homotopy(tcompose(f, g)), g)
        assert res.incl.dst.gens == 0
        assert res.K.M0.gens == 0 and res.K.M0 == FPModule.zero(ring)
        assert res.K.M1 == a.M1
        for m in (res.incl, res.to_a, res.to_b, res.K.d):
            assert m.mat.is_zero()
        # rebuilt checked, as the definition states them
        TwoModule(res.K.M1, res.K.M0, res.K.d)
        OneMor(res.K, a, res.e.f1, res.e.f0)
        TwoMor(res.eps.frm, res.eps.to, res.eps.s)
        assert res.eps.is_null()
        assert one_mor_equal(res.eps.frm, tcompose(res.e, f))
        rk_factorize(res, res.e, res.eps)    # checked

    @pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
    def test_zero_stages_run_no_elimination(self, ring, monkeypatch):
        """Extending a resolution that stopped at stage 1 to depth 3, and
        the homology at its zero stages 2 and 3, call none of
        preimage_basis, solve_many and snf."""
        calls = Counter()
        for name in ("preimage_basis", "solve_many", "snf"):
            real = getattr(exactlin, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for mod in [m for n, m in sys.modules.items()
                        if n == "twohom" or n.startswith("twohom.")]:
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, counted)
        t = FunctorSpec.tensor_with(FPModule.cyclic(ring, 4))
        m, = stage_one_inputs(ring, 1)
        calls.clear()
        res = resolve(m, 1)
        assert res.terminated and calls["preimage_basis"] > 0
        calls.clear()
        res = _extend(res, 3)
        assert calls == Counter()
        assert res.depth == 3 and len(res.kernels) == 4
        tc = apply(t, res.complex())
        calls.clear()
        for n in (2, 3):
            assert is_zero_spot(tc, n)
        assert calls == Counter()
        tc.homology(1)
        assert calls["solve_many"] > 0


class TestInduced:
    def test_identity_chain_mor(self):
        c = catalog.complex_mul2()
        ident = ChainMor.identity(c)
        ok, why = validate_chain_mor(ident)
        assert ok, why
        for n in (0, 1):
            assert is_equivalence(induced(ident, n))

    def test_zero_chain_mor(self):
        c = catalog.complex_mul2()
        z = ChainMor.zero(c, c)
        u = induced(z, 0)
        assert u.f0.mat.is_zero() or not is_equivalence(u)

    def test_functoriality_at_pi_level(self):
        rng = random.Random(17)
        for _ in range(20):
            c = random_strict_free_complex(rng, length=2)
            # scalar chain endomorphisms commute strictly
            k1, k2 = rng.randint(-2, 2), rng.randint(-2, 2)
            f = ChainMor(c, c, {
                n: OneMor(c.module(n), c.module(n),
                          ModMor.zero(c.module(n).M1, c.module(n).M1),
                          ModMor(c.module(n).M0, c.module(n).M0,
                                 Matrix.identity(ZZ, c.module(n).M0.gens).scale(k1),
                                 check=False), check=False)
                for n in range(c.length + 1)})
            g = ChainMor(c, c, {
                n: OneMor(c.module(n), c.module(n),
                          ModMor.zero(c.module(n).M1, c.module(n).M1),
                          ModMor(c.module(n).M0, c.module(n).M0,
                                 Matrix.identity(ZZ, c.module(n).M0.gens).scale(k2),
                                 check=False), check=False)
                for n in range(c.length + 1)})
            comp = compose_chain(f, g)
            for i in range(c.length + 1):
                lhs = induced(comp, i)
                rhs_f = induced(f, i)
                rhs_g = induced(g, i)
                from twohom.twomod import compose as tcompose, one_mor_equal
                assert one_mor_equal(lhs, tcompose(rhs_f, rhs_g))

    def test_oracle_agreement_on_random_strict(self):
        rng = random.Random(19)
        for _ in range(25):
            c = random_strict_free_complex(rng, length=2)
            ident = ChainMor.identity(c)
            for i in range(c.length + 1):
                u = induced(ident, i)
                assert pi_profile(u.src) == window_profile(c, i)

    def test_pi_matrices_of_induced_match_oracle_maps(self):
        # multiplication-by-k chain endomorphisms act as k on the total
        # complex homology; the induced pi-matrices must agree
        from twohom.fpmod import equal_mor
        from twohom.twomod import pi0_mor, pi1_mor

        rng = random.Random(29)
        for _ in range(20):
            c = random_strict_free_complex(rng, length=2)
            k = rng.randint(-3, 3)
            f = ChainMor(c, c, {
                n: OneMor(c.module(n), c.module(n),
                          ModMor.zero(c.module(n).M1, c.module(n).M1),
                          ModMor(c.module(n).M0, c.module(n).M0,
                                 Matrix.identity(ZZ, c.module(n).M0.gens).scale(k),
                                 check=False), check=False)
                for n in range(c.length + 1)})
            for i in range(c.length + 1):
                u = induced(f, i)
                for part in (pi0_mor(u), pi1_mor(u)):
                    scaled = part.__class__(part.src, part.dst,
                                            Matrix.identity(ZZ, part.src.gens)
                                            .scale(k), check=False) \
                        if part.src.gens == part.dst.gens else None
                    if scaled is not None:
                        assert equal_mor(part, scaled)


class TestHomotopyWitness:
    def test_zero_homotopy_gives_identity_witness(self):
        c = catalog.complex_mul2()
        ident = ChainMor.identity(c)
        h = ChainHomotopy.zero(ident)
        ok, why = validate_chain_homotopy(h)
        assert ok, why
        w = homotopy_equiv_witness(h, 0)
        assert w.s.mat.is_zero()

    def test_boundary_perturbation_witness(self):
        # m vs m + boundary on the Z/2-resolution complex
        from twohom.resolution import resolve
        res = resolve(catalog.z_mod(2), 2)
        c = res.complex()
        ident = ChainMor.identity(c)
        u = {0: OneMor(c.module(0), c.module(1),
                       ModMor.zero(c.module(0).M1, c.module(1).M1),
                       ModMor(c.module(0).M0, c.module(1).M0,
                              Matrix.from_rows(ZZ, [[1]]), check=False),
                       check=False)}
        # G = F - (M_{n+1} u_n + u_{n-1} L_n) so that (H=u, tau=0) connects them
        fs = {}
        for n in range(c.length + 1):
            un = u.get(n, OneMor.zero(c.module(n), c.module(n + 1)))
            um = u.get(n - 1, OneMor.zero(c.module(n - 1), c.module(n)))
            from twohom.twomod import compose as tcompose
            fs[n] = ident.f(n) - tcompose(un, c.diff(n + 1)) - tcompose(c.diff(n), um)
        other = ChainMor(c, c, fs)
        ok, why = validate_chain_mor(other)
        assert ok, why
        h = ChainHomotopy(ident, other, u, {})
        ok, why = validate_chain_homotopy(h)
        assert ok, why
        for i in (0, 1):
            w = homotopy_equiv_witness(h, i)  # validates on construction

    def test_randomized_witnesses(self):
        rng = random.Random(23)
        found = 0
        while found < 50:
            c = random_strict_free_complex(rng, length=2)
            ident = ChainMor.identity(c)
            u = {}
            for n in range(c.length):
                rows = c.module(n + 1).M0.gens
                cols = c.module(n).M0.gens
                u[n] = OneMor(c.module(n), c.module(n + 1),
                              ModMor.zero(c.module(n).M1, c.module(n + 1).M1),
                              ModMor(c.module(n).M0, c.module(n + 1).M0,
                                     Matrix(ZZ, rows, cols,
                                            [rng.randint(-2, 2)
                                             for _ in range(rows * cols)]),
                                     check=False), check=False)
            from twohom.twomod import compose as tcompose
            fs = {}
            for n in range(c.length + 1):
                un = u.get(n, OneMor.zero(c.module(n), c.module(n + 1)))
                um = u.get(n - 1, OneMor.zero(c.module(n - 1), c.module(n)))
                fs[n] = (ident.f(n) - tcompose(un, c.diff(n + 1))
                         - tcompose(c.diff(n), um))
            other = ChainMor(c, c, fs)
            h = ChainHomotopy(ident, other, u, {})
            ok, why = validate_chain_homotopy(h)
            assert ok, why
            for i in range(c.length + 1):
                homotopy_equiv_witness(h, i)
            found += 1


class TestNonStrictData:
    """Chain morphisms with nonzero lambda cells and homotopies with
    nonzero tau cells, on a complex whose coherence cell is nonzero."""

    def _complex(self):
        from twohom.resolution import horseshoe, resolve
        from twohom.twomod import compose as tcompose, zero_null_homotopy
        a = catalog.z_free()
        b = catalog.zero_map_mod()
        c = catalog.shift_mod()
        f = OneMor(a, b, ModMor.zero(a.M1, b.M1),
                   ModMor(a.M0, b.M0, Matrix.identity(ZZ, 1)))
        g = OneMor(b, c, ModMor(b.M1, c.M1, Matrix.identity(ZZ, 1)),
                   ModMor.zero(b.M0, c.M0))
        phi = zero_null_homotopy(tcompose(f, g))
        res_b, _, _ = horseshoe(f, phi, g, resolve(a, 2), resolve(c, 2))
        return res_b.augmented()

    def test_chain_endomorphism_with_nonzero_lambda(self):
        cx = self._complex()
        ident = ChainMor.identity(cx)
        lam = ModMor(cx.module(1).M0, cx.module(0).M1,
                     Matrix.from_rows(ZZ, [[3]]), check=False)
        twisted = ChainMor(cx, cx, dict(ident.fs), {1: lam})
        ok, why = validate_chain_mor(twisted)
        assert ok, why
        for n in (0, 1, 2):
            u = induced(twisted, n)  # exercises the -lambda blocks
            v = induced(ident, n)
            assert pi_profile(u.src) == pi_profile(v.src)

    def test_witness_between_lambda_twists(self):
        cx = self._complex()
        ident = ChainMor.identity(cx)
        lam = ModMor(cx.module(1).M0, cx.module(0).M1,
                     Matrix.from_rows(ZZ, [[3]]), check=False)
        twisted = ChainMor(cx, cx, dict(ident.fs), {1: lam})
        # the twist is absorbed by a homotopy with a nonzero tau cell
        tau0 = ModMor(cx.module(0).M0, cx.module(0).M1,
                      Matrix.from_rows(ZZ, [[3]]), check=False)
        h = ChainHomotopy(twisted, ident, {}, {0: tau0})
        ok, why = validate_chain_homotopy(h)
        assert ok, why
        for n in (0, 1):
            homotopy_equiv_witness(h, n)  # validates on construction

    def test_lambda_acts_on_relative_kernel_pairs(self):
        # C = [Z --0--> (Z -1-> Z)] and D = [Z --1--> (Z -1-> Z)], in degrees
        # 1 and 0.  The levelwise identities are a chain morphism C -> D
        # only with the cell lambda_1 = 1, and D -> C only with -1.  Ker(L_1)
        # of C is the pairs (a, 0), sent to (a, -lambda a) = (a, -a), which
        # lies in D's Ker(L_1) = {(a, b) : a + b = 0}; with the other sign
        # the pair leaves the relative kernel and nothing factors.
        from twohom.twomod import compose as tcompose, one_mor_equal
        for ring in (ZZ, RingSpec.Zmod(6)):
            one = FPModule.free(ring, 1)
            a = TwoModule.free(ring, 1)
            b = TwoModule(one, one, ModMor(one, one, Matrix.identity(ring, 1)))

            def cx(k):
                ell = OneMor(a, b, ModMor.zero(a.M1, b.M1),
                             ModMor(a.M0, b.M0, Matrix.from_rows(ring, [[k]])))
                return Complex2(ring, [b, a], [ell])

            c, d = cx(0), cx(1)
            ids = {0: OneMor.identity(b), 1: OneMor.identity(a)}
            cell = ModMor(a.M0, b.M1, Matrix.identity(ring, 1))
            f = ChainMor(c, d, ids, {1: cell})
            g = ChainMor(d, c, ids, {1: -cell})
            for m in (f, g):
                ok, why = validate_chain_mor(m)
                assert ok, why
            fg = compose_chain(f, g)
            assert fg.lam_s(1).mat.is_zero()
            # functoriality through the twisted pairs: H_1(fg) = H_1(g) H_1(f)
            u, v = induced(f, 1), induced(g, 1)
            assert is_equivalence(u) and is_equivalence(v)
            assert one_mor_equal(induced(fg, 1), tcompose(u, v))


class TestFunctorImage:
    def test_tensor_preserves_homotopy_validity(self):
        # the functor image of a homotopy is again a valid homotopy
        from twohom.resolution import resolve
        res = resolve(catalog.z_mod(2), 2)
        c = res.complex()
        ident = ChainMor.identity(c)
        u = {0: OneMor(c.module(0), c.module(1),
                       ModMor.zero(c.module(0).M1, c.module(1).M1),
                       ModMor(c.module(0).M0, c.module(1).M0,
                              Matrix.from_rows(ZZ, [[1]]), check=False),
                       check=False)}
        from twohom.twomod import compose as tcompose
        fs = {n: ident.f(n) - tcompose(u.get(n, OneMor.zero(c.module(n), c.module(n + 1))), c.diff(n + 1))
              - tcompose(c.diff(n), u.get(n - 1, OneMor.zero(c.module(n - 1), c.module(n))))
              for n in range(c.length + 1)}
        h = ChainHomotopy(ident, ChainMor(c, c, fs), u, {})
        t = FunctorSpec.tensor_with(FPModule.cyclic(ZZ, 2))
        th = apply(t, h)
        ok, why = validate_chain_homotopy(th)
        assert ok, why
