import json
import random
from pathlib import Path

import pytest

from twohom import catalog
from twohom.exactlin import Matrix, RingSpec, ZZ
from twohom.fpmod import FPModule, ModMor, is_iso
from twohom.twomod import (
    OneMor,
    TwoModule,
    TwoMor,
    biproduct,
    compose,
    is_pi_trivial,
    one_mor_equal,
    pi0_mor,
    pi1_mor,
    pi_profile,
    zero_null_homotopy,
)
from twohom import derived, fpmod
from twohom.complex2 import (ChainMor, Complex2, validate_chain_homotopy,
                             validate_complex)
from twohom.resolution import horseshoe, resolve
from twohom.derived import (
    FunctorSpec,
    LongSeq,
    apply,
    check_long_sequence,
    check_projective_vanishing,
    classical_tor_oracle,
    derive,
    derive_mor,
    exactness_at_a_spot,
    find_null_homotopy,
    is_right_relative_two_exact,
    long_sequence,
    resolution_independence,
)

T2 = FunctorSpec.tensor_with(FPModule.cyclic(ZZ, 2))
TI = FunctorSpec.identity()


class TestApply:
    def test_identity_is_noop(self):
        m = catalog.mul_two()
        assert apply(TI, m) is m
        diagram = (m, catalog.z_free())
        assert apply(TI, diagram) is diagram

    def test_other_objects_raise(self):
        with pytest.raises(TypeError):
            apply(T2, object())

    def test_tensor_rank_one(self):
        assert pi_profile(apply(T2, catalog.z_free())) == ([2], [])

    def test_tensor_resolution_complex(self):
        res = resolve(catalog.z_mod(2), 2)
        tc = apply(T2, res.complex())
        ok, why = validate_complex(tc)
        assert ok, why
        # 2 (x) Z/2 = 0: the differential dies
        assert tc.diff(1).f0.mat.tolists() in ([[2]], [[-2]], [[0]])
        d = tc.diff(1).f0.mat.entry(0, 0)
        assert d % 2 == 0
        # one image per object: maps land on the images of their endpoints
        for n in range(tc.length + 1):
            assert tc.diff(n).src is tc.module(n)
            assert tc.module(n).d.src is tc.module(n).M1
            assert tc.module(n).d.dst is tc.module(n).M0

    def test_a_diagram_maps_in_one_pass(self):
        F, phi, G = catalog.catalog_extension()
        tf, tphi, tg = apply(T2, (F, phi, G))
        assert tf.dst is tg.src
        assert tphi.frm.src is tf.src and tphi.to.dst is tg.dst
        assert tf.f0.src is tf.src.M0 and tg.f0.src is tg.src.M0
        assert tg.f0.dst is tg.dst.M0 and tg.f1.dst is tg.dst.M1

    def test_each_module_is_tensored_once(self, monkeypatch):
        calls, tensor = [], fpmod.tensor

        def counted(m, n):
            calls.append(m)
            return tensor(m, n)

        # tensor_mor calls fpmod's own binding, apply calls derived's
        monkeypatch.setattr(fpmod, "tensor", counted)
        monkeypatch.setattr(derived, "tensor", counted)
        F, phi, G = catalog.catalog_extension()
        res_a, res_c = resolve(F.src, 3), resolve(G.dst, 3)
        res_b, i_mor, p_mor = horseshoe(F, phi, G, res_a, res_c)
        for x in (res_b.complex(), (F, phi, G),
                  (res_a.complex(), res_b.complex(), res_c.complex(),
                   i_mor, p_mor)):
            calls.clear()
            apply(T2, x)
            assert len(calls) == len({id(m) for m in calls})
            assert len(calls) == _modules_reached(x)

    def test_tensor_preserves_biproduct_pi(self):
        # additive functors preserve biproducts at pi level
        rng = random.Random(8)
        for _ in range(15):
            a = catalog.z_mod(rng.choice([2, 3, 4]))
            b = catalog.z_mod(rng.choice([2, 3, 6]))
            t = FunctorSpec.tensor_with(FPModule.cyclic(ZZ, rng.choice([2, 4])))
            tb = apply(t, biproduct(a, b).total)
            parts = biproduct(apply(t, a), apply(t, b)).total
            assert pi_profile(tb) == pi_profile(parts)

    def test_tensor_preserves_biproduct_comparison(self):
        a, b = catalog.z_mod(4), catalog.z_mod(6)
        bp = biproduct(a, b)
        t = T2
        tb = apply(t, bp.total)
        tinj1, tinj2 = apply(t, bp.inj1), apply(t, bp.inj2)
        parts = biproduct(apply(t, a), apply(t, b))
        # canonical comparison T(A) x T(B) -> T(A x B)
        cmp_mor = compose(parts.proj1, tinj1) + compose(parts.proj2, tinj2)
        assert is_iso(pi0_mor(cmp_mor)) and is_iso(pi1_mor(cmp_mor))


def _modules_reached(x) -> int:
    """How many distinct FPModule objects apply maps when it maps x: the
    parts of a complex or a chain map are read as apply reads them."""
    seen, todo = set(), [x]
    while todo:
        y = todo.pop()
        if isinstance(y, FPModule):
            seen.add(id(y))
        elif isinstance(y, ModMor):
            todo += [y.src, y.dst]
        elif isinstance(y, TwoModule):
            todo += [y.M1, y.M0, y.d]
        elif isinstance(y, OneMor):
            todo += [y.src, y.dst, y.f1, y.f0]
        elif isinstance(y, TwoMor):
            todo += [y.frm, y.to, y.s]
        elif isinstance(y, Complex2):
            todo += [*y.modules, *y.alphas.values()]
            todo += [f for d in y.diffs for f in (d.f1, d.f0)]
        elif isinstance(y, ChainMor):
            todo += [y.src, y.dst, *y.lams.values()]
            todo += [f for g in y.fs.values() for f in (g.f1, g.f0)]
        else:
            todo += list(y)
    return len(seen)


class TestTorOracle:
    def test_tor0(self):
        assert classical_tor_oracle(FPModule.cyclic(ZZ, 4),
                                    FPModule.cyclic(ZZ, 6), 0) == [2]

    def test_tor1(self):
        assert classical_tor_oracle(FPModule.cyclic(ZZ, 4),
                                    FPModule.cyclic(ZZ, 6), 1) == [2]

    def test_free_flat(self):
        assert classical_tor_oracle(FPModule.free(ZZ, 3),
                                    FPModule.cyclic(ZZ, 4), 1) == []

    def test_coprime(self):
        assert classical_tor_oracle(FPModule.cyclic(ZZ, 2),
                                    FPModule.cyclic(ZZ, 3), 1) == []

    def test_rejects_modular_ring(self):
        from twohom.exactlin import RingSpec
        with pytest.raises(ValueError):
            classical_tor_oracle(FPModule.free(RingSpec.Zmod(4), 1),
                                 FPModule.free(RingSpec.Zmod(4), 1), 0)


class TestDerive:
    def test_tensor_on_z2(self):
        assert derive(T2, catalog.z_mod(2), 0, 2).pi == ([2], [2])
        assert derive(T2, catalog.z_mod(2), 1, 2).pi == ([2], [])

    def test_identity_on_shift(self):
        assert derive(TI, catalog.shift_mod(), 0, 2).pi == ([], [0])
        assert derive(TI, catalog.shift_mod(), 1, 2).pi == ([0], [])

    def test_free_objects_concentrated_in_zero(self):
        d0 = derive(T2, catalog.z_free(), 0, 2)
        assert d0.pi == ([2], [])
        for i in (1, 2):
            assert derive(T2, catalog.z_free(), i, 2).pi == ([], [])

    def test_window_against_oracle(self):
        for a in (2, 3, 4, 6):
            for b in (2, 3, 4, 6):
                m0 = FPModule.cyclic(ZZ, a)
                n = FPModule.cyclic(ZZ, b)
                t = FunctorSpec.tensor_with(n)
                res = resolve(TwoModule.discrete(m0), 4)
                tc = apply(t, res.complex())
                for i in range(3):
                    want = (classical_tor_oracle(m0, n, i),
                            classical_tor_oracle(m0, n, i + 1))
                    assert tc.homology(i).pi == want

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            derive(T2, catalog.z_mod(2), 3, 2)


class TestDeriveDepthRule:
    """Over Z/4 the resolution of [0 -> Z/2] never terminates, so L_i needs
    stage i+2: pi0 of L_i reads stage i+1 and pi1 reads stage i+2."""

    R4 = RingSpec.Zmod(4)

    def _z2(self):
        return TwoModule.discrete(FPModule.cyclic(self.R4, 2))

    def test_identity(self):
        m = self._z2()
        assert derive(TI, m, 0, 2).pi == ([2], [])
        assert derive(TI, m, 1, 3).pi == ([], [])

    def test_tensor_z2(self):
        t = FunctorSpec.tensor_with(FPModule.cyclic(self.R4, 2))
        for i in range(3):
            assert derive(t, self._z2(), i, i + 2).pi == ([2], [2]), i

    def test_too_shallow_raises(self):
        t = FunctorSpec.tensor_with(FPModule.cyclic(self.R4, 2))
        for functor in (TI, t):
            for i in range(3):
                with pytest.raises(ValueError, match=f"L_{i} needs .* depth {i + 2}"):
                    derive(functor, self._z2(), i, i + 1)


class TestDeriveMor:
    def test_identity_induces_identity(self):
        res = resolve(catalog.z_mod(2), 2)
        u = derive_mor(T2, OneMor.identity(catalog.z_mod(2)), 0, res, res)
        assert is_iso(pi0_mor(u)) and is_iso(pi1_mor(u))

    def test_zero_induces_zero(self):
        res = resolve(catalog.z_mod(2), 2)
        z = OneMor.zero(catalog.z_mod(2), catalog.z_mod(2))
        u = derive_mor(T2, z, 0, res, res)
        assert pi0_mor(u).is_zero_mor()

    def test_catalog_projection_tor_functoriality(self):
        res_src = resolve(catalog.z_free(), 2)
        res_dst = resolve(catalog.z_mod(2), 2)
        u = derive_mor(T2, catalog.projection(), 0, res_src, res_dst)
        # Tor_0 functoriality: Z/2 = Z (x) Z/2 --id--> Z/2 (x) Z/2
        assert is_iso(pi0_mor(u))


class TestResolutionIndependence:
    def test_same_resolution(self):
        res = resolve(catalog.z_mod(2), 2)
        w = resolution_independence(T2, catalog.z_mod(2), res, res, 0)
        assert w.certified

    def test_padded_variant(self):
        res1 = resolve(catalog.z_mod(2), 2)
        res2 = resolve(catalog.z_mod(2), 4)
        for i in (0, 1):
            w = resolution_independence(T2, catalog.z_mod(2), res1, res2, i)
            assert w.certified

    @pytest.mark.parametrize("d1, d2, i", [(3, 2, 0), (2, 3, 0), (4, 2, 1)])
    def test_unequal_depths_of_an_unterminated_resolution(self, d1, d2, i):
        """Over Z/12 the resolution of M = [0 -> Z/12/(4)] never terminates,
        so comparing resolutions of two depths resolves the shallower one
        further; the comparison maps on L_i (- (x) Z/6) are mutually
        inverse."""
        r12 = RingSpec.Zmod(12)
        m = TwoModule.discrete(FPModule.cyclic(r12, 4))
        t6 = FunctorSpec.tensor_with(FPModule.cyclic(r12, 6))
        w = resolution_independence(t6, m, resolve(m, d1), resolve(m, d2), i)
        assert w.certified

    def test_free_with_distinct_cover_ranks(self):
        """A fatter resolution of Z, from the rank-2 cover [1, 0]: the stage
        loop covers its kernel by P_1 = Z with F_1 = [[0], [1]] and stops."""
        from twohom.resolution import _extend, _start, validate_resolution
        zf = catalog.z_free()
        res1 = resolve(zf, 2)
        p0 = TwoModule.free(ZZ, 2)
        aug = OneMor(p0, zf, ModMor.zero(p0.M1, zf.M1),
                     ModMor(p0.M0, zf.M0, Matrix.from_rows(ZZ, [[1, 0]])))
        res2 = _extend(_start(zf, p0, aug), 2)
        assert [p.M0.gens for p in res2.modules] == [2, 1, 0]
        assert res2.f(1).f0.mat.tolists() == [[0], [1]]
        assert res2.terminated
        ok, why = validate_resolution(res2)
        assert ok, why
        for i in (0, 1):
            w = resolution_independence(T2, zf, res1, res2, i)
            assert w.certified


class TestRightExactness:
    def test_identity_functor(self):
        f, phi, g = catalog.catalog_extension()
        assert is_right_relative_two_exact(TI, f, phi, g)

    def test_tensor_z2(self):
        f, phi, g = catalog.catalog_extension()
        assert is_right_relative_two_exact(T2, f, phi, g)

    def test_a_spot_tor_obstruction(self):
        f, phi, g = catalog.catalog_extension()
        assert exactness_at_a_spot(TI, f, phi, g)
        assert not exactness_at_a_spot(T2, f, phi, g)

    def test_non_extension_rejected(self):
        zf = catalog.z_free()
        f = OneMor.zero(zf, zf)
        with pytest.raises(ValueError):
            is_right_relative_two_exact(T2, f,
                                        zero_null_homotopy(compose(f, f)), f)


class TestProjectiveVanishing:
    def test_rank_one(self):
        assert check_projective_vanishing(T2, catalog.z_free(), 2)

    def test_rank_two(self):
        assert check_projective_vanishing(T2, TwoModule.free(ZZ, 2), 2)

    def test_contrapositive(self):
        assert derive(T2, catalog.z_mod(2), 1, 2).pi != ([], [])

    def test_non_free_rejected(self):
        with pytest.raises(ValueError):
            check_projective_vanishing(T2, catalog.z_mod(2), 2)


def _catalog_pairs(ring):
    """(F, G, whether a 2-cell F => G exists) on the catalog's recipes over
    ring.  On [R --2--> R] a cell 3 => 1 is s = -1, and none 1 => 0 exists,
    as 2s = -1 has no solution; [R --id--> R] is contractible; on [0 -> R/2]
    and into it 3 and 1 agree, with s = 0."""
    def mod(k, d):
        m0 = FPModule.cyclic(ring, k)
        m1 = FPModule.free(ring, len(d[0]) if d else 0)
        return TwoModule(m1, m0, ModMor(m1, m0, Matrix.from_rows(ring, d)
                                        if d else Matrix.zeros(ring, 1, 0)))

    def thrice(f):
        return f + f + f

    mul2, idm, zmod2, zf = (mod(0, [[2]]), mod(0, [[1]]), mod(2, []),
                            mod(0, []))
    proj = OneMor(zf, zmod2, ModMor.zero(zf.M1, zmod2.M1),
                  ModMor(zf.M0, zmod2.M0, Matrix.from_rows(ring, [[1]])))
    one = OneMor.identity
    return [(thrice(one(mul2)), one(mul2), True),
            (one(idm), OneMor.zero(idm, idm), True),
            (one(zmod2), thrice(one(zmod2)), True),
            (proj, thrice(proj), True),
            (one(mul2), OneMor.zero(mul2, mul2), False)]


class TestTwoCellSolver:
    @pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
    def test_a_two_cell_is_a_null_homotopy_of_the_difference(self, ring):
        """A 2-cell F => G is a null homotopy of F - G: the s found for
        F - G carries the checked TwoMor(F, G, s), and a pair with no
        2-cell gets None."""
        for f, g, exists in _catalog_pairs(ring):
            cell = find_null_homotopy(f - g)
            if exists:
                TwoMor(f, g, cell.s)  # raises unless s carries F => G
            else:
                assert cell is None

    def test_finds_zero_for_zero(self):
        z = OneMor.zero(catalog.mul_two(), catalog.mul_two())
        cell = find_null_homotopy(z)
        assert cell is not None

    def test_contractible_identity(self):
        idm = catalog.identity_mod()
        cell = find_null_homotopy(OneMor.identity(idm))
        assert cell is not None  # the identity of a contractible object dies

    def test_no_homotopy_when_pi_nonzero(self):
        m = catalog.z_mod(2)
        cell = find_null_homotopy(OneMor.identity(m))
        assert cell is None


class TestLongSequence:
    def test_catalog_ladder(self):
        f, phi, g = catalog.catalog_extension()
        seq = long_sequence(T2, f, phi, g, 1)
        pis = [(e.label, e.degree, e.homology.pi) for e in seq.entries]
        assert pis == [("A", 1, ([], [])), ("B", 1, ([], [])),
                       ("C", 1, ([2], [])), ("A", 0, ([2], [])),
                       ("B", 0, ([2], [])), ("C", 0, ([2], [2]))]
        by_name = dict(seq.maps)
        assert is_iso(pi0_mor(by_name["delta_1"]))
        assert pi0_mor(by_name["u_0"]).is_zero_mor()
        assert is_iso(pi0_mor(by_name["v_0"]))

    def test_catalog_checks_exact(self):
        f, phi, g = catalog.catalog_extension()
        seq = long_sequence(T2, f, phi, g, 1)
        detail = []
        assert check_long_sequence(seq, detail)
        assert len(detail) == 4
        assert all(ok for _, ok in detail)

    def test_a_wrong_cell_raises_and_is_not_solved_for(self, monkeypatch):
        """The connecting cells are the zig-zag's, checked as they are
        built: with kernel_cell returning zero, the cell of delta∘v fails
        its identities and long_sequence raises, with no solver call."""
        calls = []
        monkeypatch.setattr(derived, "kernel_cell",
                            lambda hsrc, dst, blk: ModMor.zero(
                                hsrc.kernel.incl.src, dst))
        monkeypatch.setattr(derived, "find_null_homotopy",
                            lambda w: calls.append(w) or find_null_homotopy(w))
        with pytest.raises(fpmod.InvalidMorphism):
            long_sequence(T2, *catalog.catalog_extension(), 1)
        assert calls == []

    def test_zero_delta_breaks_exactness(self):
        f, phi, g = catalog.catalog_extension()
        seq = long_sequence(T2, f, phi, g, 1)
        # sabotage: replace the connecting map by zero and re-solve the cells
        maps = [(name, OneMor.zero(mor.src, mor.dst) if name == "delta_1"
                 else mor) for name, mor in seq.maps]
        new_cells = []
        for k in range(len(maps) - 1):
            comp = compose(maps[k][1], maps[k + 1][1])
            cell = find_null_homotopy(comp)
            assert cell is not None  # composites with a zero map still die
            new_cells.append(cell)
        broken = LongSeq(seq.functor, seq.depth, seq.entries, maps, new_cells)
        assert not check_long_sequence(broken)

    def test_a_zero_degenerates(self):
        zf = catalog.z_free()
        zero = TwoModule.zero(ZZ)
        f = OneMor.zero(zero, zf)
        g = OneMor.identity(zf)
        phi = zero_null_homotopy(compose(f, g))
        seq = long_sequence(T2, f, phi, g, 1)
        by_name = dict(seq.maps)
        assert pi0_mor(by_name["delta_1"]).is_zero_mor()
        assert is_iso(pi0_mor(by_name["v_0"]))
        assert check_long_sequence(seq)

    def test_identity_functor_degenerates(self):
        f, phi, g = catalog.catalog_extension()
        seq = long_sequence(TI, f, phi, g, 1)
        by_name = dict(seq.maps)
        assert pi0_mor(by_name["delta_1"]).is_zero_mor()
        assert pi1_mor(by_name["delta_1"]).is_zero_mor()
        assert check_long_sequence(seq)

    def test_precondition_gate(self):
        zf = catalog.z_free()
        f = OneMor.zero(zf, zf)
        with pytest.raises(ValueError):
            long_sequence(T2, f, zero_null_homotopy(compose(f, f)), f, 1)

    def test_the_extension_is_checked_once(self, monkeypatch):
        """horseshoe certifies (F, phi, G); long_sequence and its
        right-exactness check do not repeat it.  Every twohom module
        binding of is_extension is patched, as the bench tracer does."""
        import sys

        from twohom import twomod

        original, calls = twomod.is_extension, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        for name, mod in list(sys.modules.items()):
            if name == "twohom" or name.startswith("twohom."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        monkeypatch.setattr(mod, attr, counted)
        f, phi, g = catalog.catalog_extension()
        assert check_long_sequence(long_sequence(T2, f, phi, g, 1))
        assert len(calls) == 1
        zf = catalog.z_free()
        z = OneMor.zero(zf, zf)
        with pytest.raises(ValueError, match="horseshoe requires an extension"):
            long_sequence(T2, z, zero_null_homotopy(compose(z, z)), z, 1)
        assert len(calls) == 2

    def test_negative_depth_is_refused(self):
        """A negative depth has no sequence to certify, so it is an error
        and not an empty sequence that check_long_sequence accepts."""
        f, phi, g = catalog.catalog_extension()
        with pytest.raises(ValueError, match="depth must be >= 0"):
            long_sequence(T2, f, phi, g, -1)

    def test_zero_extension(self):
        zero = TwoModule.zero(ZZ)
        z = OneMor.zero(zero, zero)
        seq = long_sequence(T2, z, zero_null_homotopy(compose(z, z)), z, 1)
        assert all(is_pi_trivial(e.homology.module) for e in seq.entries)
        assert check_long_sequence(seq)

    def test_all_cyclic_coefficients(self):
        f, phi, g = catalog.catalog_extension()
        for n in (2, 3, 4, 6):
            t = FunctorSpec.tensor_with(FPModule.cyclic(ZZ, n))
            seq = long_sequence(t, f, phi, g, 1)
            assert check_long_sequence(seq), n
            # L_1T(C) = Tor_1(Z/2, Z/n) exactly
            c1 = [e for e in seq.entries if e.label == "C" and e.degree == 1][0]
            want = classical_tor_oracle(FPModule.cyclic(ZZ, 2),
                                        FPModule.cyclic(ZZ, n), 1)
            assert pi_profile(c1.homology.module)[0] == want


def _cyclic_extension(m: int, n: int, split: bool):
    """Z/m -> Z/mn -> Z/n (multiply by n, reduce), or the split
    Z/m -> Z/m (+) Z/n -> Z/n, as discrete 2-modules over Z."""
    a, c = FPModule.cyclic(ZZ, m), FPModule.cyclic(ZZ, n)
    if split:
        b = FPModule(ZZ, 2, Matrix.from_rows(ZZ, [[m, 0], [0, n]]))
        f0, g0 = [[1], [0]], [[0, 1]]
    else:
        b = FPModule.cyclic(ZZ, m * n)
        f0, g0 = [[n]], [[1]]
    A, B, C = (TwoModule.discrete(x) for x in (a, b, c))
    f = OneMor(A, B, ModMor.zero(A.M1, B.M1),
               ModMor(a, b, Matrix.from_rows(ZZ, f0)))
    g = OneMor(B, C, ModMor.zero(B.M1, C.M1),
               ModMor(b, c, Matrix.from_rows(ZZ, g0)))
    return (a, b, c), (f, zero_null_homotopy(compose(f, g)), g)


@pytest.mark.parametrize("m,n,split", [(2, 2, False), (2, 3, False),
                                       (4, 2, False), (2, 4, False),
                                       (2, 2, True), (3, 2, True)])
def test_long_sequence_matches_classical_tor(m, n, split):
    """Every spot of the depth-2 long sequence of a cyclic extension is its
    classical Tor window, and the sequence is 2-exact; depth 2 resolves to
    depth 4, so every horseshoe stage and the connecting maps run."""
    mods, (f, phi, g) = _cyclic_extension(m, n, split)
    for k in (2, 3, 4, 6):
        zk = FPModule.cyclic(ZZ, k)
        seq = long_sequence(FunctorSpec.tensor_with(zk), f, phi, g, 2)
        assert check_long_sequence(seq), k
        for e in seq.entries:
            x = mods["ABC".index(e.label)]
            want = (classical_tor_oracle(x, zk, e.degree),
                    classical_tor_oracle(x, zk, e.degree + 1))
            assert e.homology.pi == want, (k, e.label, e.degree)


@pytest.mark.parametrize("n", [9, 27])
def test_long_sequence_over_zmod_runs_every_horseshoe_stage(n, monkeypatch):
    """Z/3 --3--> Z/9 --> Z/3 over Z/n: Z/3 has a periodic resolution
    (Z/n --3--> Z/n --n/3--> Z/n ...), so every horseshoe stage has a
    nonzero off-diagonal block, and the odd modulus makes signs visible.
    With T = - (x) Z/3, Tor_i(Z/3, Z/3) = Z/3 for all i, and Tor_i(Z/9, Z/3)
    is Z/3 for all i over Z/27 but only for i = 0 over Z/9, where Z/9 is
    free."""
    from twohom.complex2 import validate_chain_mor
    from twohom.resolution import horseshoe, validate_resolution
    import twohom.derived as derived

    ring = RingSpec.Zmod(n)
    a, b = FPModule.cyclic(ring, 3), FPModule.cyclic(ring, 0 if n == 9 else 9)
    A, B = TwoModule.discrete(a), TwoModule.discrete(b)
    f = OneMor(A, B, ModMor.zero(A.M1, B.M1),
               ModMor(a, b, Matrix.from_rows(ring, [[3]])))
    g = OneMor(B, A, ModMor.zero(B.M1, A.M1),
               ModMor(b, a, Matrix.from_rows(ring, [[1]])))
    phi = zero_null_homotopy(compose(f, g))
    res_b, i_mor, p_mor = horseshoe(f, phi, g, resolve(A, 4), resolve(A, 4))
    assert all(not res_b.f(k).f0.mat.is_zero() for k in range(1, 5))
    for ok, why in (validate_resolution(res_b), validate_chain_mor(i_mor),
                    validate_chain_mor(p_mor)):
        assert ok, why

    # the stored cells are the canonical ones: no cell is found by solving
    monkeypatch.setattr(derived, "find_null_homotopy", None)
    t = FunctorSpec.tensor_with(FPModule.cyclic(ring, 3))
    seq = long_sequence(t, f, phi, g, 2)
    assert check_long_sequence(seq)
    tor_b = {9: [[3], [], [], []], 27: [[3]] * 4}[n]
    for e in seq.entries:
        i = e.degree
        want = ([3], [3]) if e.label != "B" else (tor_b[i], tor_b[i + 1])
        assert e.homology.pi == want, (e.label, i)


def test_lemma1_functor_image_of_homotopy():
    from twohom.resolution import compare, homotopy_between_lifts, perturb_lift
    res = resolve(catalog.z_mod(2), 2)
    base = compare(OneMor.identity(catalog.z_mod(2)), res, res)
    other = perturb_lift(base, {0: Matrix.from_rows(ZZ, [[3]])})
    h = homotopy_between_lifts(base, other)
    th = apply(T2, h)
    ok, why = validate_chain_homotopy(th)
    assert ok, why
    # both lifts sit on res's one complex, so every image lands on one image
    assert th.m.src is th.m.dst is th.mp.src is th.mp.dst



# The second g = 20 input of the derive-z benchmark plan
# ``bench/workloads.py``: ``Derive(None, 6).inputs(401, 3, sizes=range(8, 21))``.
# M0 is Z^20 modulo the 9 columns of _G20_REL, M1 is Z^11 and d is _G20_D.
# Its kernels once ran for minutes in a Hermite elimination whose entries
# grew past a million bits.
_G20_REL = [
    [ 4,  0,  2,  4,  2,  0,  4, -4, -2],
    [-3,  2, -2, -2, -4,  0,  1,  1, -1],
    [-1,  2,  3,  4,  3, -1,  2, -1, -1],
    [ 0, -4,  4, -3,  4, -4,  3, -3, -4],
    [-2,  1, -3,  0,  1,  1,  4, -2, -1],
    [-3, -4,  1, -3, -3,  1, -1,  2, -1],
    [ 2,  3,  2, -3,  1,  0, -2,  0,  3],
    [-1,  0, -1, -4,  0,  0,  4, -3,  0],
    [-4,  3,  1, -4, -1, -2,  3,  0,  1],
    [ 4, -4, -1,  3, -1,  2, -2, -1, -1],
    [ 2, -3,  3, -1,  1,  4, -3,  0,  1],
    [-3,  2,  4, -4, -1, -2,  1, -2,  4],
    [ 2,  0,  4,  0,  1, -1,  4,  2,  3],
    [-4, -3, -3,  3, -1,  4,  3, -4,  1],
    [ 0,  0, -2,  3,  1, -4,  0, -2,  1],
    [-4,  4,  1,  4, -3,  3,  1, -3, -2],
    [ 2,  1, -2, -4,  0,  1, -4,  3,  3],
    [-3,  2, -3,  4, -2, -1, -1, -1,  0],
    [ 0,  2,  0, -4, -4, -1,  3,  0, -2],
    [ 3, -4,  2,  1,  2,  0,  2,  0, -2],
]
_G20_D = [
    [-3,  3,  1,  3, -4, -1,  0, -4, -3,  0,  4],
    [-4, -3, -2, -2, -3,  4, -2, -4, -1, -1, -2],
    [-1,  0,  0, -3, -3, -2, -1, -2, -2,  3,  2],
    [-2,  3, -2,  1, -1,  0,  1,  2,  1,  3,  3],
    [ 3,  1, -3,  1,  4,  3,  2,  3,  3, -2,  0],
    [-2,  4,  3, -2, -4,  1, -4, -2,  1, -3, -3],
    [ 2,  3, -1,  3,  1,  0,  4,  2, -4, -3, -4],
    [ 2,  3,  1,  2,  0,  2,  3, -1,  1, -1,  2],
    [-4, -4,  2,  3, -4,  1,  3, -3,  4,  0, -4],
    [-2,  3, -4,  1,  1, -1,  3,  1,  4, -3, -4],
    [-2,  2, -4,  3, -1,  1, -2, -3, -4,  4, -4],
    [ 4, -2, -1, -4,  2,  3, -3,  1,  0,  1, -2],
    [-1,  4,  1,  1,  0, -1, -1, -2, -4, -1, -4],
    [-1,  0, -1, -1,  4,  0, -4, -2,  2, -1, -1],
    [-4,  4,  1, -1, -1,  2, -1,  3, -3, -3,  3],
    [ 2, -2,  4,  4, -2,  0, -4, -4, -1,  1, -4],
    [ 3, -4,  3, -2, -3,  4, -2,  3, -2, -4,  1],
    [-1, -3, -2, -4,  3, -4, -4, -3, -4,  2, -4],
    [ 3, -2,  1, -4,  3, -4, -3, -3, -1, -4,  1],
    [ 0, -2, -4, -3,  3, -1,  2, -2,  1,  4, -1],
]


def test_g20_derive_finishes_and_passes_the_window_law():
    import signal

    from twohom.complex2 import window_profile
    from twohom.twomod import TwoModule

    def too_slow(signum, frame):
        raise TimeoutError("derive of the g = 20 input took over 10 s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        m0 = FPModule(ZZ, 20, Matrix.from_rows(ZZ, _G20_REL))
        m1 = FPModule.free(ZZ, 11)
        m = TwoModule(m1, m0, ModMor(m1, m0, Matrix.from_rows(ZZ, _G20_D)))
        tc = apply(FunctorSpec.tensor_with(FPModule.cyclic(ZZ, 6)),
                   resolve(m, 3).complex())
        for i in range(3):
            assert window_profile(tc, i) == tc.homology(i).pi
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestLongSequenceZeroSpots:
    """At depth 3 the resolutions behind a long sequence have stopped, and
    every u_i, v_i and delta_i with a zero homology 2-module at an end is
    the zero 1-morphism, built with no factor_through."""

    @staticmethod
    def _sequences(ring, tmp_path):
        """(name, sequence) for the catalog extension over Z and for every
        extension of the cli-small workspace, with each of its functors."""
        from twohom.cli import load

        root = Path(__file__).resolve().parents[1]
        out = []
        if ring == ZZ:
            out += [("catalog", long_sequence(T2, *catalog.catalog_extension(), 3))]
        doc = json.loads((root / "tests" / "cli_small_workspace.json").read_text())
        doc["ring"] = {"kind": "Z"} if ring == ZZ else {"kind": "Zmod", "n": ring.n}
        path = tmp_path / "workspace.json"
        path.write_text(json.dumps(doc))
        ws = load(str(path))
        objs = doc["objects"]
        for e in sorted(k for k, v in objs.items() if v["type"] == "extension"):
            for t in sorted(k for k, v in objs.items() if v["type"] == "functor"):
                out.append((f"{e} {t}", long_sequence(ws.get(t), *ws.get(e), 3)))
        return out

    @pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
    def test_maps_at_zero_homology_are_zero(self, ring, tmp_path, monkeypatch):
        from twohom import complex2

        real, factored = complex2.factor_through, []
        monkeypatch.setattr(complex2, "factor_through",
                            lambda *args: factored.append(args) or real(*args))
        seqs = self._sequences(ring, tmp_path)

        def zero(m):
            return not (m.M0.gens or m.M1.gens)

        at_zero = elsewhere = 0
        for name, seq in seqs:
            for map_name, mor in seq.maps:
                if zero(mor.src) or zero(mor.dst):
                    assert one_mor_equal(mor, OneMor.zero(mor.src, mor.dst)), \
                        (name, map_name)
                    at_zero += 1
                else:
                    elsewhere += 1
            assert check_long_sequence(seq), name
        assert at_zero > 0
        # one factorization per map between nonzero homology 2-modules
        assert len(factored) == elsewhere
