import random

import pytest

from twohom import catalog
from twohom.exactlin import Matrix, RingSpec, ZZ
from twohom.fpmod import FPModule, ModMor
from twohom.twomod import (
    OneMor,
    TwoModule,
    compose,
    is_essentially_surjective,
    is_extension,
    one_mor_equal,
    pi_profile,
    zero_null_homotopy,
)
from twohom.complex2 import (
    compose_chain,
    validate_chain_homotopy,
    validate_chain_mor,
)
from twohom.resolution import (
    ResolutionError,
    compare,
    free_cover,
    homotopy_between_lifts,
    horseshoe,
    lift_through,
    pad_resolution,
    perturb_lift,
    product_resolution,
    resolve,
    validate_resolution,
)


class TestFreeCover:
    def test_z2(self):
        p, f = free_cover(catalog.z_mod(2))
        assert p.is_free() and p.M0.gens == 1
        assert is_essentially_surjective(f)

    def test_pi0_trivial_target(self):
        p, f = free_cover(catalog.identity_mod())
        assert p.M0.gens == 1
        assert is_essentially_surjective(f)

    def test_shift_gets_empty_cover(self):
        p, f = free_cover(catalog.shift_mod())
        assert p.M0.gens == 0
        assert is_essentially_surjective(f)


class TestLiftThrough:
    def test_identity_target(self):
        zf = catalog.z_free()
        t = catalog.times_two()
        l, sigma = lift_through(zf, t, OneMor.identity(zf))
        assert one_mor_equal(l, t)

    def test_zero_lift(self):
        zf = catalog.z_free()
        t = OneMor.zero(zf, catalog.z_mod(2))
        l, _ = lift_through(zf, t, catalog.projection())
        assert compose(l, catalog.projection()).f0.mat.tolists() == l.f0.mat.tolists()

    def test_catalog_example(self):
        zf = catalog.z_free()
        proj = catalog.projection()
        l, sigma = lift_through(zf, proj, proj)
        assert (l.f0.mat.entry(0, 0) - 1) % 2 == 0  # identity-like mod 2

    def test_nonfree_source_rejected(self):
        with pytest.raises(ResolutionError):
            lift_through(catalog.mul_two(), OneMor.identity(catalog.mul_two()),
                         OneMor.identity(catalog.mul_two()))


class TestResolve:
    def test_z2_shape(self):
        res = resolve(catalog.z_mod(2), 3)
        assert [p.M0.gens for p in res.modules] == [1, 1, 0, 0]
        assert res.terminated
        assert res.f(1).f0.mat.tolists() in ([[2]], [[-2]])
        ok, why = validate_resolution(res)
        assert ok, why

    def test_free_is_its_own_resolution(self):
        res = resolve(catalog.z_free(), 2)
        assert [p.M0.gens for p in res.modules] == [1, 0, 0]
        ok, why = validate_resolution(res)
        assert ok, why

    def test_shift_resolution_uses_compatibility(self):
        res = resolve(catalog.shift_mod(), 3)
        assert [p.M0.gens for p in res.modules] == [0, 1, 0, 0]
        # the augmentation cell is the nontrivial part
        assert not res.aug_cell_s.mat.is_zero()
        ok, why = validate_resolution(res)
        assert ok, why

    def test_random_small_modules(self):
        rng = random.Random(31)
        for _ in range(50):
            g0 = rng.randint(1, 2)
            rc = rng.randint(0, 2)
            rel = Matrix(ZZ, g0, rc, [rng.randint(-4, 4) for _ in range(g0 * rc)])
            m0 = FPModule(ZZ, g0, rel)
            m1 = FPModule.free(ZZ, rng.randint(0, 2))
            d = ModMor(m1, m0,
                       Matrix(ZZ, g0, m1.gens,
                              [rng.randint(-4, 4) for _ in range(g0 * m1.gens)]),
                       check=False)
            m = TwoModule(m1, m0, d, check=False)
            res = resolve(m, 3)
            ok, why = validate_resolution(res)
            assert ok, (why, m)

    def test_projectivity_lifting(self):
        # operational content: lifts through essentially surjective maps exist
        rng = random.Random(37)
        for _ in range(25):
            rank = rng.randint(0, 2)
            p = TwoModule.free(ZZ, rank)
            tgt = catalog.z_mod(rng.choice([2, 3, 4]))
            cover, f = free_cover(tgt)
            t0 = Matrix(ZZ, 1, rank, [rng.randint(-4, 4) for _ in range(rank)])
            t = OneMor(p, tgt, ModMor.zero(p.M1, tgt.M1),
                       ModMor(p.M0, tgt.M0, t0, check=False))
            lift_through(p, t, f)


def _stage_loop_inputs():
    """The catalog 2-modules and seeded small 2-modules over Z and Z/12."""
    mods = [m for _, m, _ in catalog.pi_catalog()]
    rng = random.Random(43)
    for ring in (ZZ, RingSpec.Zmod(12)):
        for _ in range(4):
            g0, rc, g1 = rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2)
            m0 = FPModule(ring, g0, Matrix(ring, g0, rc, [
                rng.randint(-4, 4) for _ in range(g0 * rc)]))
            m1 = FPModule.free(ring, g1)
            d = ModMor(m1, m0, Matrix(ring, g0, g1, [
                rng.randint(-4, 4) for _ in range(g0 * g1)]), check=False)
            mods.append(TwoModule(m1, m0, d, check=False))
    return mods


def _stages(res, depth):
    """Every matrix of stages 0..depth of res: augmentation (and its cell
    from depth 1 on), modules, differentials, witnesses, stage kernels."""
    out = [res.aug.f1.mat, res.aug.f0.mat]
    if depth >= 1:
        out.append(res.aug_cell_s.mat)
    for n in range(depth + 1):
        p, k = res.modules[n], res.kernels[n]
        out += [p.M1.rel, p.M0.rel, p.d.mat, k.K.M1.rel, k.K.M0.rel,
                k.K.d.mat, k.incl.mat, k.e.f0.mat, k.eps.s.mat]
        if n >= 1:
            f, w = res.diffs[n - 1], res.witnesses[n - 1]
            out += [f.f1.mat, f.f0.mat, w.f1.mat, w.f0.mat]
    return out


class TestStageLoop:
    """resolve and pad_resolution run one stage loop."""

    DEPTH = 3

    def test_shallow_resolution_is_a_prefix(self):
        for m in _stage_loop_inputs():
            full = resolve(m, self.DEPTH)
            for d in range(self.DEPTH):
                part = resolve(m, d)
                assert part.depth == d
                assert _stages(part, d) == _stages(full, d), (m, d)
                assert not part.terminated or full.terminated
            # depth 0 has no stage 1, so its augmentation cell is zero
            assert resolve(m, 0).aug_cell_s.mat.is_zero()

    def test_padding_a_terminated_resolution_is_resolving_deeper(self):
        padded = 0
        for m in _stage_loop_inputs():
            full = resolve(m, self.DEPTH)
            for d in range(self.DEPTH):
                res = resolve(m, d)
                if not res.terminated:
                    continue
                pad = pad_resolution(res, self.DEPTH)
                assert pad.depth == self.DEPTH and pad.terminated
                assert _stages(pad, self.DEPTH) == _stages(full, self.DEPTH)
                padded += 1
        assert padded > 0


class TestCompare:
    def test_identity_lift(self):
        res = resolve(catalog.z_mod(2), 3)
        lift = compare(OneMor.identity(catalog.z_mod(2)), res, res)
        ok, why = validate_chain_mor(lift.as_chain_mor())
        assert ok, why

    def test_zero_lift(self):
        res = resolve(catalog.z_mod(2), 3)
        z = OneMor.zero(catalog.z_mod(2), catalog.z_mod(2))
        lift = compare(z, res, res)
        ok, why = validate_chain_mor(lift.as_chain_mor())
        assert ok, why

    def test_catalog_projection_lift(self):
        res_src = resolve(catalog.z_free(), 3)
        res_dst = resolve(catalog.z_mod(2), 3)
        lift = compare(catalog.projection(), res_src, res_dst)
        ok, why = validate_chain_mor(lift.as_chain_mor())
        assert ok, why
        # cells validate at every degree
        for n in range(4):
            lift.eps(n)

    def test_mixed_depths_padded(self):
        res_src = resolve(catalog.z_free(), 1)
        res_dst = resolve(catalog.z_mod(2), 3)
        lift = compare(catalog.projection(), res_src, res_dst)
        ok, why = validate_chain_mor(lift.as_chain_mor())
        assert ok, why


class TestHomotopyBetweenLifts:
    def test_equal_lifts_give_zero_homotopy(self):
        res = resolve(catalog.z_mod(2), 3)
        l1 = compare(OneMor.identity(catalog.z_mod(2)), res, res)
        h = homotopy_between_lifts(l1, l1)
        assert all(h.h(n).f0.mat.is_zero() for n in range(4))

    def test_boundary_tweak_found(self):
        res = resolve(catalog.z_mod(2), 3)
        base = compare(OneMor.identity(catalog.z_mod(2)), res, res)
        other = perturb_lift(base, {0: Matrix.from_rows(ZZ, [[1]])})
        h = homotopy_between_lifts(base, other)
        ok, why = validate_chain_homotopy(h)
        assert ok, why
        assert not h.h(0).f0.mat.is_zero()

    def test_randomized_lift_pairs(self):
        rng = random.Random(41)
        res_src = resolve(catalog.z_free(), 3)
        res_dst = resolve(catalog.z_mod(2), 3)
        base = compare(catalog.projection(), res_src, res_dst)
        for _ in range(25):
            xs = {n: Matrix(ZZ, res_dst.module(n + 1).M0.gens,
                            res_src.module(n).M0.gens,
                            [rng.randint(-3, 3)
                             for _ in range(res_dst.module(n + 1).M0.gens
                                            * res_src.module(n).M0.gens)])
                  for n in range(2)}
            other = perturb_lift(base, xs)
            h = homotopy_between_lifts(base, other)
            ok, why = validate_chain_homotopy(h)
            assert ok, why


class TestProductResolution:
    def test_product_with_zero(self):
        res = resolve(catalog.z_mod(2), 2)
        zero_res = resolve(TwoModule.zero(ZZ), 2)
        prod, bp = product_resolution(res, zero_res)
        assert pi_profile(prod.target) == pi_profile(catalog.z_mod(2))
        ok, why = validate_resolution(prod)
        assert ok, why

    def test_z2_times_z3(self):
        prod, bp = product_resolution(resolve(catalog.z_mod(2), 2),
                                      resolve(catalog.z_mod(3), 2))
        ok, why = validate_resolution(prod)
        assert ok, why
        from twohom.twomod import pi0
        from twohom.fpmod import invariant_factors
        assert invariant_factors(pi0(prod.target)) == [6]

    def test_free_times_free(self):
        prod, _ = product_resolution(resolve(catalog.z_free(), 2),
                                     resolve(catalog.z_free(), 2))
        assert prod.modules[0].M0.gens == 2
        assert all(p.M0.gens == 0 for p in prod.modules[1:])


class TestHorseshoe:
    def test_catalog_extension(self):
        f, phi, g = catalog.catalog_extension()
        res_b, i_mor, p_mor = horseshoe(f, phi, g,
                                        resolve(f.src, 3), resolve(g.dst, 3))
        ok, why = validate_resolution(res_b)
        assert ok, why
        assert [p.M0.gens for p in res_b.modules] == [2, 1, 0, 0]
        ok, why = validate_chain_mor(i_mor)
        assert ok, why
        ok, why = validate_chain_mor(p_mor)
        assert ok, why
        comp = compose_chain(i_mor, p_mor)
        assert all(comp.f(n).f0.mat.is_zero() for n in range(4))

    def test_zero_first_leg(self):
        zf = catalog.z_free()
        zero = TwoModule.zero(ZZ)
        f = OneMor.zero(zero, zf)
        g = OneMor.identity(zf)
        phi = zero_null_homotopy(compose(f, g))
        res_b, _, _ = horseshoe(f, phi, g, resolve(zero, 2), resolve(zf, 2))
        ok, why = validate_resolution(res_b)
        assert ok, why
        assert pi_profile(res_b.target) == ([0], [])

    def test_zero_last_leg(self):
        zf = catalog.z_free()
        zero = TwoModule.zero(ZZ)
        f = OneMor.identity(zf)
        g = OneMor.zero(zf, zero)
        phi = zero_null_homotopy(compose(f, g))
        res_b, _, _ = horseshoe(f, phi, g, resolve(zf, 2), resolve(zero, 2))
        ok, why = validate_resolution(res_b)
        assert ok, why

    def test_non_extension_rejected(self):
        zf = catalog.z_free()
        f = OneMor.zero(zf, zf)
        g = OneMor.zero(zf, zf)
        with pytest.raises(ResolutionError):
            horseshoe(f, zero_null_homotopy(compose(f, g)), g,
                      resolve(zf, 1), resolve(zf, 1))

    def test_degreewise_split(self):
        f, phi, g = catalog.catalog_extension()
        res_b, i_mor, p_mor = horseshoe(f, phi, g,
                                        resolve(f.src, 2), resolve(g.dst, 2))
        for n in range(res_b.depth + 1):
            pn = i_mor.src.module(n).M0.gens
            qn = p_mor.dst.module(n).M0.gens
            assert res_b.module(n).M0.gens == pn + qn


class TestHorseshoeWithHomotopyData:
    """An extension whose middle and right terms have nonzero pi1: the
    stage-1 witness must carry a nonzero homotopy component."""

    def _extension(self):
        a = catalog.z_free()
        b = catalog.zero_map_mod()     # [Z -0-> Z]
        c = catalog.shift_mod()        # [Z -> 0]
        f = OneMor(a, b, ModMor.zero(a.M1, b.M1),
                   ModMor(a.M0, b.M0, Matrix.identity(ZZ, 1)))
        g = OneMor(b, c, ModMor(b.M1, c.M1, Matrix.identity(ZZ, 1)),
                   ModMor.zero(b.M0, c.M0))
        return f, zero_null_homotopy(compose(f, g)), g

    def test_is_extension(self):
        f, phi, g = self._extension()
        assert is_extension(f, phi, g)

    def test_horseshoe_carries_the_cell(self):
        f, phi, g = self._extension()
        res_b, i_mor, p_mor = horseshoe(f, phi, g,
                                        resolve(f.src, 3), resolve(g.dst, 3))
        ok, why = validate_resolution(res_b)
        assert ok, why
        # the covering witness lives in the homotopy component
        assert not res_b.aug_cell_s.mat.is_zero()

    def test_long_sequence_through_homotopy_data(self):
        from twohom.derived import FunctorSpec, check_long_sequence, long_sequence
        f, phi, g = self._extension()
        seq = long_sequence(FunctorSpec.identity(), f, phi, g, 1)
        assert check_long_sequence(seq)
        by = {(e.label, e.degree): pi_profile(e.homology.module)
              for e in seq.entries}
        assert by[("A", 0)] == ([0], [])
        assert by[("B", 0)] == ([0], [0])
        assert by[("C", 0)] == ([], [0])
        # pi1 of the middle and right terms shows up one degree higher
        assert by[("B", 1)] == ([0], [])
        assert by[("C", 1)] == ([0], [])

    def test_compare_lift_driven_by_cells(self):
        # lifting B -> C across resolutions where the stage map is zero
        # and only the homotopy components carry information
        f, phi, g = self._extension()
        res_b = resolve(g.src, 3)
        res_c = resolve(g.dst, 3)
        lift = compare(g, res_b, res_c)
        ok, why = validate_chain_mor(lift.as_chain_mor())
        assert ok, why
        assert not lift.hs[1].f0.mat.is_zero()
        for n in range(4):
            lift.eps(n)


def test_comparison_uniqueness_consequence():
    # any two compare outputs for the same morphism are chain homotopic
    res_src = resolve(catalog.z_free(), 3)
    res_dst = resolve(catalog.z_mod(2), 3)
    base = compare(catalog.projection(), res_src, res_dst)
    tweaked = perturb_lift(base, {0: Matrix.from_rows(ZZ, [[7]])})
    h = homotopy_between_lifts(base, tweaked)
    ok, why = validate_chain_homotopy(h)
    assert ok, why
