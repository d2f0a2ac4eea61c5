import random

import pytest

from twohom import catalog
from twohom.exactlin import Matrix, RingSpec, ZZ
from twohom.fpmod import FPModule, InvalidMorphism, ModMor
from twohom.twomod import (
    OneMor,
    TwoModule,
    biproduct,
    compose,
    is_essentially_surjective,
    is_extension,
    one_mor_equal,
    pi_profile,
    plain_kernel,
    relative_kernel,
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
        # [Z --id--> Z]: d's column is a unit relation, so no generator stays
        p, f = free_cover(catalog.identity_mod())
        assert p.is_free() and p.M0.gens == 0
        assert is_essentially_surjective(f)

    def test_shift_gets_empty_cover(self):
        p, f = free_cover(catalog.shift_mod())
        assert p.M0.gens == 0
        assert is_essentially_surjective(f)

    @staticmethod
    def _cover(ring, rel, d=()):
        """The generators that free_cover keeps of M0 = R^g / rel, with d
        the columns of the structure map from a free M1; the cover must be
        essentially surjective onto identity columns of those generators."""
        g = len(rel[0] if rel else d[0])

        def columns(cs):
            return Matrix(ring, g, len(cs), [c[i] for i in range(g) for c in cs])

        m0, m1 = FPModule(ring, g, columns(rel)), FPModule.free(ring, len(d))
        m = TwoModule(m1, m0, ModMor(m1, m0, columns(d)))
        p, f = free_cover(m)
        assert p.is_free() and is_essentially_surjective(f)
        cols = list(zip(*f.f0.mat.tolists()))
        keep = [c.index(1) for c in cols]
        assert all(sorted(c) == [0] * (g - 1) + [1] for c in cols)
        assert keep == sorted(keep)
        return keep, m

    @staticmethod
    def _needs_all(m, keep):
        """No proper subset of the kept generators covers m: dropping any
        one of them leaves a cover that is not essentially surjective."""
        for j in keep:
            rest = [k for k in keep if k != j]
            p = TwoModule.free(m.ring, len(rest))
            f = OneMor(p, m, ModMor.zero(p.M1, m.M1), ModMor(p.M0, m.M0, Matrix(
                m.ring, m.M0.gens, len(rest),
                [int(i == k) for i in range(m.M0.gens) for k in rest])))
            assert not is_essentially_surjective(f)

    @pytest.mark.parametrize("unit", [1, -1])
    def test_unit_pivot_over_z_drops_its_generator(self, unit):
        keep, m = self._cover(ZZ, [[unit, 3]])
        assert keep == [1]
        self._needs_all(m, keep)

    def test_unit_pivot_mod_12_drops_its_generator(self):
        # 5 is a unit mod 12 although it is no +-1
        keep, m = self._cover(RingSpec.Zmod(12), [[5, 2]])
        assert keep == [1]
        self._needs_all(m, keep)

    def test_unit_relation_from_the_structure_map(self):
        # d's column g0 + 2 g1 is a relation of pi0, as rel's columns are
        keep, _ = self._cover(ZZ, [[0, 4]], d=[[1, 2]])
        assert keep == [1]

    def test_non_unit_pivot_over_z_is_kept(self):
        # Z^2 / (2, 3) is Z, yet neither generator alone generates it
        keep, m = self._cover(ZZ, [[2, 3]])
        assert keep == [0, 1]
        self._needs_all(m, keep)

    def test_non_unit_pivot_mod_12_is_kept(self):
        # gcd(4, 12) = 4: the pivot is no unit, and its Howell row 3 * (4, 3)
        # = (0, 9) pivots on 9, no unit either
        keep, m = self._cover(RingSpec.Zmod(12), [[4, 3]])
        assert keep == [0, 1]
        self._needs_all(m, keep)

    def test_generator_solved_through_a_later_solved_generator(self):
        # g0 = g1 and g1 = -2 g2: g0 reaches the kept g2 only through g1
        for ring in (ZZ, RingSpec.Zmod(12)):
            keep, m = self._cover(ring, [[1, -1, 0], [0, 1, 2]])
            assert keep == [2]
            self._needs_all(m, keep)

    def test_unit_pivot_made_by_elimination(self):
        # no relation has a unit at g0, but (3, 1, 0) - (2, 1, 1) does
        keep, m = self._cover(ZZ, [[2, 1, 1], [3, 1, 0]])
        assert keep == [2]
        self._needs_all(m, keep)


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

    def test_resolution_error_is_a_value_error(self):
        """It means the input is not what it claims, like every other
        input error, so one ``except ValueError`` catches them all."""
        assert issubclass(ResolutionError, ValueError)


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


def _kernel_mats(k):
    return [k.K.M1.rel, k.K.M0.rel, k.K.d.mat, k.incl.mat, k.to_a.mat,
            k.to_b.mat, k.e.f1.mat, k.e.f0.mat, k.eps.s.mat]


def _assert_stage_loop_contract(res):
    """Stage kernel n is the kernel of F_n relative to cell(n), and F_n is
    the stage-n witness followed by the inclusion of stage kernel n - 1."""
    for n in range(res.depth + 1):
        k = relative_kernel(res.f(n), res.cell(n), res.f(n - 1))
        assert _kernel_mats(k) == _kernel_mats(res.kernels[n]), n
        if n >= 1:
            w = compose(res.witnesses[n - 1], res.kernels[n - 1].e)
            assert w.f0.mat == res.f(n).f0.mat, n


class TestStageLoop:
    """resolve and every deepening of a resolution run one stage loop."""

    DEPTH = 3

    @pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(4)], ids=str)
    def test_augmentation_is_stage_zero(self, ring):
        """P_{-1} is the target, F_0 the augmentation and H_{-1} the lifted
        map; stage kernel n is the kernel of F_n relative to cell(n)."""
        one = FPModule.free(ring, 1)
        mul2 = TwoModule(one, one, ModMor(one, one, Matrix(ring, 1, 1, [2])))
        for m in (TwoModule.discrete(FPModule.cyclic(ring, 2)), mul2):
            res = resolve(m, self.DEPTH)
            assert res.f(0) is res.aug and res.module(-1) is res.target
            # the resolution is its stored augmented complex, P_n in degree n + 1
            aug = res.augmented()
            assert aug is res.augmented() and aug.module(1) is res.module(0)
            _assert_stage_loop_contract(res)
            h = OneMor.identity(m)
            lift = compare(h, res, res)
            assert lift.lift(-1) is h and -1 not in lift.hs
            # and it holds one strict complex of the P_n, which lifts sit on
            c = res.complex()
            assert c is res.complex() and c.module(0) is res.module(0)
            chain = lift.as_chain_mor()
            assert chain.src is c and chain.dst is c
        # mul2's augmentation cell is nonzero, so cell(1) is not the zero cell
        assert not res.aug_cell_s.mat.is_zero()

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

    def test_extending_is_resolving_deeper(self):
        """Extending resolve(m, d) to depth D, as compare does to the
        shallower side, gives resolve(m, D), stage for stage, whether
        resolve(m, d) has terminated or not."""
        seen = set()
        for m in _stage_loop_inputs():
            full = resolve(m, self.DEPTH)
            for d in range(self.DEPTH):
                res = resolve(m, d)
                ext = compare(OneMor.identity(m), res, full).res_src
                assert ext.depth == self.DEPTH
                assert ext.terminated == full.terminated
                assert _stages(ext, self.DEPTH) == _stages(full, self.DEPTH)
                seen.add(res.terminated)
        assert seen == {False, True}

    def test_horseshoe_and_product_run_the_loop(self):
        """horseshoe and product_resolution keep the contract of resolve."""
        exts = [catalog.catalog_extension()]
        exts += [_zp_extension(n, p) for n, p in ((4, 2), (9, 3), (27, 3))]
        bp = biproduct(*_z12_split_ends())
        exts.append((bp.inj1, zero_null_homotopy(compose(bp.inj1, bp.proj2)),
                     bp.proj2))
        for f, phi, g in exts:
            res_a, res_c = resolve(f.src, self.DEPTH), resolve(g.dst, self.DEPTH)
            res_b, _, _ = horseshoe(f, phi, g, res_a, res_c)
            prod, _ = product_resolution(res_a, res_c)
            for res in (res_b, prod):
                assert res.depth == self.DEPTH
                _assert_stage_loop_contract(res)


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

    def test_mixed_depths_resolve_the_shallower_further(self):
        """Over Z/12 the resolution of M = [0 -> Z/12/(4)] never terminates,
        so the shallower side must be resolved further, not padded with
        zero stages, which are no resolution."""
        r12 = RingSpec.Zmod(12)
        m = TwoModule.discrete(FPModule.cyclic(r12, 4))
        deep, shallow = resolve(m, 3), resolve(m, 2)
        assert not deep.terminated
        for src, dst in ((deep, shallow), (shallow, deep)):
            lift = compare(OneMor.identity(m), src, dst)
            ok, why = validate_chain_mor(lift.as_chain_mor())
            assert ok, why
            assert lift.res_src.depth == lift.res_dst.depth == 3


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


def _z12_split_ends():
    """[0 -> Z/12/(4)] and [0 -> Z/12/(6)], whose resolutions never stop."""
    r12 = RingSpec.Zmod(12)
    return tuple(TwoModule.discrete(FPModule.cyclic(r12, k)) for k in (4, 6))


def _zp_extension(n, p):
    """[Z/p -> 0] -> [Z/n -p-> Z/n] -> [0 -> Z/p] over Z/n, for n = p^2 or
    p^3."""
    r = RingSpec.Zmod(n)
    zp = FPModule(r, 1, Matrix.from_rows(r, [[p]]))
    one, zero = FPModule.free(r, 1), FPModule.zero(r)
    a = TwoModule(zp, zero, ModMor.zero(zp, zero))
    b = TwoModule(one, one, ModMor(one, one, Matrix.from_rows(r, [[p]])))
    c = TwoModule.discrete(zp)
    f = OneMor(a, b, ModMor(zp, one, Matrix.from_rows(r, [[n // p]])),
               ModMor.zero(zero, one))
    g = OneMor(b, c, ModMor.zero(one, c.M1),
               ModMor(one, zp, Matrix.from_rows(r, [[1]])))
    return f, zero_null_homotopy(compose(f, g)), g


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

    def test_unequal_depths_stay_a_resolution(self):
        # over Z/12 neither factor's resolution terminates, so the shallower
        # one is resolved further; zero stages would break exactness at P_1
        a, c = _z12_split_ends()
        prod, _ = product_resolution(resolve(a, 3), resolve(c, 2))
        assert prod.depth == 3
        ok, why = validate_resolution(prod)
        assert ok, why


def _random_extension(rng, ring):
    """A random extension Ker G -> B -> C: B a small 2-module, C.M0 cyclic
    with at most one degree-1 generator, G essentially surjective."""
    def mat(rows, cols):
        return Matrix(ring, rows, cols,
                      [rng.randint(-3, 3) for _ in range(rows * cols)])
    while True:
        g0, rc, g1 = rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2)
        b0, b1 = FPModule(ring, g0, mat(g0, rc)), FPModule.free(ring, g1)
        b = TwoModule(b1, b0, ModMor(b1, b0, mat(g0, g1), check=False),
                      check=False)
        c0 = FPModule.cyclic(ring, rng.choice([0, 2, 3, 4, 6]))
        c1 = FPModule.free(ring, rng.randint(0, 1))
        c = TwoModule(c1, c0, ModMor(c1, c0, mat(1, c1.gens), check=False),
                      check=False)
        try:
            g = OneMor(b, c, ModMor(b1, c1, mat(c1.gens, g1)),
                       ModMor(b0, c0, mat(1, g0)))
        except InvalidMorphism:
            continue
        if not is_essentially_surjective(g):
            continue
        k = plain_kernel(g)
        if is_extension(k.e, k.eps, g):
            return k.e, k.eps, g


class TestHorseshoe:
    def test_catalog_extension(self):
        f, phi, g = catalog.catalog_extension()
        res_a, res_c = resolve(f.src, 3), resolve(g.dst, 3)
        res_b, i_mor, p_mor = horseshoe(f, phi, g, res_a, res_c)
        ok, why = validate_resolution(res_b)
        assert ok, why
        assert [p.M0.gens for p in res_b.modules] == [2, 1, 0, 0]
        # both chain maps sit on the resolutions' own complexes
        assert i_mor.src is res_a.complex() and p_mor.dst is res_c.complex()
        assert i_mor.dst is p_mor.src is res_b.complex()
        ok, why = validate_chain_mor(i_mor)
        assert ok, why
        ok, why = validate_chain_mor(p_mor)
        assert ok, why
        comp = compose_chain(i_mor, p_mor)
        assert all(comp.f(n).f0.mat.is_zero() for n in range(4))

    def test_stage_two_keeps_the_augmentation_cell(self):
        # [Z/p -> 0] -> [Z/n -p-> Z/n] -> [0 -> Z/p] over Z/n with n = p^2 or
        # p^3: A's augmentation cell is nonzero, B has a degree-1 generator
        # and C's resolution never stops, so stage 2 must also keep B's
        # augmentation cell compatible with d_1 d_2
        for n, p in ((4, 2), (9, 3), (27, 3)):
            f, phi, g = _zp_extension(n, p)
            res_a, res_c = resolve(f.src, 3), resolve(g.dst, 3)
            assert not res_a.aug_cell_s.mat.is_zero()
            assert res_c.module(2).M0.gens > 0
            res_b, i_mor, p_mor = horseshoe(f, phi, g, res_a, res_c)
            for ok, why in (validate_resolution(res_b),
                            validate_chain_mor(i_mor),
                            validate_chain_mor(p_mor)):
                assert ok, (n, why)
            assert pi_profile(res_b.target) == ([p], [p])

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

    def test_unequal_depths_stay_a_resolution(self):
        a, c = _z12_split_ends()
        bp = biproduct(a, c)
        f, g = bp.inj1, bp.proj2
        phi = zero_null_homotopy(compose(f, g))
        for da, dc in ((3, 2), (2, 3)):
            res_b, i_mor, p_mor = horseshoe(f, phi, g, resolve(a, da),
                                            resolve(c, dc))
            assert res_b.depth == 3
            for ok, why in (validate_resolution(res_b),
                            validate_chain_mor(i_mor),
                            validate_chain_mor(p_mor)):
                assert ok, (da, dc, why)

    @pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
    def test_random_non_split_extensions(self, ring):
        """Ker G -> B -> C for a random essentially surjective G onto a
        2-module C with cyclic C.M0, at depths 0, 2 and 3: B's stage n is
        P_n (+) Q_n, and res_b, i and p validate."""
        rng = random.Random(5)
        for _ in range(20):
            f, phi, g = _random_extension(rng, ring)
            for depth in (0, 2, 3):
                res_a, res_c = resolve(f.src, depth), resolve(g.dst, depth)
                res_b, i_mor, p_mor = horseshoe(f, phi, g, res_a, res_c)
                for ok, why in (validate_resolution(res_b),
                                validate_chain_mor(i_mor),
                                validate_chain_mor(p_mor)):
                    assert ok, (depth, why)
                assert [p.M0.gens for p in res_b.modules] == [
                    res_a.module(n).M0.gens + res_c.module(n).M0.gens
                    for n in range(depth + 1)]

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
