import random

import pytest
from hypothesis import given, settings, strategies as st

from twohom.exactlin import (DimensionMismatch, Matrix, RingSpec, ZZ, hstack,
                             vstack)
from twohom.fpmod import (
    FPModule,
    InvalidMorphism,
    ModMor,
    cokernel,
    compose,
    direct_sum,
    equal_mor,
    factor_through,
    hom_basis,
    invariant_factors,
    is_epi,
    is_exact_at,
    is_mono,
    is_valid_mor,
    kernel,
    tensor,
    tensor_mor,
)

Z1 = FPModule.free(ZZ, 1)
Z2 = FPModule.cyclic(ZZ, 2)
Z3 = FPModule.cyclic(ZZ, 3)
Z4 = FPModule.cyclic(ZZ, 4)
Z6 = FPModule.cyclic(ZZ, 6)


def m(rows):
    return Matrix.from_rows(ZZ, rows)


class TestValidity:
    def test_projection_valid(self):
        assert is_valid_mor(ModMor(Z1, Z2, m([[1]]), check=False))

    def test_torsion_to_free_invalid(self):
        with pytest.raises(InvalidMorphism):
            ModMor(Z2, Z1, m([[1]]))

    def test_doubling_into_z4(self):
        assert is_valid_mor(ModMor(Z2, Z4, m([[2]]), check=False))


class TestEquality:
    def test_reflexive(self):
        f = ModMor(Z1, Z2, m([[1]]))
        assert equal_mor(f, f)

    def test_differ_by_relation(self):
        assert equal_mor(ModMor(Z1, Z2, m([[1]])), ModMor(Z1, Z2, m([[3]])))

    def test_distinct_on_free(self):
        assert not equal_mor(ModMor(Z1, Z1, m([[1]])),
                             ModMor(Z1, Z1, m([[2]])))

    def test_congruence_for_composition(self):
        f = ModMor(Z1, Z2, m([[1]]))
        g = ModMor(Z1, Z2, m([[3]]))
        h = ModMor(Z2, Z4, m([[2]]))
        assert equal_mor(compose(f, h), compose(g, h))


class TestKernelCokernel:
    def test_kernel_of_injection_trivial(self):
        k, _ = kernel(ModMor(Z1, Z1, m([[2]])))
        assert invariant_factors(k) == []

    def test_kernel_of_projection(self):
        k, incl = kernel(ModMor(Z1, Z2, m([[1]])))
        assert invariant_factors(k) == [0]
        assert incl.mat.tolists() in ([[2]], [[-2]])

    def test_kernel_of_zero(self):
        k, incl = kernel(ModMor.zero(Z1, Z1))
        assert invariant_factors(k) == [0]
        assert abs(incl.mat.entry(0, 0)) == 1

    def test_cokernel_of_doubling(self):
        q = cokernel(ModMor(Z1, Z1, m([[2]])))
        assert invariant_factors(q) == [2]

    def test_cokernel_of_identity(self):
        q = cokernel(ModMor.identity(Z1))
        assert invariant_factors(q) == []

    def test_cokernel_into_z6(self):
        q = cokernel(ModMor(Z1, Z6, m([[2]])))
        assert invariant_factors(q) == [2]

    def test_universal_property_randomized(self):
        rng = random.Random(11)
        count = 0
        while count < 100:
            gens = rng.randint(1, 3)
            rcols = rng.randint(0, 3)
            rel = Matrix(ZZ, gens, rcols,
                         [rng.randint(-4, 4) for _ in range(gens * rcols)])
            src = FPModule(ZZ, gens, rel)
            basis = hom_basis(src, Z4)
            if not basis:
                continue
            f = ModMor(src, Z4, sum((b.scale(rng.randint(-2, 2)) for b in basis),
                                    Matrix.zeros(ZZ, 1, gens)))
            k, incl = kernel(f)
            # anything composing to zero factors uniquely through the kernel
            free = FPModule.free(ZZ, rng.randint(1, 2))
            gens_k = incl.mat
            coeff = Matrix(ZZ, k.gens, free.gens,
                           [rng.randint(-3, 3) for _ in range(k.gens * free.gens)])
            g = ModMor(free, src, gens_k @ coeff, check=False)
            h = factor_through(incl, g)
            assert equal_mor(compose(h, incl), g)
            # uniqueness up to equal_mor: two factorizations agree
            h2 = factor_through(incl, g)
            assert equal_mor(h, h2)
            count += 1


class TestCokernelUniversal:
    def test_annihilating_morphisms_factor(self):
        rng = random.Random(13)
        for _ in range(50):
            k = rng.choice([2, 3, 4, 6])
            f = ModMor(Z1, Z1, m([[k]]))
            q = cokernel(f)
            proj = ModMor(Z1, q, m([[1]]))
            # any morphism killing the image factors through proj
            w = FPModule.cyclic(ZZ, k)
            g = ModMor(Z1, w, m([[rng.randint(-3, 3)]]))
            assert compose(f, g).is_zero_mor()
            h = ModMor(q, w, g.mat)  # same matrix, now from the quotient
            assert equal_mor(compose(proj, h), g)
            # unique up to equal_mor: shifting by a target relation changes
            # nothing
            h2 = ModMor(q, w, g.mat + m([[k]]), check=False)
            assert equal_mor(h, h2)


def test_composition_of_valid_morphisms_is_valid():
    f = ModMor(Z1, Z2, m([[1]]))
    g = ModMor(Z2, Z4, m([[2]]))
    assert is_valid_mor(compose(f, g))


class TestDirectSum:
    def test_block_presentation(self):
        s, *_ = direct_sum(Z1, Z2)
        assert s.gens == 2
        assert invariant_factors(s) == [2, 0]

    def test_unit(self):
        s, *_ = direct_sum(Z2, FPModule.zero(ZZ))
        assert invariant_factors(s) == invariant_factors(Z2)

    def test_crt(self):
        s, *_ = direct_sum(Z2, Z3)
        assert invariant_factors(s) == [6]

    def test_biproduct_equations(self):
        s, i1, i2, p1, p2 = direct_sum(Z2, Z3)
        assert equal_mor(compose(i1, p1), ModMor.identity(Z2))
        assert equal_mor(compose(i2, p2), ModMor.identity(Z3))
        assert compose(i1, p2).is_zero_mor()
        total = compose(p1, i1).mat + compose(p2, i2).mat
        assert total == Matrix.identity(ZZ, 2)

    def test_invariant_factors_oracle_agreement(self):
        rng = random.Random(5)
        for _ in range(25):
            a = FPModule.cyclic(ZZ, rng.choice([0, 2, 3, 4, 6]))
            b = FPModule.cyclic(ZZ, rng.choice([0, 2, 3, 4, 6]))
            s, *_ = direct_sum(a, b)
            stacked = FPModule(ZZ, 2, Matrix.from_rows(ZZ, [
                [a.rel.entry(0, 0) if a.rel.cols else 0, 0],
                [0, b.rel.entry(0, 0) if b.rel.cols else 0]]))
            assert invariant_factors(s) == invariant_factors(stacked)


class TestTensor:
    def test_z4_z6(self):
        assert invariant_factors(tensor(Z4, Z6)) == [2]

    def test_free_unit(self):
        mmod = FPModule(ZZ, 2, m([[2, 0], [0, 3]]))
        assert invariant_factors(tensor(mmod, Z1)) == invariant_factors(mmod)

    def test_coprime_annihilation(self):
        assert invariant_factors(tensor(Z2, Z3)) == []

    def test_functoriality(self):
        f = ModMor(Z1, Z2, m([[1]]))
        g = ModMor(Z2, Z4, m([[2]]))
        lhs = tensor_mor(compose(f, g), Z6)
        rhs = compose(tensor_mor(f, Z6), tensor_mor(g, Z6))
        assert equal_mor(lhs, rhs)

    def test_right_exactness(self):
        f = ModMor(Z1, Z2, m([[1]]))  # epi
        assert is_epi(f)
        assert is_epi(tensor_mor(f, Z4))


class TestInvariantFactors:
    def test_diag(self):
        mod = FPModule(ZZ, 2, m([[2, 0], [0, 3]]))
        assert invariant_factors(mod) == [6]

    def test_free(self):
        assert invariant_factors(FPModule.free(ZZ, 2)) == [0, 0]

    def test_trivial(self):
        assert invariant_factors(FPModule(ZZ, 1, m([[1]]))) == []

    def test_zmod_canonical(self):
        r4 = RingSpec.Zmod(4)
        free_rank1 = FPModule.free(r4, 1)
        assert invariant_factors(free_rank1) == [4]
        sub = FPModule(r4, 1, Matrix.from_rows(r4, [[2]]))
        assert invariant_factors(sub) == [2]

    @pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
    def test_an_empty_smith_form_is_not_built(self, ring, monkeypatch):
        """A module with no generators, or with no relations, has an empty
        Smith form; its factors are read off the shape, as the Smith form
        states them, with no snf call."""
        from twohom import fpmod

        fill = 12 if ring.is_modular else 0
        mods = [(FPModule.zero(ring), []),
                (FPModule(ring, 0, Matrix.zeros(ring, 0, 3)), []),
                (FPModule.free(ring, 3), [fill] * 3)]
        for mod, _ in mods:   # the Smith form of an empty matrix agrees
            D, = fpmod.snf(mod.rel, "D")
            assert D.rows == mod.gens and D.is_zero()

        def boom(*args):
            raise AssertionError("Smith form built")

        monkeypatch.setattr(fpmod, "snf", boom)
        for mod, want in mods:
            assert invariant_factors(mod) == want


def test_exactness_checker():
    two = ModMor(Z1, Z1, m([[2]]))
    proj = ModMor(Z1, Z2, m([[1]]))
    assert is_exact_at(two, proj)
    assert not is_exact_at(ModMor.zero(Z1, Z1), proj)


@pytest.mark.parametrize("n", [0, 4, 12], ids=["Z", "Z/4", "Z/12"])
def test_exactness_agrees_with_solving_and_builds_no_smith_form(n, monkeypatch):
    """Exactness at B of f: R^k -> B and the projection g: B -> B / im(h),
    for f = h, a multiple of h or h less a column, agrees with solving
    [f | rel B] for g's kernel generators, and the check builds no Smith
    form."""
    import twohom.exactlin as exactlin
    import twohom.fpmod as fpmod
    from twohom.exactlin import solve_many

    ring = RingSpec.Zmod(n) if n else ZZ
    rng = random.Random(f"exact {n}")
    pairs = []
    for _ in range(40):
        b, r, k = rng.randint(1, 4), rng.randint(0, 3), rng.randint(1, 3)
        B = FPModule(ring, b, Matrix(ring, b, r, [rng.randint(-6, 6)
                                                  for _ in range(b * r)]))
        h = Matrix(ring, b, k, [rng.randint(-6, 6) for _ in range(b * k)])
        g = ModMor(B, cokernel(ModMor(FPModule.free(ring, k), B, h)),
                   Matrix.identity(ring, b))
        for mat in (h, h.scale(rng.choice([2, 3])), h[:, 1:]):
            f = ModMor(FPModule.free(ring, mat.cols), B, mat)
            want = solve_many(hstack([f.mat, B.rel]), kernel(g)[1].mat) is not None
            pairs.append((f, g, want))

    def boom(*args):
        raise AssertionError("Smith form built")

    monkeypatch.setattr(exactlin, "snf", boom)
    monkeypatch.setattr(fpmod, "snf", boom)
    assert [is_exact_at(f, g) for f, g, _ in pairs] == [w for _, _, w in pairs]
    assert {w for _, _, w in pairs} == {True, False}


def test_mono_epi():
    assert is_mono(ModMor(Z1, Z1, m([[2]])))
    assert not is_epi(ModMor(Z1, Z1, m([[2]])))
    assert is_epi(ModMor(Z1, Z2, m([[1]])))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_hom_basis_members_are_valid(a, b):
    src = FPModule.cyclic(ZZ, a)
    dst = FPModule.cyclic(ZZ, b)
    for t in hom_basis(src, dst):
        assert is_valid_mor(ModMor(src, dst, t, check=False))


def test_a_module_equals_itself_without_comparing_matrices(monkeypatch):
    a = FPModule(ZZ, 2, m([[2, 0], [0, 3]]))

    def boom(self, other):
        raise AssertionError("matrices compared")

    monkeypatch.setattr(Matrix, "__eq__", boom)
    assert a == a
    with pytest.raises(AssertionError):
        a == FPModule(ZZ, 2, m([[2, 0], [0, 3]]))


def test_equal_modules_hash_alike():
    a = FPModule(ZZ, 2, m([[2, 0], [0, 3]]))
    b = FPModule(ZZ, 2, m([[2, 0], [0, 3]]))
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != FPModule(ZZ, 2, m([[2, 0], [0, 5]]))
    assert a != FPModule(RingSpec.Zmod(6), 2, Matrix.from_rows(
        RingSpec.Zmod(6), [[2, 0], [0, 3]]))


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
def test_a_module_is_a_slotted_value(ring):
    import copy
    import pickle

    rel = [[2, 0, -1], [0, 3, 7]]
    a = FPModule(ring, 2, Matrix.from_rows(ring, rel))
    b = FPModule(ring=ring, gens=2, rel=Matrix.from_rows(ring, rel))
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((ring, 2, a.rel))
    assert not hasattr(a, "__dict__")
    reduced = rel if ring is ZZ else [[2, 0, 11], [0, 3, 7]]
    assert repr(a) == f"FPModule({ring}, gens=2, rel={reduced})"
    assert repr(FPModule.free(ring, 1)) == f"FPModule({ring}, gens=1, rel=[[]])"
    assert repr(FPModule.zero(ring)) == f"FPModule({ring}, gens=0, rel=[])"
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
    with pytest.raises(DimensionMismatch, match="3 rows for 2 generators"):
        FPModule(ring, 2, Matrix.zeros(ring, 3, 1))
    other = ZZ if ring.is_modular else RingSpec.Zmod(12)
    with pytest.raises(DimensionMismatch, match="wrong ring"):
        FPModule(ring, 2, Matrix.zeros(other, 2, 1))


def _old_kernel_generators(f):
    """The Smith-form path Z kernels took before: syzygies of
    [f.mat | dst.rel] from kernel_basis, projected to source coordinates,
    then column_basis."""
    from twohom.exactlin import hstack, kernel_basis
    from twohom.fpmod import column_basis

    syz = kernel_basis(hstack([f.mat, f.dst.rel]))
    return column_basis(Matrix(ZZ, f.src.gens, syz.cols, syz.arr[:f.src.gens, :]))


def _draw_matrix(data, rows, cols, ints):
    n = rows * cols
    return Matrix(ZZ, rows, cols, data.draw(st.lists(ints, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_over_z_matches_the_smith_form_path(data):
    t, g, r = (data.draw(st.integers(0, 6)) for _ in range(3))
    ints = st.integers(-1000, 1000) if data.draw(st.booleans()) else st.integers(-3, 3)
    if data.draw(st.booleans()):    # rank below min(t, g) when that is positive
        k = data.draw(st.integers(0, max(min(t, g) - 1, 0)))
        fmat = _draw_matrix(data, t, k, ints) @ _draw_matrix(data, k, g, ints)
    else:
        fmat = _draw_matrix(data, t, g, ints)
    f = ModMor(FPModule.free(ZZ, g), FPModule(ZZ, t, _draw_matrix(data, t, r, ints)),
               fmat, check=False)
    assert kernel(f)[1].mat == _old_kernel_generators(f)


@pytest.mark.parametrize("t, g, r", [(0, 3, 0), (0, 3, 2), (3, 0, 2), (0, 0, 0),
                                     (2, 4, 0)])
def test_kernel_over_z_matches_the_smith_form_path_at_the_edges(t, g, r):
    rng = random.Random(f"{t} {g} {r}")
    rel = Matrix(ZZ, t, r, [rng.randint(-9, 9) for _ in range(t * r)])
    fmat = Matrix(ZZ, t, g, [rng.randint(-9, 9) for _ in range(t * g)])
    f = ModMor(FPModule.free(ZZ, g), FPModule(ZZ, t, rel), fmat, check=False)
    cols = kernel(f)[1].mat
    assert cols == _old_kernel_generators(f)
    assert cols.shape == (g, g if t == 0 else cols.cols)


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(6)], ids=str)
def test_is_zero_mor_agrees_with_comparing_to_the_zero_map(ring, monkeypatch):
    """Random maps out of a free module: zero, nonzero matrices that are
    zero only modulo the target's relations, and random ones."""
    rng = random.Random(f"is_zero_mor {ring}")

    def ints(k):
        return [rng.randint(-3, 3) for _ in range(k)]

    maps = []
    for _ in range(300):
        gens, rels, k = rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2)
        dst = FPModule(ring, gens, Matrix(ring, gens, rels, ints(gens * rels)))
        src = FPModule.free(ring, k)
        kind = rng.randrange(3)
        if kind == 1 and rels:
            mat = dst.rel @ Matrix(ring, rels, k, ints(rels * k))
        elif kind == 2:
            mat = Matrix(ring, gens, k, ints(gens * k))
        else:
            mat = Matrix.zeros(ring, gens, k)
        maps.append(ModMor(src, dst, mat, check=False))
    verdicts = [equal_mor(f, ModMor.zero(f.src, f.dst)) for f in maps]
    assert True in verdicts and False in verdicts
    assert any(v and not f.mat.is_zero() for f, v in zip(maps, verdicts))

    def boom(*args):
        raise AssertionError("zero map built")

    monkeypatch.setattr(ModMor, "zero", staticmethod(boom))
    assert [f.is_zero_mor() for f in maps] == verdicts


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
def test_kernel_builds_no_smith_form(ring, monkeypatch):
    """fpmod.kernel runs with every Smith-form entry point patched to raise,
    on random maps between modules with relations, and its inclusion still
    lands in the kernel."""
    from twohom import exactlin, fpmod

    rng = random.Random(f"kernel without snf {ring}")

    def rand(rows, cols):
        return Matrix(ring, rows, cols, [rng.randint(-6, 6) for _ in range(rows * cols)])

    maps = []
    for _ in range(200):
        t, g, r, s = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 2)
        maps.append(ModMor(FPModule(ring, g, rand(g, s)), FPModule(ring, t, rand(t, r)),
                           rand(t, g), check=False))

    def boom(*args):
        raise AssertionError("Smith form built")

    monkeypatch.setattr(exactlin, "snf", boom)
    for name in ("snf", "kernel_basis", "column_basis"):
        monkeypatch.setattr(fpmod, name, boom)
    kernels = [kernel(f) for f in maps]
    monkeypatch.undo()
    assert any(K.gens and K.rel.cols for K, _ in kernels)
    for f, (_, incl) in zip(maps, kernels):
        assert f.dst.contains(f.mat @ incl.mat)


@pytest.mark.parametrize("n", [16, 20, 24])
def test_dense_z_kernels_finish(n):
    """fpmod.kernel of a dense map Z^2n -> Z^n / <n/2 relations>, entries in
    [-9, 9], finishes under a 10 s alarm (with xgcd mixing in the echelon
    pass, each n here ran past it), gives a Hermite basis, and
    spans, by solve_many both ways, what the first 2n rows of the Smith-form
    syzygies of [F | rel] span."""
    import signal

    from twohom.exactlin import hstack, kernel_basis, solve_many

    def too_slow(signum, frame):
        raise TimeoutError(f"dense kernels at n = {n} took over 10 s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        for seed in range(3):
            rng = random.Random(f"dense kernel {n} {seed}")
            rel = Matrix(ZZ, n, n // 2, [rng.randint(-9, 9) for _ in range(n * (n // 2))])
            fmat = Matrix(ZZ, n, 2 * n, [rng.randint(-9, 9) for _ in range(2 * n * n)])
            f = ModMor(FPModule.free(ZZ, 2 * n), FPModule(ZZ, n, rel), fmat,
                       check=False)
            cols = kernel(f)[1].mat
            rows = cols.transpose().tolists()
            leads = [next(j for j, x in enumerate(row) if x) for row in rows]
            assert leads == sorted(set(leads))
            for i, j in enumerate(leads):
                assert rows[i][j] > 0
                assert all(0 <= rows[k][j] < rows[i][j] for k in range(i))
            syz = kernel_basis(hstack([fmat, rel]))[:2 * n]
            assert solve_many(cols, syz) is not None
            assert solve_many(syz, cols) is not None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestContains:
    """Membership reduces each column against the echelon rows of the
    relation matrix, with Howell rows over Z/n; it answers as solving, off
    the Smith form, does."""

    @staticmethod
    def agree(rel, cols):
        from twohom.exactlin import solve_many

        got = FPModule(rel.ring, rel.rows, rel).contains(cols)
        assert got == (solve_many(rel, cols) is not None)
        return got

    @pytest.mark.parametrize("n", [0, 4, 6, 8, 9, 12],
                             ids=["Z", "Z/4", "Z/6", "Z/8", "Z/9", "Z/12"])
    def test_agrees_with_solving_on_seeded_inputs(self, n):
        ring = RingSpec.Zmod(n) if n else ZZ
        rng = random.Random(f"contains {n}")

        def mat(r, c, density=1.0):
            return Matrix(ring, r, c, [rng.randint(-9, 9) if rng.random() < density
                                       else 0 for _ in range(r * c)])

        seen = set()
        shapes = [(0, 3), (3, 0), (0, 0), (4, 4)]
        shapes += [(rng.randint(1, 6), rng.randint(0, 6)) for _ in range(120)]
        for r, c in shapes:
            rel = mat(r, c, rng.choice([0.0, 0.4, 1.0]))
            k = rng.randint(0, 3)
            inside = rel @ mat(c, k)
            for cols in (Matrix.zeros(ring, r, k), inside, mat(r, k),
                         inside + mat(r, k, 0.2)):
                seen.add(self.agree(rel, cols))
        assert seen == {True, False}

    def test_agrees_with_solving_on_the_engine_golden_inputs(self):
        from test_golden_engine import cases

        answers = [self.agree(a, b) for a, b in cases()]
        assert True in answers and False in answers

    def test_a_multiple_of_a_relation_by_a_zero_divisor(self):
        """Over Z/4, (0, 2) = 2 (2, 1) lies in the span of (2, 1): only the
        Howell row 2 (2, 1) = (0, 2) of the pivot 2 shows it."""
        z4 = RingSpec.Zmod(4)
        rel = Matrix.from_rows(z4, [[2], [1]])
        assert self.agree(rel, Matrix.from_rows(z4, [[0], [2]]))
        assert not self.agree(rel, Matrix.from_rows(z4, [[0], [1]]))
        assert self.agree(rel, Matrix.from_rows(z4, [[2, 0], [1, 2]]))
        assert not self.agree(rel, Matrix.from_rows(z4, [[0, 0], [2, 3]]))

    @pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(6)], ids=["Z", "Z/6"])
    def test_zero_columns_and_zero_generators(self, ring):
        """No relations span only zero; no generators hold only zero; a zero
        relation column spans nothing more."""
        none = Matrix.zeros(ring, 2, 0)
        assert self.agree(none, Matrix.zeros(ring, 2, 3))
        assert not self.agree(none, Matrix.from_rows(ring, [[0], [1]]))
        assert self.agree(Matrix.zeros(ring, 0, 3), Matrix.zeros(ring, 0, 2))
        assert FPModule.zero(ring).contains(Matrix.zeros(ring, 0, 4))
        rel = Matrix.from_rows(ring, [[0, 3, 0], [0, 0, 0]])
        assert self.agree(rel, Matrix.from_rows(ring, [[3], [0]]))
        assert not self.agree(rel, Matrix.from_rows(ring, [[1], [0]]))
        assert not self.agree(rel, Matrix.from_rows(ring, [[0], [2]]))
        with pytest.raises(DimensionMismatch):
            FPModule(ring, 2, rel).contains(Matrix.zeros(ring, 3, 1))

    @pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=["Z", "Z/12"])
    def test_the_echelon_rows_are_built_once_per_relation_matrix(
            self, ring, monkeypatch):
        """Every membership test on one relation matrix reads one echelon
        pass, kept on that matrix and built with no Smith form; a row slice
        or a stack of it is another matrix, with no rows of its own yet."""
        import twohom.exactlin as exactlin

        passes, smith = [], []
        real_echelon, real_snf = exactlin._echelon, exactlin.snf
        monkeypatch.setattr(exactlin, "_echelon",
                            lambda *a: passes.append(1) or real_echelon(*a))
        monkeypatch.setattr(exactlin, "snf",
                            lambda *a: smith.append(1) or real_snf(*a))
        rel = Matrix.from_rows(ring, [[2, 4, 0], [0, 6, 3], [1, 1, 1]])
        mod = FPModule(ring, 3, rel)
        for cols in ([[2], [0], [1]], [[1], [0], [0]], [[6, 4], [9, 6], [3, 2]]):
            mod.contains(Matrix.from_rows(ring, cols))
        f = ModMor(mod, mod, Matrix.identity(ring, 3))
        assert equal_mor(f, f) and f.is_zero_mor() is False
        assert (len(passes), smith) == (1, [])
        stacks = [rel[0:3], vstack([rel, rel]), hstack([rel, rel])]
        assert all(s._span is None for s in stacks)
        assert FPModule(ring, 3, rel[0:3]).contains(rel[:, 0:1])
        assert len(passes) == 2
