import itertools
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twohom.exactlin import (
    DimensionMismatch,
    Matrix,
    RingSpec,
    ZZ,
    block_diag,
    column_basis,
    det,
    hnf,
    hstack,
    kernel_basis,
    kron,
    snf,
    solve_many,
    unvec,
    vec,
    vstack,
)
from twohom.fpmod import FPModule, invariant_factors
from test_golden_engine import cases


def mat(rows, ring=ZZ):
    return Matrix.from_rows(ring, rows)


def random_zmod(rng, n, rows, cols):
    """Each entry a random multiple of a random divisor of n, so that
    torsion (Smith entries other than 0 and 1) is common."""
    divisors = [g for g in range(1, n + 1) if n % g == 0]
    return Matrix(RingSpec.Zmod(n), rows, cols,
                  [rng.randrange(0, n, rng.choice(divisors))
                   for _ in range(rows * cols)])


def all_columns(n, c):
    """Every vector of (Z/n)^c, one per row."""
    return np.array(list(itertools.product(range(n), repeat=c)),
                    dtype=object).reshape(-1, c)


# the exhaustive mod-n tests: every n up to 8, then two with square factors
EXHAUSTIVE_NS = [*range(2, 10), 12]


def assert_hermite_of(h, a):
    """H is a row Hermite form of A: the same shape, the same row span (each
    transpose solves for the other's), row echelon with zero rows last, and
    the module docstring's pivot conventions: over Z pivots are positive,
    over Z/n they divide n, and the entries above a pivot lie in
    [0, pivot)."""
    assert h.shape == a.shape and h.ring == a.ring
    assert solve_many(a.transpose(), h.transpose()) is not None
    assert solve_many(h.transpose(), a.transpose()) is not None
    rows = h.tolists()
    leads = [next((j for j, x in enumerate(row) if x), None) for row in rows]
    nonzero = [j for j in leads if j is not None]
    assert leads[:len(nonzero)] == nonzero           # zero rows come last
    assert nonzero == sorted(set(nonzero))           # strictly to the right
    for i, j in enumerate(nonzero):
        p = rows[i][j]
        assert p > 0
        if a.ring.is_modular:
            assert a.ring.n % p == 0
        assert all(0 <= rows[k][j] < p for k in range(i))


class TestHNF:
    def test_gcd_column(self):
        a = mat([[4], [6]])
        h = hnf(a)
        assert h.tolists() == [[2], [0]]
        assert_hermite_of(h, a)

    def test_identity_fixed_point(self):
        a = Matrix.identity(ZZ, 2)
        assert hnf(a) == a

    def test_zero_matrix(self):
        a = mat([[0, 0]])
        assert hnf(a).tolists() == [[0, 0]]

    def test_pivots_positive_and_reduced(self):
        a = mat([[2, 7], [0, 3]])
        h = hnf(a)
        assert_hermite_of(h, a)
        # pivot 3 in the second row; the entry above it lies in [0, 3)
        assert h.entry(0, 0) > 0
        assert 0 <= h.entry(0, 1) < h.entry(1, 1)

    def test_zmod_pivots_divide_n(self):
        r = RingSpec.Zmod(12)
        a = Matrix.from_rows(r, [[4, 1], [6, 2]])
        h = hnf(a)
        assert_hermite_of(h, a)
        for i in range(2):
            row = [h.entry(i, j) for j in range(2)]
            nz = [x for x in row if x]
            if nz:
                assert 12 % nz[0] == 0
        # and every Z/n input of the engine golden, which pins each H
        for a, _ in cases():
            if a.ring.is_modular:
                assert_hermite_of(hnf(a), a)


class TestSNF:
    def test_diag_2_3(self):
        a = mat([[2, 0], [0, 3]])
        d, u, v = snf(a)
        assert d.tolists() == [[1, 0], [0, 6]]
        assert u @ a @ v == d

    def test_identity(self):
        a = Matrix.identity(ZZ, 3)
        d, _, _ = snf(a)
        assert d == a

    def test_row_gcd(self):
        a = mat([[2, 4]])
        d, u, v = snf(a)
        assert d.tolists() == [[2, 0]]
        assert u @ a @ v == d

    def test_empty_shapes(self):
        for ring in (ZZ, RingSpec.Zmod(12)):
            for r, c in [(0, 0), (0, 3), (3, 0)]:
                a = Matrix.zeros(ring, r, c)
                d, u, v = snf(a)
                assert d.shape == (r, c)
                assert (u.shape, v.shape) == ((r, r), (c, c))
                assert u @ a @ v == d
                h = hnf(a)
                assert h == a
                assert_hermite_of(h, a)

    def test_bignum_growth_stays_exact(self):
        # Hilbert-like matrices force large intermediate entries
        a = mat([[10**9 + 7, 10**9 + 9, 3], [10**9 + 21, 5, 10**9 + 33],
                 [7, 10**9 + 3, 11]])
        d, u, v = snf(a)
        assert u @ a @ v == d
        assert abs(det(u)) == 1 and abs(det(v)) == 1


def _determinantal_divisors(rows) -> list:
    """[d_0, ..., d_m] with d_0 = 1 and d_k the gcd of the k x k minors,
    each minor a Bareiss determinant (``det``), not a Smith form."""
    r, c = len(rows), len(rows[0])
    out = [1]
    for k in range(1, min(r, c) + 1):
        g = 0
        for ri in itertools.combinations(range(r), k):
            for ci in itertools.combinations(range(c), k):
                g = gcd(g, det(Matrix(ZZ, k, k, [rows[i][j] for i in ri
                                                 for j in ci])))
        out.append(g)
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_properties_hypothesis(rows):
    a = mat(rows)
    d, u, v = snf(a)
    assert u @ a @ v == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert all(d.entry(i, j) == 0 for i in range(d.rows)
               for j in range(d.cols) if i != j)
    diag = [d.entry(i, i) for i in range(min(a.rows, a.cols))]
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    assert all(x >= 0 for x in diag)
    # oracle: d_k / d_{k-1} up to the rank, zero beyond
    dk = _determinantal_divisors(rows)
    rank = max(k for k, x in enumerate(dk) if x)
    want = [dk[k] // dk[k - 1] for k in range(1, rank + 1)]
    assert diag == want + [0] * (len(diag) - rank)
    assert invariant_factors(FPModule(ZZ, a.rows, a)) == (
        [x for x in want if x != 1] + [0] * (a.rows - rank))


@st.composite
def hnf_inputs(draw):
    n = draw(st.sampled_from([None, 4, 6, 9, 12]))
    ring = ZZ if n is None else RingSpec.Zmod(n)
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    lo, hi = (-9, 9) if n is None else (0, n - 1)
    entries = draw(st.lists(st.integers(lo, hi), min_size=r * c,
                            max_size=r * c))
    return Matrix(ring, r, c, entries)


@settings(max_examples=150, deadline=None)
@given(hnf_inputs())
def test_hnf_properties_hypothesis(a):
    """H spans the rows of A, is in row echelon form and keeps the module
    docstring's pivot conventions (``assert_hermite_of``)."""
    assert_hermite_of(hnf(a), a)


class TestSolve:
    def test_solvable(self):
        assert solve_many(mat([[2]]), Matrix(ZZ, 1, 1, [4])).tolists() == [[2]]

    def test_parity_obstruction(self):
        assert solve_many(mat([[2]]), Matrix(ZZ, 1, 1, [3])) is None

    def test_mod5(self):
        r5 = RingSpec.Zmod(5)
        x = solve_many(Matrix.from_rows(r5, [[2]]), Matrix(r5, 1, 1, [3]))
        assert x.tolists() == [[4]]

    def test_soundness_and_enumeration_mod_n(self):
        rng = random.Random(3)
        for n in EXHAUSTIVE_NS:
            for _ in range(10):
                r, c = rng.randint(1, 3), rng.randint(1, 3)
                a = random_zmod(rng, n, r, c)
                b = (random_zmod(rng, n, r, 1) if rng.random() < 0.5
                     else a @ random_zmod(rng, n, c, 1))
                x = solve_many(a, b)
                images = (all_columns(n, c) @ a.arr.T) % n
                if x is None:
                    assert not (images == b.arr.T).all(axis=1).any()
                else:
                    assert a @ x == b

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_many(mat([[1, 2]]), Matrix.zeros(ZZ, 3, 1))


class TestKernel:
    def test_line_kernel(self):
        a = mat([[2, 4]])
        k = kernel_basis(a)
        assert (a @ k).is_zero()
        # (2, -1) is reachable: the saturated generator
        assert solve_many(k, mat([[2], [-1]])) is not None

    def test_identity_kernel_empty(self):
        assert kernel_basis(Matrix.identity(ZZ, 2)).cols == 0

    def test_torsion_generator_mod4(self):
        r4 = RingSpec.Zmod(4)
        k = kernel_basis(Matrix.from_rows(r4, [[2]]))
        assert solve_many(k, Matrix(r4, 1, 1, [2])) is not None

    def test_completeness_exhaustive_mod_n(self):
        rng = random.Random(4)
        for n in EXHAUSTIVE_NS:
            rn = RingSpec.Zmod(n)
            for _ in range(12):
                r, c = rng.randint(1, 3), rng.randint(1, 3)
                a = random_zmod(rng, n, r, c)
                k = kernel_basis(a)
                assert (a @ k).is_zero()
                cands = all_columns(n, c)
                for cand in cands[((cands @ a.arr.T) % n == 0).all(axis=1)]:
                    assert solve_many(k, Matrix(rn, c, 1, cand)) is not None


ZMOD_NS = [2, 4, 6, 8, 9, 12, 36]


@st.composite
def zmod_matrices(draw, min_cols=1):
    n = draw(st.sampled_from(ZMOD_NS))
    r, c = draw(st.integers(1, 5)), draw(st.integers(min_cols, 5))
    entries = draw(st.lists(st.integers(0, n - 1),
                            min_size=r * c, max_size=r * c))
    return Matrix(RingSpec.Zmod(n), r, c, entries)


@settings(max_examples=150, deadline=None)
@given(zmod_matrices())
def test_snf_properties_zmod_hypothesis(a):
    n = a.ring.n
    d, u, v = snf(a)
    assert u @ a @ v == d
    assert gcd(det(u), n) == 1 and gcd(det(v), n) == 1
    assert all(d.entry(i, j) == 0 for i in range(d.rows)
               for j in range(d.cols) if i != j)
    diag = [d.entry(i, i) for i in range(min(d.rows, d.cols))]
    nonzero = [x for x in diag if x]
    assert diag[:len(nonzero)] == nonzero          # zeros come last
    assert all(x < n and n % x == 0 for x in nonzero)
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))


def test_invariant_factors_zmod_match_sympy_lift():
    """Over Z/n the module Z/n^r / im(A) is the Z-module Z^r / im[A | nI],
    so sympy's invariant factors of that lift, 1s dropped, must agree."""
    pytest.importorskip("sympy")
    from sympy import ZZ as SZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors as sym_inv

    @settings(max_examples=150, deadline=None)
    @given(zmod_matrices(min_cols=0))
    def check(a):
        n, r = a.ring.n, a.rows
        lift = [[SZZ(x) for x in a.arr[i]] + [SZZ(n if i == j else 0)
                                              for j in range(r)]
                for i in range(r)]
        want = [int(f) for f in sym_inv(DomainMatrix(lift, (r, a.cols + r), SZZ))
                if f != 1]
        assert invariant_factors(FPModule(a.ring, r, a)) == want

    check()


def test_kron_block_shapes():
    a = mat([[1, 2]])
    b = mat([[3], [4]])
    assert kron(a, b).shape == (2, 2)
    assert kron(Matrix.zeros(ZZ, 0, 2), b).shape == (0, 2)


def test_matrix_immutability_and_hash():
    a = mat([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        a.arr[0, 0] = 9
    assert hash(a) == hash(mat([[1, 2], [3, 4]]))
    z12 = RingSpec.Zmod(12)
    twins = [(a, mat([[1, 2], [3, 4]])),
             (Matrix(z12, 2, 2, [13, -1, 24, 5]), mat([[1, 11], [0, 5]], z12)),
             (Matrix.zeros(ZZ, 0, 3), Matrix(ZZ, 0, 3, [])),
             (Matrix.zeros(ZZ, 3, 0), Matrix(ZZ, 3, 0, [])),
             (Matrix.zeros(z12, 0, 2), mat([[1, 2]], z12)[:0])]
    table = {x: k for k, (x, _) in enumerate(twins)}
    assert len(table) == len(twins)
    for k, (x, y) in enumerate(twins):
        assert x == y and x is not y and hash(x) == hash(y)
        assert table[y] == k
    # the same entries over another ring or in another shape are other keys
    for other in (mat([[1, 2], [3, 4]], RingSpec.Zmod(5)),
                  Matrix.zeros(ZZ, 0, 2), Matrix.zeros(ZZ, 2, 0)):
        assert other not in table


def assert_read_only_canonical(m):
    assert not m.arr.flags.writeable
    for x in m.arr.flat:
        assert type(x) is int
        assert m.ring.n is None or 0 <= x < m.ring.n


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(6), RingSpec.Zmod(12)],
                         ids=str)
def test_library_results_are_read_only_and_canonical(ring):
    rng = random.Random(5)

    def fresh(rows, cols):
        return Matrix(ring, rows, cols,
                      [rng.randint(-20, 20) for _ in range(rows * cols)])

    a, b = fresh(3, 4), fresh(3, 4)
    for order in itertools.permutations("DUV"):
        m = Matrix(ring, 3, 4, a.arr)   # no memo: eliminated anew
        for letter in order:
            assert_read_only_canonical(*snf(m, letter))
    x = solve_many(a, a @ fresh(4, 2))
    assert x is not None
    made = [kernel_basis(a), x, a @ b.transpose(), a + b, a - b, -a,
            a.scale(-7), kron(a, b), a.transpose(), a.col(2), vec(a),
            unvec(vec(a), 3, 4), hstack([a, b]), vstack([a, b]),
            block_diag([a, b]), Matrix.zeros(ring, 2, 3),
            Matrix.identity(ring, 3), a[1:3], a[:2, 1:], a[:0],
            column_basis(a), hnf(a)]
    for m in made:
        assert_read_only_canonical(m)


def test_slices_are_blocks_and_other_keys_raise():
    a = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a[1:3] == mat([[4, 5, 6], [7, 8, 9]])
    assert a[:2, 1:] == mat([[2, 3], [5, 6]])
    assert a[:0].shape == (0, 3) and a[:, 3:].shape == (3, 0)
    assert a.col(1) == a[:, 1:2] == mat([[2], [5], [8]])
    for key in (0, -1, (0, 1), (slice(None), 1), (1, slice(None)), (),
                (slice(None),) * 3, Ellipsis, [0, 1]):
        with pytest.raises(TypeError):
            a[key]


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(6), RingSpec.Zmod(12)],
                         ids=str)
def test_column_basis_is_the_transposed_hermite_form(ring):
    """The nonzero rows of hnf(A^T), as columns: what column_basis read off
    hnf before it had its own echelon pass."""
    rng = random.Random(11)
    for rows, cols in [(0, 2), (2, 0), (3, 3), (4, 6), (6, 4), (5, 5)]:
        a = Matrix(ring, rows, cols,
                   [rng.choice([0, 0, rng.randint(-9, 9)])
                    for _ in range(rows * cols)])
        h = hnf(a.transpose())
        k = sum(not h[i:i + 1].is_zero() for i in range(h.rows))
        assert column_basis(a) == h[:k].transpose(), (rows, cols)


def _column_reader_answers(ring):
    """unit_cover, preimage_basis, column_basis and FPModule.contains on
    0 x k, k x 0 and 0 x 0 inputs, built afresh so that no memo is shared."""
    from twohom.exactlin import preimage_basis, unit_cover

    rng = random.Random(39)

    def rand(r, c):
        return Matrix(ring, r, c, [rng.randint(-7, 7) for _ in range(r * c)])

    out = []
    for r, c in [(0, 3), (3, 0), (0, 0), (3, 2)]:
        out.append(column_basis(rand(r, c)))
        out += [unit_cover(rand(r, c), t) for t in range(c + 1)]
        out += [preimage_basis(rand(r, c), rand(r, k)) for k in (0, 2)]
        out += [FPModule(ring, r, rand(r, c)).contains(cols)
                for k in (0, 2) for cols in (rand(r, k), Matrix.zeros(ring, r, k))]
    return out


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
def test_column_readers_on_empty_shapes_match_the_transpose_route(
        ring, monkeypatch):
    """The column readers take A's columns off its rows, where a matrix
    with no rows yields no columns from zip; A^T has A.cols empty rows.
    Each answer equals the one read through A.transpose().tolists()."""
    from twohom import exactlin

    fresh = _column_reader_answers(ring)
    routed = []

    def transpose_route(a):
        routed.append(a.shape)
        return a.transpose().tolists()

    monkeypatch.setattr(exactlin, "_columns", transpose_route)
    assert _column_reader_answers(ring) == fresh
    assert (0, 3) in routed and (3, 0) in routed and (0, 0) in routed


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(6)], ids=str)
def test_public_constructor_copies_its_input(ring):
    for src in (np.array([[1, -2], [3, 4]], dtype=object),
                np.array([[1, -2], [3, 4]], dtype=np.int64)):
        m = Matrix(ring, 2, 2, src)
        src[0, 0] = 99
        assert src.flags.writeable
        assert m.tolists() == [[1, ring.normalize(-2)], [3, 4]]
        assert_read_only_canonical(m)


def test_public_constructor_takes_integers_only():
    for entries in ([1.5], [np.float64(2.0)], ["3"], np.array([2.0])):
        with pytest.raises(TypeError):
            Matrix(ZZ, 1, 1, entries)
    with pytest.raises(TypeError):
        Matrix(ZZ, 2, 2, np.array([[1.5, 2], [3, 4]]))
    with pytest.raises(TypeError):
        Matrix(ZZ, 2, 1, [1, 2.5])
    for ring in (ZZ, RingSpec.Zmod(6)):
        with pytest.raises(TypeError):
            ring.normalize(1.5)
    with pytest.raises(DimensionMismatch, match="need 4 entries, got 3"):
        Matrix(ZZ, 2, 2, np.array([1, 2, 3]))
    m = Matrix(RingSpec.Zmod(6), 1, 3, [np.int64(-1), True, False])
    assert m.tolists() == [[5, 1, 0]]
    assert_read_only_canonical(m)
    assert_read_only_canonical(Matrix(ZZ, 2, 1, [np.int64(7), True]))


def test_zmod_takes_an_integer_modulus():
    with pytest.raises(TypeError):
        RingSpec.Zmod(2.7)
    assert RingSpec.Zmod(np.int64(5)) == RingSpec.Zmod(5)
    assert type(RingSpec.Zmod(np.int64(5)).n) is int


def test_ringspec_takes_an_integer_modulus():
    with pytest.raises(TypeError):
        RingSpec("Zmod", 2.5)
    assert RingSpec("Zmod", np.int32(6)).n == 6


def test_scale_takes_an_integer_factor():
    a = mat([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        a.scale(1.5)
    assert a.scale(np.int64(3)) == mat([[3, 6], [9, 12]])


def test_a_matrix_equals_itself_without_reading_its_entries():
    class Unreadable:
        def __eq__(self, other):
            raise AssertionError("entries compared")

    a = mat([[1, 2], [3, 4]])
    b = mat([[1, 2], [3, 4]])
    a._rows = Unreadable()
    assert a == a
    with pytest.raises(AssertionError):
        a == b


def _same_span(a, b):
    """Columns of a and of b span the same submodule: each solves into the
    other (an empty side spans 0)."""
    def within(x, y):
        return x.is_zero() or (y.cols > 0 and solve_many(y, x) is not None)
    return within(a, b) and within(b, a)


def _torsion_matrix(data, ring, rows, cols):
    """Entries that are multiples of a divisor of n, so torsion is common."""
    n = ring.n
    step = data.draw(st.sampled_from([g for g in range(1, n) if n % g == 0]))
    return Matrix(ring, rows, cols, data.draw(st.lists(
        st.integers(0, n // step - 1).map(lambda x: x * step),
        min_size=rows * cols, max_size=rows * cols)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_preimage_basis_over_zmod_matches_the_smith_form_path(data):
    """Over Z/4, Z/6, Z/8 and Z/12 the kernel of f: src -> dst, read off
    the Howell echelon pass, spans what the Smith path spans: its
    inclusion the syzygies of [F | dst.rel] projected to source
    coordinates, and K.rel the projected syzygies of [cols | src.rel].
    F cols lies in the span of dst.rel and cols K.rel in that of src.rel."""
    from twohom.fpmod import ModMor, kernel

    ring = RingSpec.Zmod(data.draw(st.sampled_from([4, 6, 8, 12])))
    t, g, r, s = (data.draw(st.integers(0, k)) for k in (5, 5, 4, 3))
    fmat = _torsion_matrix(data, ring, t, g)
    dst = FPModule(ring, t, _torsion_matrix(data, ring, t, r))
    src = FPModule(ring, g, _torsion_matrix(data, ring, g, s))
    K, incl = kernel(ModMor(src, dst, fmat, check=False))
    cols = incl.mat
    assert cols.shape == (g, K.gens) and K.rel.rows == K.gens
    assert _same_span(cols, kernel_basis(hstack([fmat, dst.rel]))[:g])
    assert _same_span(K.rel, kernel_basis(hstack([cols, src.rel]))[:K.gens])
    assert dst.contains(fmat @ cols) and src.contains(cols @ K.rel)


def test_preimage_basis_keeps_the_howell_row_over_z4():
    """Multiplication by 2 on Z/4 kills {0, 2}.  The echelon pass over
    [[2, 1]] has a pivot and no zero row, so only the appended row
    2 * [2, 1] = [0, 2] finds the kernel, and K = {0, 2} is Z/2."""
    from twohom.exactlin import preimage_basis
    from twohom.fpmod import ModMor, kernel

    z4 = RingSpec.Zmod(4)
    two = mat([[2]], z4)
    assert preimage_basis(two, Matrix.zeros(z4, 1, 0)) == two
    K, incl = kernel(ModMor(FPModule.free(z4, 1), FPModule.free(z4, 1), two))
    assert incl.mat == two and K.rel == two and invariant_factors(K) == [2]


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
def test_preimage_basis_with_no_columns_runs_no_elimination(ring, monkeypatch):
    from twohom import exactlin

    calls = []
    real = exactlin._echelon

    def echelon(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exactlin, "_echelon", echelon)
    for t in (0, 3):
        for b in (0, 5):
            B = Matrix(ring, t, b, range(1, t * b + 1))
            assert exactlin.preimage_basis(Matrix.zeros(ring, t, 0), B).shape == (0, 0)
    assert calls == []
    # the counter sees the passes of a matrix with columns
    exactlin.preimage_basis(Matrix.identity(ring, 3), Matrix.zeros(ring, 3, 0))
    assert calls


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
def test_the_start_kernel_has_a_closed_form(ring):
    """The first kernel of every resolution: the (y, z) in R^g + R^h with
    y + d z in the span of rel, i.e. preimage_basis([I_g | d], rel).  It
    is the column span of [[-d, rel], [I_h, 0]].  Over Z a span has one
    Hermite basis, so the two bases are equal; over Z/12 each spans the
    other.  g runs up to 9, and h and r may be 0."""
    from twohom.exactlin import block, preimage_basis

    rng = random.Random(2210)
    for _ in range(150):
        g, h, r = rng.randint(0, 9), rng.randint(0, 5), rng.randint(0, 5)
        d = Matrix(ring, g, h, [rng.randint(-4, 4) for _ in range(g * h)])
        rel = Matrix(ring, g, r, [rng.randint(-4, 4) for _ in range(g * r)])
        k = preimage_basis(hstack([Matrix.identity(ring, g), d]), rel)
        closed = block([[-d, rel],
                        [Matrix.identity(ring, h), Matrix.zeros(ring, h, r)]])
        if ring.is_modular:
            assert solve_many(closed, k) is not None
            assert solve_many(k, closed) is not None
        else:
            assert k == column_basis(closed), (g, h, r)


def dense_sub(M, i, j, q, n):
    """Row i of the list of rows M becomes the new list row i - q * row j,
    entry by entry, reduced mod n over Z/n: the reference for the engine's
    row steps, sharing no code with them."""
    M[i] = [a - q * b if n is None else (a - q * b) % n
            for a, b in zip(M[i], M[j])]


@pytest.mark.parametrize("n", [None, 6, 12], ids=["Z", "Z/6", "Z/12"])
def test_a_row_step_is_the_dense_formula(n):
    """The one-pair run _sub_rows(M, j, [(i, q)], n) makes row i the row
    i - q * row j, mod n over Z/n, and changes nothing else: every other
    row keeps its list and entries, and each entry of row i where row j
    is 0 keeps its very object (over Z some entries are wider than a
    machine word)."""
    from twohom.exactlin import _sub_rows

    rng = random.Random(2211)

    def entry():
        if n is not None:
            return rng.choice([0, rng.randrange(n)])
        return rng.choice([0, rng.randint(-9, 9), rng.randint(-2**80, 2**80)])

    for _ in range(300):
        k, m = rng.randint(0, 12), rng.randint(2, 5)
        M = [[entry() for _ in range(k)] for _ in range(m)]
        i, j = rng.sample(range(m), 2)
        q = rng.randint(-5, 5)
        rows, before = list(M), [list(row) for row in M]
        dense = [list(row) for row in M]
        dense_sub(dense, i, j, q, n)
        _sub_rows(M, j, [(i, q)], n)
        assert M == dense
        assert all(M[x] is rows[x] and M[x] == before[x]
                   for x in range(m) if x != i)
        assert all(M[i][c] is before[i][c] for c in range(k) if not M[j][c])


@pytest.mark.parametrize("n", [None, 6, 12], ids=["Z", "Z/6", "Z/12"])
def test_a_batched_step_is_its_single_steps(n):
    """A logged run is the single steps it batches.  ``_sub_rows(M, r,
    run, n)`` gives the rows of the dense row i -= q * row r for each
    (i, q) of the run, and ``_sub_sum(M, t, js, qs, n)``, the transpose of
    a run of column subtractions, gives those of row t -= q * row j for
    each (j, q) of zip(js, qs).  ``_col_subs`` applies column j -= q * column t
    to rows t.. of D and logs that transpose as one entry.  Every row
    outside a run keeps its list and entries, and an empty run changes
    nothing and logs nothing."""
    from twohom.exactlin import _col_subs, _sub_rows, _sub_sum

    rng = random.Random(2212)

    def entry():
        if n is not None:
            return rng.choice([0, rng.randrange(n)])
        return rng.choice([0, rng.randint(-9, 9), rng.randint(-2**80, 2**80)])

    empty = 0
    for _ in range(300):
        k, m = rng.randint(0, 12), rng.randint(2, 6)
        M = [[entry() for _ in range(k)] for _ in range(m)]
        r = rng.randrange(m)
        others = rng.sample([x for x in range(m) if x != r],
                            rng.randint(0, m - 1))
        run = [(i, rng.randint(-5, 5)) for i in others]
        empty += not run
        for batched, single, changed in [
                (lambda A: _sub_rows(A, r, run, n),
                 lambda B: [dense_sub(B, i, r, q, n) for i, q in run], others),
                (lambda A: _sub_sum(A, r, [j for j, _ in run],
                                    [q for _, q in run], n),
                 lambda B: [dense_sub(B, r, j, q, n) for j, q in run],
                 [r] if run else [])]:
            A, B = [list(row) for row in M], [list(row) for row in M]
            rows = list(A)
            batched(A)
            single(B)
            assert A == B
            assert all(A[x] is rows[x] and A[x] == M[x]
                       for x in range(m) if x not in changed)
        # _col_subs on the columns of D, with q_j for each column j past t
        t = rng.randrange(k) if k else 0
        cols = [(j, rng.randint(-5, 5)) for j in range(t + 1, k)
                if rng.random() < 0.5]
        D, log = [list(row) for row in M], []
        _col_subs(D, t, log, cols, n)
        dense = [row if x < t else [
            c - q * row[t] if n is None else (c - q * row[t]) % n
            for c, q in zip(row, [dict(cols).get(j, 0) for j in range(k)])]
            for x, row in enumerate(M)]
        assert D == dense
        assert log == ([(_sub_sum, (t, *zip(*cols), n))] if cols else [])
    assert empty > 10


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(36)], ids=str)
def test_the_offender_fold_is_a_one_pair_run(ring):
    """diag(2, 3) is diagonal, but 3 is no multiple of the pivot 2, so snf
    folds row 1 into row 0, row 0 -= -1 * row 1, and eliminates again.
    The U log holds that fold as the one-pair ``_sub_rows`` run, and
    D = diag(1, 6) = U A V with U and V invertible."""
    from twohom.exactlin import _sub_rows

    a = mat([[2, 0], [0, 3]], ring)
    d, u, v = snf(a)
    assert d == mat([[1, 0], [0, 6]], ring)
    assert u @ a @ v == d
    assert (_sub_rows, (1, [(0, -1)], ring.n)) in a._snf.logs["U"][2]
    for t in (u, v):
        assert (abs(det(t)) if ring == ZZ else gcd(det(t), ring.n)) == 1


# runs of multiples of the pivot 2 end at the entry 3, in column 0 and in
# row 0 of the transpose
FLUSHED = [[2, 4, 6, 8], [4, 6, 10, 14], [3, 8, 12, 20], [6, 10, 14, 22]]


def test_a_run_is_flushed_before_a_mix():
    """Below the pivot 2, column 0 of A holds a multiple of 2 before an
    entry that is none, and so does row 0 of A^T right of it.  So the
    first row run of A and the first column run of A^T are logged right
    before a mix, not after it.  Both forms are the quotients of the
    determinantal divisors, and U A V = D."""
    from twohom.exactlin import _mix, _sub_rows, _sub_sum

    dk = _determinantal_divisors(FLUSHED)
    for a, key, run in [(mat(FLUSHED), "U", _sub_rows),
                        (mat(FLUSHED).transpose(), "V", _sub_sum)]:
        d, u, v = snf(a)
        assert u @ a @ v == d
        assert [d.entry(i, i) for i in range(4)] == [
            dk[k] // dk[k - 1] for k in range(1, 5)]
        assert [op for op, _ in a._snf.logs[key][2]][:2] == [run, _mix]


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)
def test_logs_apply_as_their_products_on_dense_inputs(ring):
    """As below, on seeded dense n x n matrices, n = 10..22, with entries in
    [-9, 9] over Z and any residue over Z/12: the inputs of the dense
    Smith workload, whose logs hold long runs.  FLUSHED and its transpose
    join them, as their runs end at a mix."""
    rng = random.Random(2213)
    inputs = [Matrix(ring, n, n, [rng.randint(-9, 9) if ring == ZZ
                                  else rng.randrange(12)
                                  for _ in range(n * n)])
              for n in range(10, 23)]
    inputs += [mat(FLUSHED, ring), mat(FLUSHED, ring).transpose()]
    for a in inputs:
        n = a.rows
        d, u, v = snf(a)
        assert u @ a @ v == d
        for key, T in [("U", u), ("V", v)]:
            k = rng.randint(0, 3)
            x = Matrix(ring, n, k,
                       [rng.randint(-99, 99) for _ in range(n * k)])
            assert a._snf.apply(key, x.tolists()) == (T @ x).tolists()


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(6), RingSpec.Zmod(12)],
                         ids=str)
def test_logged_transforms_apply_as_their_products(ring):
    """U @ X and V @ X computed from the elimination log equal the products
    with the built transforms, on every pinned engine input over the ring
    (empty shapes included), for random X of 0..3 columns.  The transforms
    are built from the same log, so they are checked against D = U A V."""
    from test_golden_engine import cases

    rng = random.Random(1014)
    for a, _ in cases():
        if a.ring != ring:
            continue
        named = dict(zip("DUV", snf(a)))
        assert named["U"] @ a @ named["V"] == named["D"]
        for key in "UV":
            T = named[key]
            k = rng.randint(0, 3)
            x = Matrix(ring, T.rows, k,
                       [rng.randint(-99, 99) for _ in range(T.rows * k)])
            assert a._snf.apply(key, x.arr.tolist()) == (T @ x).tolists()


def test_equal_rings_built_separately_are_equal_and_hash_alike():
    for a, b in [(RingSpec.Z(), RingSpec("Z")), (RingSpec.Zmod(6), RingSpec("Zmod", 6)),
                 (RingSpec.Zmod(np.int64(12)), RingSpec.Zmod(12))]:
        assert a == b and a is not b and not a != b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


def test_distinct_rings_and_non_rings_are_unequal():
    z, z6, z12 = RingSpec.Z(), RingSpec.Zmod(6), RingSpec.Zmod(12)
    assert z != z6 and z6 != z12 and z12 != z
    assert not z6 == z12
    for other in ("Z", None, 6, ("Zmod", 6)):
        assert z != other and not z6 == other
    assert len({z, z6, z12, RingSpec.Zmod(6)}) == 3


def test_a_ring_is_frozen():
    r = RingSpec.Zmod(6)
    with pytest.raises(AttributeError):
        r.n = 7
    assert r == RingSpec.Zmod(6)


def test_a_ring_equals_itself_without_reading_its_fields():
    class Unreadable:
        def __eq__(self, other):
            raise AssertionError("fields compared")

        __hash__ = object.__hash__

    r = RingSpec.Zmod(6)
    object.__setattr__(r, "kind", Unreadable())
    assert r == r
    with pytest.raises(AssertionError):
        r == RingSpec.Zmod(6)
