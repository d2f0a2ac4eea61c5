"""Smith forms of matrices that start in Smith form, and shared Smith forms.

* ``snf`` of a matrix whose leading rows are already in Smith form, or
  nearly so, passes an oracle that shares no code with it: plain products,
  sympy's determinants and, over Z, sympy's invariant factors.
* ``pi0(m)`` is kept on the 2-module, so every read of it shares one
  relation matrix and so one Smith memo.
* ``kron(a, [1])`` is ``a`` itself.
"""

import random
from math import gcd

import pytest

import twohom.exactlin as exactlin
import twohom.fpmod as fpmod
from twohom import FPModule, FunctorSpec, ModMor, TwoModule, apply, resolve
from twohom.exactlin import (DimensionMismatch, Matrix, RingSpec, ZZ, kron,
                             snf)
from twohom.twomod import pi0, pi_profile

RINGS = [ZZ, RingSpec.Zmod(4), RingSpec.Zmod(12)]


def with_leading_rows(ring, diag, block):
    """The matrix with diag on the leading diagonal, zero elsewhere in those
    rows and columns, and the rows of block past it."""
    k = len(diag)
    rows, cols = k + len(block), k + (len(block[0]) if block else 0)
    raw = [[0] * cols for _ in range(rows)]
    for t, d in enumerate(diag):
        raw[t][t] = d
    for i, row in enumerate(block):
        raw[k + i][k:] = row
    return Matrix.from_rows(ring, raw, cols)


def random_block(rng, ring, rows, cols, factor=1):
    bound = 9 if ring.n is None else ring.n
    return [[factor * rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def leading_smith_cases():
    """(ring, matrix) with leading Smith rows that hold or break each
    condition of a Smith form: a normalized divisibility chain over a block
    of its multiples, a random block, and negative, unnormalized,
    non-dividing pivots and stray entries in a pivot's row or column."""
    rng = random.Random(29)
    out = []
    for ring in RINGS:
        n = ring.n
        chains = ([[1, 2, 6], [3, 6], [2], [1, 1, 4]] if n is None else
                  [[1, 2], [2], [1, 1]] if n == 4 else [[1, 2, 6], [3], [2, 4]])
        for diag in chains:
            for rows, cols in [(3, 3), (2, 4), (4, 2), (0, 0), (1, 3)]:
                # multiples of the last d: every leading row is in Smith form
                out.append((ring, with_leading_rows(ring, diag, random_block(
                    rng, ring, rows, cols, diag[-1]))))
                # a random block, which the leading d need not divide
                out.append((ring, with_leading_rows(ring, diag, random_block(
                    rng, ring, rows, cols))))
        bad = ([[-2, 4], [2, -4], [2, 3], [4, 2], [6, 4]] if n is None else
               [[3, 2], [2, 3], [2, 1]] if n == 4 else
               [[5, 2], [8, 4], [2, 3], [4, 6], [9, 3], [7]])
        for diag in bad:
            for rows, cols in [(2, 2), (3, 1), (0, 0)]:
                out.append((ring, with_leading_rows(ring, diag, random_block(
                    rng, ring, rows, cols, diag[-1]))))
        # a stray entry right of a pivot or below it
        for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            raw = with_leading_rows(ring, [1, 2, 4], [[4, 8]]).tolists()
            raw[i][j] = 2
            out.append((ring, Matrix.from_rows(ring, raw)))
        # random matrices, mostly with no leading Smith row
        for _ in range(6):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            out.append((ring, Matrix.from_rows(
                ring, random_block(rng, ring, r, c), c)))
    return out


CASES = leading_smith_cases()


def check_snf(A):
    """U A V = D by plain products, U and V have unit determinants (sympy),
    D is diagonal with a normalized divisibility chain and its zeros last,
    and over Z its diagonal is sympy's invariant factors."""
    pytest.importorskip("sympy")
    from sympy import ZZ as SZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    def domain(rows, shape):
        return DomainMatrix([[SZZ(x) for x in r] for r in rows], shape, SZZ)

    n, (rows, cols) = A.ring.n, A.shape
    D, U, V = (m.tolists() for m in snf(A))
    a = A.tolists()
    uav = [[A.ring.normalize(sum(U[i][p] * a[p][q] * V[q][j]
                                 for p in range(rows) for q in range(cols)))
            for j in range(cols)] for i in range(rows)]
    assert uav == D, A
    for T in (U, V):
        t = int(domain(T, (len(T), len(T))).det())
        assert t in (1, -1) if n is None else gcd(t, n) == 1, A
    diag = [D[i][i] for i in range(min(rows, cols))]
    assert all(D[i][j] == 0 for i in range(rows) for j in range(cols)
               if i != j), A
    nonzero = [x for x in diag if x]
    assert diag[:len(nonzero)] == nonzero, A
    assert all(x > 0 if n is None else n % x == 0 for x in nonzero), A
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:])), A
    if n is None:
        assert diag == [int(x) for x in invariant_factors(
            domain(a, (rows, cols)))], A


@pytest.mark.parametrize("k", range(len(CASES)))
def test_snf_of_leading_smith_rows_passes_an_independent_oracle(k):
    check_snf(CASES[k][1])


@pytest.mark.parametrize("ring, diag, block", [
    (ZZ, [1, 2, 6], [[12, 0], [6, 18]]),
    (ZZ, [1, 2, 6], [[12, 0], [4, 18]]),   # 6 does not divide 4
    (ZZ, [1, 4, 6], [[12]]),               # 4 does not divide 6
    (ZZ, [-1, 2], [[2]]),                  # negative
    (ZZ, [2, 2], [[0, 0]]),
    (ZZ, [0, 2], [[2]]),                   # zero
    (RingSpec.Zmod(12), [2, 4], [[8]]),
    (RingSpec.Zmod(12), [1, 8], [[0]]),    # 8 is not gcd(8, 12)
    (RingSpec.Zmod(12), [5], [[0]]),       # 5 is not gcd(5, 12)
    (RingSpec.Zmod(12), [3, 4], [[0]]),    # 3 does not divide 4
    (RingSpec.Zmod(4), [2], [[1]]),        # 2 does not divide 1
])
def test_snf_of_leading_rows_that_fail_one_condition(ring, diag, block):
    check_snf(with_leading_rows(ring, diag, block))


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("rows, cols", [(3, 3), (2, 4), (4, 2)])
def test_a_normalized_divisibility_chain_has_identity_transforms(ring, rows,
                                                                 cols):
    chain = ([1, 2, 0] if ring.n == 4 else [1, 2, 6])[:min(rows, cols)]
    A = Matrix.from_rows(ring, [[chain[i] if i == j and i < len(chain) else 0
                                 for j in range(cols)] for i in range(rows)])
    D, U, V = snf(A)
    assert D == A
    assert U == Matrix.identity(ring, rows)
    assert V == Matrix.identity(ring, cols)


# ---------------------------------------------------------------------------
# pi0 is kept on its 2-module
# ---------------------------------------------------------------------------

def derive_input(ring, g=8, seed=29):
    """A 2-module like the derive benchmark's: M0 with g generators and
    g/2 relations, M1 free of rank g/2, entries in [-4, 4]."""
    rng = random.Random(seed)
    r = h = g // 2
    m0 = FPModule(ring, g, Matrix.from_rows(
        ring, [[rng.randint(-4, 4) for _ in range(r)] for _ in range(g)], r))
    m1 = FPModule.free(ring, h)
    d = Matrix.from_rows(
        ring, [[rng.randint(-4, 4) for _ in range(h)] for _ in range(g)], h)
    return TwoModule(m1, m0, ModMor(m1, m0, d))


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)])
def test_pi0_is_kept_on_its_two_module(ring):
    m = derive_input(ring)
    assert pi0(m) is pi0(m)
    assert pi_profile(m) == pi_profile(m)


@pytest.mark.parametrize("ring, coeff", [(ZZ, 6), (RingSpec.Zmod(12), 4)])
def test_reading_pi_builds_each_pi0_smith_form_once(ring, coeff, monkeypatch):
    """Reading pi of L_0..L_2 reads pi0 of H_0..H_2 as their pi0, and pi0
    of H_1..H_3 as pi1 of the degree below; the Smith form of each pi0
    presentation is built once (an snf call on a matrix with no memo),
    however often it is read."""
    t = FunctorSpec.tensor_with(FPModule.cyclic(ring, coeff))
    tc = apply(t, resolve(derive_input(ring), 3).complex())
    built = []
    original = exactlin.snf

    def counting(A, want="DUV"):
        if A._snf is None:
            built.append(A)
        return original(A, want)

    monkeypatch.setattr(exactlin, "snf", counting)
    monkeypatch.setattr(fpmod, "snf", counting)
    pis = [tc.homology(i).pi for i in range(3)]
    rels = [pi0(tc.homology(i).module).rel for i in range(4)]
    read = [rel for rel in rels if rel.rows and rel.cols]
    assert read, "every pi0 presentation was empty"
    for rel in read:
        assert sum(A == rel for A in built) == 1, rel
    assert pis == [tc.homology(i).pi for i in range(3)]


# ---------------------------------------------------------------------------
# kron by [1]
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)])
def test_kron_by_the_one_by_one_identity_is_the_matrix_itself(ring):
    for shape in [(2, 3), (0, 2), (3, 0), (1, 1)]:
        a = Matrix(ring, *shape, [5 - 3 * i for i in range(shape[0] * shape[1])])
        assert kron(a, Matrix.identity(ring, 1)) is a
        assert kron(a, Matrix.from_rows(ring, [[1]])) is a


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)])
@pytest.mark.parametrize("k", [0, -1, 2, 7, 25])
def test_kron_by_another_scalar_scales_and_reduces(ring, k):
    a = Matrix.from_rows(ring, [[5, -3, 0], [11, 1, 4]])
    b = Matrix.from_rows(ring, [[k]])
    out = kron(a, b)
    assert out == a.scale(k)
    assert out.tolists() == [[ring.normalize(k * x) for x in row]
                             for row in a.tolists()]
    assert (out is a) == (b.entry(0, 0) == 1)     # 25 is 1 mod 12


def test_kron_checks_the_ring_before_the_shortcut():
    a = Matrix.from_rows(ZZ, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        kron(a, Matrix.identity(RingSpec.Zmod(12), 1))
    with pytest.raises(DimensionMismatch):
        kron(Matrix.from_rows(RingSpec.Zmod(12), [[1, 2]]), Matrix.identity(ZZ, 1))
