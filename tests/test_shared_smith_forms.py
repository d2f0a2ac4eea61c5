"""Smith forms that are shared or skipped, with byte-identical results.

Three cuts keep every output as it was:

* ``snf`` starts its elimination past the leading rows that are already in
  Smith form (``exactlin._smith_prefix``); on such rows the loop would pick
  the diagonal entry, log no step and change nothing.
* ``pi0(m)`` is kept on the 2-module, so every read of it shares one
  relation matrix and so one Smith memo.
* ``kron(a, [1])`` is ``a`` itself.
"""

import random

import pytest

import twohom.exactlin as exactlin
import twohom.fpmod as fpmod
from twohom import FPModule, FunctorSpec, ModMor, TwoModule, apply, resolve
from twohom.exactlin import (DimensionMismatch, Matrix, RingSpec, ZZ, kron,
                             snf)
from twohom.twomod import pi0, pi_profile

RINGS = [ZZ, RingSpec.Zmod(4), RingSpec.Zmod(12)]


def with_prefix(ring, diag, block):
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


def smith_rows(A):
    """D, U and V of a fresh copy of A (no memo), as rows of ints."""
    fresh = Matrix.from_rows(A.ring, A.tolists(), A.cols)
    return tuple(m._rows for m in snf(fresh))


def random_block(rng, ring, rows, cols, factor=1):
    bound = 9 if ring.n is None else ring.n
    return [[factor * rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def prefix_cases():
    """(ring, matrix) with leading Smith rows that hold or break each
    condition of the prefix: a normalized divisibility chain over a block
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
                # multiples of the last d: the whole prefix is skipped
                out.append((ring, with_prefix(ring, diag, random_block(
                    rng, ring, rows, cols, diag[-1]))))
                # a random block: only the rows whose d divides it
                out.append((ring, with_prefix(ring, diag, random_block(
                    rng, ring, rows, cols))))
        bad = ([[-2, 4], [2, -4], [2, 3], [4, 2], [6, 4]] if n is None else
               [[3, 2], [2, 3], [2, 1]] if n == 4 else
               [[5, 2], [8, 4], [2, 3], [4, 6], [9, 3], [7]])
        for diag in bad:
            for rows, cols in [(2, 2), (3, 1), (0, 0)]:
                out.append((ring, with_prefix(ring, diag, random_block(
                    rng, ring, rows, cols, diag[-1]))))
        # a stray entry right of a pivot or below it
        for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            raw = with_prefix(ring, [1, 2, 4], [[4, 8]]).tolists()
            raw[i][j] = 2
            out.append((ring, Matrix.from_rows(ring, raw)))
        # random matrices, where the prefix is mostly empty
        for _ in range(6):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            out.append((ring, Matrix.from_rows(
                ring, random_block(rng, ring, r, c), c)))
    return out


CASES = prefix_cases()


@pytest.mark.parametrize("k", range(len(CASES)))
def test_smith_prefix_leaves_d_u_and_v_as_the_full_elimination(k, monkeypatch):
    ring, A = CASES[k]
    skipped = smith_rows(A)
    monkeypatch.setattr(exactlin, "_smith_prefix", lambda *args: 0)
    assert skipped == smith_rows(A), A


@pytest.mark.parametrize("ring, diag, block, expect", [
    (ZZ, [1, 2, 6], [[12, 0], [6, 18]], 3),
    (ZZ, [1, 2, 6], [[12, 0], [4, 18]], 2),   # 6 does not divide 4
    (ZZ, [1, 4, 6], [[12]], 1),               # 4 does not divide 6
    (ZZ, [-1, 2], [[2]], 0),                  # negative
    (ZZ, [2, 2], [[0, 0]], 2),
    (ZZ, [0, 2], [[2]], 0),                   # zero
    (RingSpec.Zmod(12), [2, 4], [[8]], 2),
    (RingSpec.Zmod(12), [1, 8], [[0]], 1),    # 8 is not gcd(8, 12)
    (RingSpec.Zmod(12), [5], [[0]], 0),       # 5 is not gcd(5, 12)
    (RingSpec.Zmod(12), [3, 4], [[0]], 0),    # 3 does not divide 4
    (RingSpec.Zmod(4), [2], [[1]], 0),        # 2 does not divide 1
])
def test_smith_prefix_counts_the_rows_in_smith_form(ring, diag, block, expect):
    A = with_prefix(ring, diag, block)
    assert exactlin._smith_prefix(A.tolists(), min(A.shape), ring.n) == expect


def test_smith_prefix_reads_a_stray_entry_in_a_row_or_column():
    for i, j, expect in [(0, 1, 0), (1, 0, 0), (1, 2, 1), (2, 1, 1)]:
        raw = with_prefix(ZZ, [1, 2, 4], [[4, 8]]).tolists()
        raw[i][j] = 2
        assert exactlin._smith_prefix(raw, 3, None) == expect, (i, j)


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
