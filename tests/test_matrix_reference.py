"""Every ``Matrix`` operation against numpy object arrays.

A ``Matrix`` keeps its entries as a tuple of row tuples of Python ints.
Each test here builds a matrix and an object-dtype numpy array from the
same raw integers, applies an operation to both, and compares the entries.
The inputs are seeded and cover Z, Z/4 and Z/12, the empty shapes 0 x k,
k x 0 and 0 x 0, entries past 64 bits, and left factors of products that are
sparse 0/1 matrices or dense ones.  Every result must also hold canonical
rows: a tuple of ``rows`` tuples of ``cols`` ints, in [0, n) over Z/n.
"""

import random

import numpy as np
import pytest

from twohom.exactlin import (Matrix, RingSpec, ZZ, _matrix, block, block_diag,
                             column_basis, hstack, kron, unvec, vec, vstack)

RINGS = [ZZ, RingSpec.Zmod(4), RingSpec.Zmod(12)]
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 3), (5, 5)]
BIG = 1 << 80


def draw(rng, ring, rows, cols, kind="dense"):
    """(Matrix, object array) of the same raw ints: small and past-64-bit
    entries of both signs for "dense", a 0/1 pattern for "sparse"."""
    if kind == "sparse":
        raw = [int(rng.random() < 0.2) for _ in range(rows * cols)]
    else:
        raw = [rng.choice([0, rng.randint(-9, 9), rng.randint(-BIG, BIG)])
               for _ in range(rows * cols)]
    arr = np.array(raw, dtype=object).reshape((rows, cols))
    return Matrix(ring, rows, cols, raw), arr


def assert_canonical(m):
    """m._rows is a tuple of m.rows tuples of m.cols canonical ints."""
    assert type(m._rows) is tuple and len(m._rows) == m.rows
    for row in m._rows:
        assert type(row) is tuple and len(row) == m.cols
        for x in row:
            assert type(x) is int
            assert m.ring.n is None or 0 <= x < m.ring.n


def reduced(arr, ring):
    return arr % ring.n if ring.is_modular else arr


def agrees(m, arr):
    """m holds the entries of arr, reduced over Z/n, in canonical rows."""
    assert_canonical(m)
    arr = reduced(arr, m.ring)
    assert m.shape == arr.shape
    assert m.tolists() == arr.tolist()
    assert m.arr.tolist() == arr.tolist()


@pytest.fixture(params=RINGS, ids=str)
def ring(request):
    return request.param


def test_the_constructor_and_the_array_agree(ring):
    rng = random.Random(1)
    for rows, cols in SHAPES:
        m, arr = draw(rng, ring, rows, cols)
        agrees(m, arr)
        agrees(Matrix(ring, rows, cols, arr), arr)   # read through .flat


@pytest.mark.parametrize("kind", ["sparse", "dense"])
def test_products(ring, kind):
    rng = random.Random(2)
    for rows, inner, cols in [(0, 0, 0), (0, 3, 2), (3, 0, 2), (3, 2, 0),
                              (1, 1, 1), (4, 5, 3), (6, 6, 6), (7, 4, 9)]:
        a, x = draw(rng, ring, rows, inner, kind)
        b, y = draw(rng, ring, inner, cols)
        agrees(a @ b, x @ y)
        # against the identity: the shape of a free cover's products
        agrees(a @ Matrix.identity(ring, inner), x)


def test_sums_negation_and_scaling(ring):
    rng = random.Random(3)
    for rows, cols in SHAPES:
        a, x = draw(rng, ring, rows, cols)
        b, y = draw(rng, ring, rows, cols)
        agrees(a + b, x + y)
        agrees(a - b, x - y)
        agrees(-a, -x)
        for k in (0, 1, -1, 7, -BIG):
            agrees(a.scale(k), x * k)


def test_transpose_and_slices(ring):
    rng = random.Random(4)
    keys = [slice(None), slice(1, 3), slice(0, 0), slice(-2, None),
            slice(None, None, 2), slice(None, None, -1), slice(5, 1)]
    for rows, cols in SHAPES:
        a, x = draw(rng, ring, rows, cols)
        agrees(a.transpose(), x.T)
        for r in keys:
            agrees(a[r], x[r])
            for c in keys:
                agrees(a[r, c], x[r, c])
        for j in range(cols):
            agrees(a.col(j), x[:, j:j + 1])


def test_stacks(ring):
    rng = random.Random(5)
    for rows in (0, 1, 3):
        parts = [draw(rng, ring, rows, c) for c in (2, 0, 3)]
        agrees(hstack([m for m, _ in parts]),
               np.concatenate([x for _, x in parts], 1))
    for cols in (0, 1, 3):
        parts = [draw(rng, ring, r, cols) for r in (2, 0, 3)]
        agrees(vstack([m for m, _ in parts]),
               np.concatenate([x for _, x in parts]))
    parts = [draw(rng, ring, r, c) for r, c in [(2, 3), (0, 2), (3, 0), (1, 1)]]
    want = np.zeros((6, 6), dtype=object)
    r = c = 0
    for _, x in parts:
        want[r:r + x.shape[0], c:c + x.shape[1]] = x
        r, c = r + x.shape[0], c + x.shape[1]
    agrees(block_diag([m for m, _ in parts]), want)
    (a, x), (b, y), (c, z), (d, w) = [draw(rng, ring, *shape) for shape in
                                      [(2, 3), (2, 1), (0, 3), (0, 1)]]
    agrees(block([[a, b], [c, d]]), np.block([[x, y], [z, w]]))


def test_vec_and_unvec(ring):
    rng = random.Random(6)
    for rows, cols in SHAPES:
        a, x = draw(rng, ring, rows, cols)
        agrees(vec(a), x.T.reshape(-1, 1))
        assert unvec(vec(a), rows, cols) == a
        assert_canonical(unvec(vec(a), rows, cols))
        # unvec reads only the first rows*cols entries of a longer column
        longer, _ = draw(rng, ring, 2, 1)
        assert unvec(vstack([vec(a), longer]), rows, cols) == a
        # as numpy's reshape, a column short of rows*cols entries raises
        with pytest.raises(ValueError):
            unvec(vec(a), rows + 1, cols + 1)


def test_kron(ring):
    rng = random.Random(7)
    for (r1, c1), (r2, c2) in [((0, 2), (2, 2)), ((2, 0), (1, 3)),
                               ((0, 0), (0, 0)), ((1, 1), (3, 2)),
                               ((2, 3), (3, 2))]:
        a, x = draw(rng, ring, r1, c1)
        b, y = draw(rng, ring, r2, c2)
        agrees(kron(a, b), np.kron(x, y))


def test_equality_hash_and_is_zero(ring):
    rng = random.Random(8)
    for rows, cols in SHAPES:
        a, x = draw(rng, ring, rows, cols)
        same = Matrix(ring, rows, cols, [int(v) for v in x.flat])
        assert a == same and hash(a) == hash(same)
        assert a.is_zero() == all(v == 0 for v in reduced(x, ring).flat)
        zero = Matrix.zeros(ring, rows, cols)
        agrees(zero, np.zeros((rows, cols), dtype=object))
        assert zero.is_zero() and zero == a.scale(0)
        assert hash(zero) == hash(a.scale(0))
        if rows and cols:
            y = x.copy()
            y[rows - 1, cols - 1] += 1
            assert a != Matrix(ring, rows, cols, y)
        assert a != Matrix.zeros(ring, cols, rows + 1)
        assert a != Matrix(RingSpec.Zmod(5), rows, cols, x)


def test_a_width_by_zero_matrix_keeps_its_empty_rows(ring):
    """A result with no columns still has one empty row per row: _matrix
    given no rows pads them, as a Hermite basis of rank 0 needs."""
    m = _matrix(ring, 3, 0, [])
    assert m._rows == ((), (), ()) and m.shape == (3, 0)
    basis = column_basis(Matrix.zeros(ring, 3, 2))
    assert basis._rows == ((), (), ())
    assert basis[:1].shape == (1, 0) and basis[1:, :].shape == (2, 0)
    assert Matrix.zeros(ring, 0, 3).transpose()._rows == ((), (), ())
    assert hstack([basis, basis]).shape == (3, 0)
    for m in (basis, basis[:2], hstack([basis]), basis.transpose().transpose()):
        assert_canonical(m)
