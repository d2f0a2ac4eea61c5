"""Exact matrix arithmetic over Z and Z/n.

Everything downstream (presented modules, 2-modules, homology, derived
functors) reduces to the four primitives in this module: Hermite form,
Smith form, exact linear solving and kernel generation.  Entries are
Python ints held in object-dtype numpy arrays, so intermediate values
never overflow; over Z/n entries are kept as canonical representatives
in [0, n).

Conventions (fixed so that outputs are bit-reproducible):

* ``hnf(A) = (H, U)`` with ``H = U @ A``, U invertible over the ring, H in
  row echelon form.  Over Z pivots are positive and entries above a pivot
  are reduced into [0, pivot); over Z/n pivots divide n and entries above
  are reduced into [0, pivot).
* ``snf(A) = (D, U, V)`` with ``D = U @ A @ V``, both transforms
  invertible, D diagonal with d_i | d_{i+1}; over Z all d_i >= 0, over
  Z/n all nonzero d_i are proper divisors of n.
* Pivot selection is deterministic: first nonzero entry of minimal size
  (absolute value over Z, gcd with n over Z/n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np


class DimensionMismatch(ValueError):
    """Raised when matrix shapes are incompatible."""


@dataclass(frozen=True)
class RingSpec:
    """Base ring: the integers, or the integers mod n (n >= 2)."""

    kind: str  # "Z" | "Zmod"
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("Z", "Zmod"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zmod":
            if self.n is None or self.n < 2:
                raise ValueError("Zmod modulus must be an integer >= 2")
        elif self.n is not None:
            raise ValueError("Z takes no modulus")

    @staticmethod
    def Z() -> "RingSpec":
        return RingSpec("Z")

    @staticmethod
    def Zmod(n: int) -> "RingSpec":
        return RingSpec("Zmod", int(n))

    @property
    def is_modular(self) -> bool:
        return self.kind == "Zmod"

    def normalize(self, x: int) -> int:
        return x % self.n if self.kind == "Zmod" else int(x)

    def __str__(self):
        return "Z" if self.kind == "Z" else f"Z/{self.n}"


ZZ = RingSpec.Z()


def _to_object_array(rows: int, cols: int, data) -> np.ndarray:
    arr = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            arr[i, j] = int(data[i][j])
    return arr


class Matrix:
    """Immutable exact matrix over a RingSpec.

    Entries are stored row-major as Python ints; for Z/n they are the
    canonical representatives in [0, n).
    """

    __slots__ = ("ring", "rows", "cols", "_arr", "_hash", "_snf", "_hnf")

    def __init__(self, ring: RingSpec, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        if isinstance(entries, np.ndarray):
            arr = entries.astype(object, copy=True)
            arr = arr.reshape((rows, cols))
        else:
            flat = list(entries)
            if len(flat) != rows * cols:
                raise DimensionMismatch(
                    f"need {rows * cols} entries, got {len(flat)}"
                )
            arr = np.empty((rows, cols), dtype=object)
            for i in range(rows):
                for j in range(cols):
                    arr[i, j] = int(flat[i * cols + j])
        if ring.is_modular:
            n = ring.n
            for i in range(rows):
                for j in range(cols):
                    arr[i, j] = arr[i, j] % n
        arr.setflags(write=False)
        self._arr = arr
        self._hash = None
        self._snf = None
        self._hnf = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rows(ring: RingSpec, rows_data: Sequence[Sequence[int]],
                  cols: Optional[int] = None) -> "Matrix":
        r = len(rows_data)
        c = len(rows_data[0]) if r else (0 if cols is None else cols)
        if any(len(row) != c for row in rows_data):
            raise DimensionMismatch("ragged rows")
        return Matrix(ring, r, c, _to_object_array(r, c, rows_data))

    @staticmethod
    def zeros(ring: RingSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(ring, rows, cols, np.zeros((rows, cols), dtype=object))

    @staticmethod
    def identity(ring: RingSpec, n: int) -> "Matrix":
        arr = np.zeros((n, n), dtype=object)
        for i in range(n):
            arr[i, i] = 1
        return Matrix(ring, n, n, arr)

    @staticmethod
    def column(ring: RingSpec, values: Sequence[int]) -> "Matrix":
        return Matrix(ring, len(values), 1, [int(v) for v in values])

    # -- basic accessors -----------------------------------------------------

    @property
    def arr(self) -> np.ndarray:
        return self._arr

    def entry(self, i: int, j: int) -> int:
        return self._arr[i, j]

    def col(self, j: int) -> "Matrix":
        return Matrix(self.ring, self.rows, 1, self._arr[:, j:j + 1])

    def tolists(self):
        return [[int(x) for x in row] for row in self._arr]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._arr.flat)

    @property
    def shape(self):
        return (self.rows, self.cols)

    # -- algebra -------------------------------------------------------------

    def _same_ring(self, other: "Matrix"):
        if self.ring != other.ring:
            raise DimensionMismatch("ring mismatch")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._same_ring(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zeros(self.ring, self.rows, other.cols)
        return Matrix(self.ring, self.rows, other.cols,
                      self._arr @ other._arr)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_ring(other)
        if self.shape != other.shape:
            raise DimensionMismatch("shape mismatch in +")
        return Matrix(self.ring, self.rows, self.cols, self._arr + other._arr)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_ring(other)
        if self.shape != other.shape:
            raise DimensionMismatch("shape mismatch in -")
        return Matrix(self.ring, self.rows, self.cols, self._arr - other._arr)

    def __neg__(self) -> "Matrix":
        return Matrix(self.ring, self.rows, self.cols, -self._arr)

    def scale(self, k: int) -> "Matrix":
        return Matrix(self.ring, self.rows, self.cols, self._arr * int(k))

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, self.cols, self.rows, self._arr.T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.ring == other.ring and self.shape == other.shape
                and all(a == b for a, b in zip(self._arr.flat, other._arr.flat)))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.rows, self.cols,
                               tuple(self._arr.flat)))
        return self._hash

    def __repr__(self):
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, {self.tolists()})"


def hstack(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    ring = mats[0].ring
    if any(m.rows != rows or m.ring != ring for m in mats):
        raise DimensionMismatch("hstack mismatch")
    cols = sum(m.cols for m in mats)
    arr = np.empty((rows, cols), dtype=object)
    at = 0
    for m in mats:
        arr[:, at:at + m.cols] = m.arr
        at += m.cols
    return Matrix(ring, rows, cols, arr)


def vstack(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    ring = mats[0].ring
    if any(m.cols != cols or m.ring != ring for m in mats):
        raise DimensionMismatch("vstack mismatch")
    rows = sum(m.rows for m in mats)
    arr = np.empty((rows, cols), dtype=object)
    at = 0
    for m in mats:
        arr[at:at + m.rows, :] = m.arr
        at += m.rows
    return Matrix(ring, rows, cols, arr)


def block_diag(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("block_diag of nothing")
    ring = mats[0].ring
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    arr = np.zeros((rows, cols), dtype=object)
    r = c = 0
    for m in mats:
        arr[r:r + m.rows, c:c + m.cols] = m.arr
        r += m.rows
        c += m.cols
    return Matrix(ring, rows, cols, arr)


def block(rows_of_blocks: Sequence[Sequence[Matrix]]) -> Matrix:
    return vstack([hstack(row) for row in rows_of_blocks])


def vec(m: Matrix) -> Matrix:
    """Column-major vectorization as a single column."""
    return Matrix(m.ring, m.rows * m.cols, 1, m.arr.T.reshape(-1, 1))


def unvec(v: Matrix, rows: int, cols: int) -> Matrix:
    """Inverse of ``vec``: the first rows*cols entries of column v, read
    column-major into a rows x cols matrix."""
    return Matrix(v.ring, rows, cols,
                  v.arr[:rows * cols, 0].reshape((cols, rows)).T)


def kron(a: Matrix, b: Matrix) -> Matrix:
    if a.ring != b.ring:
        raise DimensionMismatch("ring mismatch in kron")
    rows, cols = a.rows * b.rows, a.cols * b.cols
    if rows == 0 or cols == 0:
        return Matrix.zeros(a.ring, rows, cols)
    return Matrix(a.ring, rows, cols, np.kron(a.arr, b.arr))


# ---------------------------------------------------------------------------
# elimination engine
# ---------------------------------------------------------------------------

def _xgcd(a: int, b: int):
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _unit_multiplier(x: int, n: int):
    """Return (u, g) with u a unit mod n and u*x = g = gcd(x, n) mod n."""
    x %= n
    if x == 0:
        return 1, n
    g = gcd(x, n)
    xp = x // g
    m = n // g
    # invert xp mod m, then adjust to a unit mod n
    _, inv, _ = _xgcd(xp % m if m > 1 else 0, m)
    u0 = inv % m if m > 1 else 1
    for k in range(n):
        u = u0 + k * m
        if u % n != 0 and gcd(u % n, n) == 1:
            return u % n, g
    raise AssertionError("no unit multiplier found")  # unreachable


def _row_op_2x2(A, U, i, j, s, t, u, v, mod=None):
    """Rows i, j of A (and U) <- (s*Ri + t*Rj, u*Ri + v*Rj)."""
    for M in (A, U):
        ri = M[i, :].copy()
        rj = M[j, :].copy()
        M[i, :] = s * ri + t * rj
        M[j, :] = u * ri + v * rj
        if mod is not None:
            M[i, :] %= mod
            M[j, :] %= mod


def _swap_rows(A, U, i, j):
    if i != j:
        A[[i, j], :] = A[[j, i], :]
        U[[i, j], :] = U[[j, i], :]


def _measure(x: int, n: Optional[int]) -> int:
    """Pivot size: |x| over Z, gcd(x, n) over Z/n (0 maps to n)."""
    if n is None:
        return abs(x)
    return gcd(x % n, n) if x % n else n


def hnf(A: Matrix):
    """Row Hermite normal form.  Returns (H, U) with H = U @ A."""
    if A._hnf is not None:
        return A._hnf
    ring = A.ring
    n = ring.n if ring.is_modular else None
    H = A.arr.astype(object, copy=True)
    U = Matrix.identity(ring, A.rows).arr.astype(object, copy=True)
    r = 0
    for j in range(A.cols):
        if r >= A.rows:
            break
        # clear below row r in column j
        while True:
            pivot = None
            best = None
            for i in range(r, A.rows):
                x = H[i, j]
                if x != 0:
                    m = _measure(x, n)
                    if best is None or m < best:
                        best = m
                        pivot = i
            if pivot is None:
                break
            _swap_rows(H, U, r, pivot)
            dirty = False
            for i in range(r + 1, A.rows):
                if H[i, j] == 0:
                    continue
                a, b = H[r, j], H[i, j]
                if n is None and b % a == 0:
                    q = b // a
                    H[i, :] -= q * H[r, :]
                    U[i, :] -= q * U[r, :]
                else:
                    g, s, t = _xgcd(a, b)
                    _row_op_2x2(H, U, r, i, s, t, -(b // g), a // g, mod=n)
                if H[i, j] != 0:
                    dirty = True
            if not dirty:
                break
        if H[r, j] != 0:
            # normalize the pivot
            if n is None:
                if H[r, j] < 0:
                    H[r, :] = -H[r, :]
                    U[r, :] = -U[r, :]
            else:
                u, g = _unit_multiplier(H[r, j], n)
                H[r, :] = (u * H[r, :]) % n
                U[r, :] = (u * U[r, :]) % n
            p = H[r, j]
            for i in range(r):
                q = H[i, j] // p
                if q:
                    H[i, :] -= q * H[r, :]
                    U[i, :] -= q * U[r, :]
                    if n is not None:
                        H[i, :] %= n
                        U[i, :] %= n
            r += 1
    res = (Matrix(ring, A.rows, A.cols, H), Matrix(ring, A.rows, A.rows, U))
    A._hnf = res
    return res


def _clear_below(D, U, t, n):
    """Clear column t below the pivot D[t, t] by row operations, applied
    to U as well.  On the transposed views D.T, V.T this clears row t by
    column operations."""
    for i in range(t + 1, D.shape[0]):
        if D[i, t] == 0:
            continue
        a, b = D[t, t], D[i, t]
        if b % a == 0:
            q = b // a
            D[i, :] -= q * D[t, :]
            U[i, :] -= q * U[t, :]
            if n is not None:
                D[i, :] %= n
                U[i, :] %= n
        else:
            g, s, tt = _xgcd(a, b)
            _row_op_2x2(D, U, t, i, s, tt, -(b // g), a // g, mod=n)


def snf(A: Matrix):
    """Smith normal form.  Returns (D, U, V) with D = U @ A @ V."""
    if A._snf is not None:
        return A._snf
    ring = A.ring
    n = ring.n if ring.is_modular else None
    D = A.arr.astype(object, copy=True)
    U = Matrix.identity(ring, A.rows).arr.astype(object, copy=True)
    V = Matrix.identity(ring, A.cols).arr.astype(object, copy=True)
    rows, cols = A.rows, A.cols
    t = 0
    while True:
        # find the pivot: first nonzero of minimal measure in D[t:, t:]
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = D[i, j]
                if x != 0:
                    m = _measure(x, n)
                    if best is None or m < best:
                        best = m
                        pivot = (i, j)
        if pivot is None:
            break
        _swap_rows(D, U, t, pivot[0])
        _swap_rows(D.T, V.T, t, pivot[1])
        while True:
            _clear_below(D, U, t, n)
            _clear_below(D.T, V.T, t, n)  # row t, by column operations
            if all(D[i, t] == 0 for i in range(t + 1, rows)):
                break
        # fold in any entry the pivot does not divide, then redo
        p = D[t, t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if D[i, j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            D[t, :] += D[offender, :]
            U[t, :] += U[offender, :]
            if n is not None:
                D[t, :] %= n
                U[t, :] %= n
            continue  # re-run elimination at the same t
        # normalize the pivot
        if n is None:
            if D[t, t] < 0:
                D[t, :] = -D[t, :]
                U[t, :] = -U[t, :]
        else:
            u, g = _unit_multiplier(D[t, t], n)
            D[t, :] = (u * D[t, :]) % n
            U[t, :] = (u * U[t, :]) % n
        t += 1
        if t >= min(rows, cols):
            break
    res = (Matrix(ring, rows, cols, D),
           Matrix(ring, rows, rows, U),
           Matrix(ring, cols, cols, V))
    A._snf = res
    return res


def det(A: Matrix) -> int:
    """Exact determinant (fraction-free Bareiss).  Over Z/n: reduced mod n."""
    if A.rows != A.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    m = A.rows
    if m == 0:
        return A.ring.normalize(1)
    M = A.arr.astype(object, copy=True)
    sign = 1
    prev = 1
    for k in range(m - 1):
        if M[k, k] == 0:
            swap = next((i for i in range(k + 1, m) if M[i, k] != 0), None)
            if swap is None:
                return A.ring.normalize(0)
            M[[k, swap], :] = M[[swap, k], :]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                M[i, j] = (M[i, j] * M[k, k] - M[i, k] * M[k, j]) // prev
        prev = M[k, k]
    return A.ring.normalize(sign * M[m - 1, m - 1])


def is_invertible(A: Matrix) -> bool:
    """Invertibility over the ring (|det| = 1 over Z, det a unit mod n)."""
    if A.rows != A.cols:
        return False
    d = det(A)
    if A.ring.is_modular:
        return gcd(d, A.ring.n) == 1
    return d in (1, -1)


# ---------------------------------------------------------------------------
# solving and kernels
# ---------------------------------------------------------------------------

def _solve_z_many(A: Matrix, B: Matrix) -> Optional[Matrix]:
    """All-columns solve of A X = B over Z, or None."""
    D, U, V = snf(A)
    Y = U @ B
    diag = [D.entry(i, i) for i in range(min(D.rows, D.cols))]
    Xp = np.zeros((A.cols, B.cols), dtype=object)
    for c in range(B.cols):
        for i in range(A.rows):
            y = Y.entry(i, c)
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if y != 0:
                    return None
            else:
                if y % d != 0:
                    return None
                Xp[i, c] = y // d
    X = V @ Matrix(ZZ, A.cols, B.cols, Xp)
    return X


def zmod_lift(A: Matrix) -> Matrix:
    """The Z-matrix [A | n*I] for A over Z/n: its column span over Z,
    reduced mod n, is the column span of A.  Every Z/n solve, kernel and
    invariant-factor computation runs on this lift, per the one-engine
    design."""
    return hstack([Matrix(ZZ, A.rows, A.cols, A.arr),
                   Matrix.identity(ZZ, A.rows).scale(A.ring.n)])


def solve_many(A: Matrix, B: Matrix) -> Optional[Matrix]:
    """Exact solve of A X = B over the ring; None when no solution exists."""
    if A.rows != B.rows:
        raise DimensionMismatch("solve: row mismatch")
    if A.ring != B.ring:
        raise DimensionMismatch("solve: ring mismatch")
    if B.cols == 0:
        return Matrix.zeros(A.ring, A.cols, 0)
    if not A.ring.is_modular:
        return _solve_z_many(A, B)
    X = _solve_z_many(zmod_lift(A), Matrix(ZZ, B.rows, B.cols, B.arr))
    if X is None:
        return None
    return Matrix(A.ring, A.cols, B.cols, X.arr[:A.cols, :])


def solve(A: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve A x = b for a single column b; None when unsolvable."""
    if b.cols != 1:
        raise DimensionMismatch("solve expects a column")
    return solve_many(A, b)


def _kernel_z(A: Matrix) -> Matrix:
    D, U, V = snf(A)
    diag = [D.entry(i, i) for i in range(min(D.rows, D.cols))]
    free = [j for j in range(A.cols) if j >= len(diag) or diag[j] == 0]
    if not free:
        return Matrix.zeros(ZZ, A.cols, 0)
    arr = np.empty((A.cols, len(free)), dtype=object)
    for k, j in enumerate(free):
        arr[:, k] = V.arr[:, j]
    return Matrix(ZZ, A.cols, len(free), arr)


def kernel_basis(A: Matrix) -> Matrix:
    """Columns generating all solutions of A x = 0 over the ring."""
    if not A.ring.is_modular:
        return _kernel_z(A)
    n = A.ring.n
    K = _kernel_z(zmod_lift(A))
    cols = []
    seen = set()
    for j in range(K.cols):
        col = tuple(int(K.entry(i, j)) % n for i in range(A.cols))
        if any(col) and col not in seen:
            seen.add(col)
            cols.append(col)
    if not cols:
        return Matrix.zeros(A.ring, A.cols, 0)
    arr = np.empty((A.cols, len(cols)), dtype=object)
    for k, col in enumerate(cols):
        for i in range(A.cols):
            arr[i, k] = col[i]
    return Matrix(A.ring, A.cols, len(cols), arr)
