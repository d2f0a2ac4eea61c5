"""Exact matrix arithmetic over Z and Z/n.

Everything downstream (presented modules, 2-modules, homology, derived
functors) reduces to the four primitives in this module: Hermite form,
Smith form, exact linear solving and kernel generation.  A ``Matrix``
stores a tuple of row tuples of Python ints, so no value ever overflows;
the elimination runs on lists of rows copied off it, and a row step changes
its row in place at the pivot row's nonzeros, on rows that share no list.
Over Z/n entries are canonical representatives in [0, n).
``Matrix(ring, rows, cols, entries)`` takes integers only, copies them and
reduces them mod n.  All other matrices are made here, immutable and
canonical, with the private keyword ``_rows``: most by ``_matrix``, and
the results that can leave [0, n) are reduced by ``_mod`` first.  As rows
are immutable, a row slice ``m[a:b]`` and ``vstack`` share the row tuples
of their blocks, ``hstack`` builds each row once, and an ``hstack`` of
one block is that block.  Other modules cut blocks by slicing, ``m[a:b]``
or ``m[a:b, c:d]``.  Every ring check here, and every endpoint check
downstream, tests identity before equality, as the endpoints of one
computation are almost always the same objects; shape checks compare
``rows`` and ``cols``.  Solving and kernels read the Smith form over the
ring itself (Z/n is a principal ideal ring), so nothing is lifted to Z.
Hermite bases come from one untransformed echelon pass: ``hnf`` of a row
span, ``column_basis`` of a column span, and ``preimage_basis`` of the
kernel of a module morphism, with Howell rows over Z/n (Howell 1986;
Storjohann-Mulders, ESA 1998), and over Z by remainder steps, which keep
entries small where xgcd mixing grew dense kernels to thousands of bits.
Membership in a column span (``_in_span``) reduces each column against the
rows of the same pass over the transpose, kept in the matrix's memo beside
its Smith form; the Howell rows make that reduction exact over Z/n.

Transforms exist only for ``snf``, on demand: ``snf(A, want="DUV")``
returns only the matrices that ``want`` names, in its order
(``snf(A, "D")`` is ``(D,)``).  The elimination runs on D alone and logs
each row and column operation.  Solving applies the logs to B and to the
solution of the diagonal system, and kernels apply V's log to a selector
of columns, so neither builds U or V; they are built only when read, by
applying the log to the identity.  The form and the logs stay in the
matrix's memo, so no matrix is eliminated twice, whatever is asked first.

Conventions (fixed so that outputs are bit-reproducible):

* ``hnf(A) = H`` with ``H = U @ A`` for some U invertible over the ring, H
  in row echelon form.  Over Z pivots are positive and entries above a
  pivot are reduced into [0, pivot); over Z/n pivots are divisors of n and
  entries above are reduced into [0, pivot).
* ``snf(A) = (D, U, V)`` with ``D = U @ A @ V``, both transforms
  invertible, D diagonal with d_i | d_{i+1}; over Z all d_i >= 0, over
  Z/n all nonzero d_i are proper divisors of n.
* Pivot selection is deterministic: first nonzero entry of minimal size
  (absolute value over Z, gcd with n over Z/n).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from operator import add, index, sub
from typing import Iterable, Optional, Sequence


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
            if self.n is None:
                raise ValueError("Zmod modulus must be an integer >= 2")
            object.__setattr__(self, "n", index(self.n))  # TypeError if not
            if self.n < 2:
                raise ValueError("Zmod modulus must be an integer >= 2")
        elif self.n is not None:
            raise ValueError("Z takes no modulus")

    # frozen: the dataclass still makes the field hash, which agrees
    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RingSpec):
            return NotImplemented
        return self.kind == other.kind and self.n == other.n

    @staticmethod
    def Z() -> "RingSpec":
        return RingSpec("Z")

    @staticmethod
    def Zmod(n: int) -> "RingSpec":
        return RingSpec("Zmod", n)

    @property
    def is_modular(self) -> bool:
        return self.kind == "Zmod"

    def normalize(self, x: int) -> int:
        return index(x) % self.n if self.kind == "Zmod" else index(x)

    def __str__(self):
        return "Z" if self.kind == "Z" else f"Z/{self.n}"


ZZ = RingSpec.Z()


class Matrix:
    """Immutable exact matrix over a RingSpec.

    Entries are stored as a tuple of ``rows`` row tuples of ``cols`` Python
    ints; for Z/n they are the canonical representatives in [0, n).
    """

    __slots__ = ("ring", "rows", "cols", "_rows", "_snf", "_span")

    def __init__(self, ring: RingSpec, rows: int, cols: int, entries, *,
                 _rows: Optional[tuple] = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.ring, self.rows, self.cols = ring, rows, cols
        if _rows is None:  # an ndarray is read through .flat
            flat = [index(x) for x in getattr(entries, "flat", entries)]
            if len(flat) != rows * cols:
                raise DimensionMismatch(f"need {rows * cols} entries, "
                                        f"got {len(flat)}")
            _rows = tuple(map(tuple, _mod(ring, (
                flat[i * cols:(i + 1) * cols] for i in range(rows)))))
        self._rows = _rows
        self._snf = self._span = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rows(ring: RingSpec, rows_data: Sequence[Sequence[int]],
                  cols: Optional[int] = None) -> "Matrix":
        r = len(rows_data)
        c = len(rows_data[0]) if r else (0 if cols is None else cols)
        if any(len(row) != c for row in rows_data):
            raise DimensionMismatch("ragged rows")
        return Matrix(ring, r, c, [x for row in rows_data for x in row])

    @staticmethod
    def zeros(ring: RingSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(ring, rows, cols, None, _rows=((0,) * cols,) * rows)

    @staticmethod
    def identity(ring: RingSpec, n: int) -> "Matrix":
        return Matrix(ring, n, n, None, _rows=tuple(
            (0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    # -- basic accessors -----------------------------------------------------

    @property
    def arr(self):
        """The entries as a new read-only object-dtype numpy array.  No
        library code reads it, so ``import twohom`` loads no numpy; it stays
        for callers that work in numpy, the benchmark's entry-size counter
        among them, and for the tests' numpy references."""
        import numpy as np
        arr = np.array(self._rows, dtype=object).reshape(self.shape)
        arr.setflags(write=False)
        return arr

    def entry(self, i: int, j: int) -> int:
        return self._rows[i][j]

    def __getitem__(self, key) -> "Matrix":
        """Rows ``m[a:b]`` or a block ``m[a:b, c:d]``."""
        keys = key if isinstance(key, tuple) else (key,)
        if not (0 < len(keys) < 3 and all(type(k) is slice for k in keys)):
            raise TypeError(f"Matrix indices are slices, not {key!r}")
        rows = self._rows[keys[0]]
        if len(keys) == 1:  # the rows are immutable, so they are shared
            return Matrix(self.ring, len(rows), self.cols, None, _rows=rows)
        c = keys[1]
        return _matrix(self.ring, len(rows), len(range(self.cols)[c]),
                       (row[c] for row in rows))

    def col(self, j: int) -> "Matrix":
        return self[:, j:j + 1]

    def tolists(self):
        return list(map(list, self._rows))

    def is_zero(self) -> bool:
        return not any(map(any, self._rows))

    @property
    def shape(self):
        return (self.rows, self.cols)

    # -- algebra -------------------------------------------------------------

    def _same_ring(self, other: "Matrix"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise DimensionMismatch("ring mismatch")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Sums the nonzeros of other's rows times the nonzeros of each row
        of self: most products have a sparse factor, often an identity."""
        self._same_ring(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}")
        nz, out = [_nonzeros(b) for b in other._rows], []
        for row in self._rows:
            out.append(acc := [0] * other.cols)
            for a, bs in zip(row, nz):
                if a:
                    for k, b in bs:
                        acc[k] += a * b
        return _matrix(self.ring, self.rows, other.cols, _mod(self.ring, out))

    def _entrywise(self, op, other: "Matrix", sign: str) -> "Matrix":
        self._same_ring(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"shape mismatch in {sign}")
        return _matrix(self.ring, self.rows, self.cols, _mod(self.ring, (
            map(op, x, y) for x, y in zip(self._rows, other._rows))))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(add, other, "+")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(sub, other, "-")

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, k: int) -> "Matrix":
        k = index(k)
        return _matrix(self.ring, self.rows, self.cols, _mod(self.ring, (
            map(k.__mul__, x) for x in self._rows)))

    def transpose(self) -> "Matrix":
        return _matrix(self.ring, self.cols, self.rows, zip(*self._rows))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.ring == other.ring and self.rows == other.rows
                and self.cols == other.cols and self._rows == other._rows)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self._rows))

    def __repr__(self):
        return f"Matrix({self.ring}, {self.rows}x{self.cols}, {self.tolists()})"


def _mod(ring: RingSpec, rows):
    """The rows (iterables of ints), each reduced into [0, n) over Z/n."""
    return (map(ring.n.__rmod__, x) for x in rows) if ring.is_modular else rows


def _matrix(ring: RingSpec, rows: int, cols: int, data) -> Matrix:
    """Matrix from rows of canonical ints (any iterables).  Data read off
    columns has no rows for a rows x 0 matrix; its empty rows are added."""
    return Matrix(ring, rows, cols, None,
                  _rows=tuple(map(tuple, data)) or ((),) * rows)


def hstack(mats: Iterable[Matrix]) -> Matrix:
    """The blocks side by side; a single block is itself, as matrices are
    immutable."""
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    first = mats[0]
    if len(mats) == 1:
        return first
    ring, rows, cols = first.ring, first.rows, 0
    for m in mats:
        if m.rows != rows or (m.ring is not ring and m.ring != ring):
            raise DimensionMismatch("hstack mismatch")
        cols += m.cols
    return Matrix(ring, rows, cols, None, _rows=tuple(
        [sum(parts, ()) for parts in zip(*(m._rows for m in mats))]))


def vstack(mats: Iterable[Matrix]) -> Matrix:
    """The blocks one above the other, sharing their row tuples."""
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    ring, cols, data = mats[0].ring, mats[0].cols, ()
    for m in mats:
        if m.cols != cols or (m.ring is not ring and m.ring != ring):
            raise DimensionMismatch("vstack mismatch")
        data += m._rows
    return Matrix(ring, len(data), cols, None, _rows=data)


def block_diag(mats: Iterable[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("block_diag of nothing")
    ring = mats[0].ring
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    data, c = [], 0
    for m in mats:
        left, right = (0,) * c, (0,) * (cols - c - m.cols)
        data += [left + row + right for row in m._rows]
        c += m.cols
    return _matrix(ring, rows, cols, data)


def block(rows_of_blocks: Sequence[Sequence[Matrix]]) -> Matrix:
    return vstack([hstack(row) for row in rows_of_blocks])


def vec(m: Matrix) -> Matrix:
    """Column-major vectorization as a single column."""
    return _matrix(m.ring, m.rows * m.cols, 1,
                   ((x,) for col in zip(*m._rows) for x in col))


def unvec(v: Matrix, rows: int, cols: int) -> Matrix:
    """Inverse of ``vec``: the first rows*cols entries of column v, read
    column-major into a rows x cols matrix."""
    flat = [x for x, in v._rows[:rows * cols]]
    if len(flat) != rows * cols:
        raise DimensionMismatch(f"unvec: {v.rows} entries, need {rows * cols}")
    return _matrix(v.ring, rows, cols, (flat[i::rows] for i in range(rows)))


def kron(a: Matrix, b: Matrix) -> Matrix:
    if a.ring is not b.ring and a.ring != b.ring:
        raise DimensionMismatch("ring mismatch in kron")
    if b._rows == ((1,),):  # a (x) [1] is a, and a keeps its Smith memo
        return a
    rows, cols = a.rows * b.rows, a.cols * b.cols
    if rows == 0 or cols == 0:
        return Matrix.zeros(a.ring, rows, cols)
    return _matrix(a.ring, rows, cols, _mod(a.ring, (
        [p * q for p in x for q in y] for x in a._rows for y in b._rows)))


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


def _pivot(M, r, c0, c1, n):
    """(i, j) of the first nonzero entry of minimal size in rows r.. and
    columns c0..c1-1 of M, read row by row, or None.  Size is |x| over Z,
    gcd(x, n) over Z/n (entries lie in [0, n)); as no size is below 1,
    a 1 ends the scan."""
    best = pivot = None
    for i in range(r, len(M)):
        row = M[i]
        for j in range(c0, c1):
            x = row[j]
            if x:
                m = abs(x) if n is None else gcd(x, n)
                if best is None or m < best:
                    best, pivot = m, (i, j)
                    if m == 1:
                        return pivot
    return pivot


# Row operations on a list of rows M, reduced mod n unless n is None.

def _swap(M, i, j, n):
    M[i], M[j] = M[j], M[i]


def _nonzeros(row):
    """(k, x) for each nonzero entry x = row[k]."""
    return [(k, x) for k, x in enumerate(row) if x]


def _sub_at(x, nz, q, n):
    """x[k] -= q * b in place for each (k, b) in nz, the nonzeros of a
    pivot row; the other entries of x are kept (over Z/n in [0, n)).  So
    every row list that the engine eliminates or replays a log onto is a
    fresh list that no other row or caller shares: ``tolists()`` rows, the
    rows built here and their slices."""
    if n is None:
        for k, b in nz:
            x[k] -= q * b
    else:
        for k, b in nz:
            x[k] = (x[k] - q * b) % n


def _sub(M, i, j, q, n):
    """Row i -= q * row j."""
    _sub_at(M[i], _nonzeros(M[j]), q, n)


def _mix(M, i, j, s, t, u, v, n):
    """Rows i, j <- (s*Ri + t*Rj, u*Ri + v*Rj)."""
    x, y = M[i], M[j]
    if n is None:
        M[i] = [s * a + t * b for a, b in zip(x, y)]
        M[j] = [u * a + v * b for a, b in zip(x, y)]
    else:
        M[i] = [(s * a + t * b) % n for a, b in zip(x, y)]
        M[j] = [(u * a + v * b) % n for a, b in zip(x, y)]


def _scale(M, i, u, n):
    """Row i times the unit u."""
    M[i] = [u * x for x in M[i]] if n is None else [(u * x) % n for x in M[i]]


def _step(M, log, op, *args):
    """Apply the row operation op to M and append it to log."""
    op(M, *args)
    log.append((op, args))


def _col_step(D, r, log, op, i, j, *args):
    """Apply to columns i, j of rows r.. of D (zero above r) what op does
    to rows i, j, and log its transpose as a row operation: the log applied
    last first to X gives V @ X."""
    n = args[-1]
    s, t, u, v = ((0, 1, 1, 0) if op is _swap else
                  (1, -args[0], 0, 1) if op is _sub else args[:4])
    # as in _sub: column i -= q * column j leaves rows with 0 in column j
    for row in [row for row in D[r:] if row[j]] if op is _sub else D[r:]:
        x, y = row[i], row[j]
        if n is None:
            row[i], row[j] = s * x + t * y, u * x + v * y
        else:
            row[i], row[j] = (s * x + t * y) % n, (u * x + v * y) % n
    log.append((op, (j, i) + args if op is _sub else
                (i, j, s, u, t, v, n) if op is _mix else (i, j) + args))


def _clear_below(M, log, r, j, n):
    """Zero column j of M below row r against the pivot M[r][j]: subtract a
    multiple of row r where the pivot is a factor, else mix by xgcd.  The
    nonzeros of row r are read once per state of that row."""
    nz = None
    for i in range(r + 1, len(M)):
        b = M[i][j]
        if b == 0:
            continue
        a = M[r][j]
        if b % a == 0:
            nz = nz or _nonzeros(M[r])
            _sub_at(M[i], nz, b // a, n)
            log.append((_sub, (i, r, b // a, n)))
        else:
            g, s, t = _xgcd(a, b)
            _step(M, log, _mix, r, i, s, t, -(b // g), a // g, n)
            nz = None


def _normalize(M, log, r, j, n):
    """Scale row r by a unit u so that the pivot x = M[r][j] becomes
    positive over Z, or gcd(x, n) over Z/n.  There u is the first unit
    mod n in the class of (x/g)^-1 mod n/g, where g = gcd(x, n)."""
    x = M[r][j]
    if n is None:
        u = -1 if x < 0 else 1
    else:  # x is in [0, n)
        g = gcd(x, n)
        m = n // g
        u0 = pow(x // g, -1, m) if m > 1 else 1
        u = next(k % n for k in range(u0, u0 + n * m, m) if gcd(k % n, n) == 1)
    if u != 1:
        _step(M, log, _scale, r, u, n)


class _Memo(dict):
    """What the Smith elimination leaves on its matrix: D under its letter,
    and in ``logs`` per transform letter (ring, size, log).  The first read
    of a transform applies its log to the identity and keeps the result."""

    def apply(self, key, M):
        """The rows of T @ M, for the transform T named key and M a list of
        rows (changed in place).  U's log holds row operations, applied in
        order; V's holds transposed column operations, applied last first.
        Every operation reduces mod n, so a canonical M stays canonical."""
        log = self.logs[key][2]
        for op, args in reversed(log) if key == "V" else log:
            op(M, *args)
        return M

    def __missing__(self, key):
        if key not in self.logs:
            raise ValueError(f"want names letters of DUV, not {key!r}")
        ring, m, _ = self.logs[key]
        eye = [[0] * i + [1] + [0] * (m - 1 - i) for i in range(m)]
        T = self[key] = _matrix(ring, m, m, self.apply(key, eye))
        return T


def _clear_by_remainders(M, r, j):
    """Zero column j of the rows M below row r over Z, with a = M[r][j] of
    the least nonzero |x| there.  Each round row r reduces every row below
    modulo itself, to remainders of |x| < |a| in column j, and the first
    row of the least nonzero remainder swaps into row r; no remainder left
    ends the rounds.  No entry grows as in xgcd mixing, which takes a row
    of each pair to a combination with Bezout coefficients."""
    while True:
        a, nz, best = M[r][j], None, None
        for i, x in enumerate(M[r + 1:], r + 1):
            if x[j]:
                nz = nz or _nonzeros(M[r])
                _sub_at(x, nz, x[j] // a, None)
                if x[j] and (best is None or abs(x[j]) < best[0]):
                    best = abs(x[j]), i
        if best is None:
            return
        _swap(M, r, best[1], None)


# a log that keeps nothing, for the steps of an untransformed pass
_NO_LOG = deque(maxlen=0)


def _echelon(M, width, n, hermite, keep=None):
    """Bring columns 0..width-1 of the rows M to row echelon form and return
    the rank r: rows r.. are zero there.  With hermite each pivot is
    normalized and the entries above it are reduced, which makes the
    Hermite form.  Over Z each column is cleared by remainder steps
    (``_clear_by_remainders``), over Z/n by ``_clear_below``.  Without
    hermite the row of a pivot a over Z/n times n / gcd(a, n), zero in
    column j, joins the rows below: the Howell step (Howell 1986;
    Storjohann-Mulders 1998), after which the rows from r on span every
    combination of M that is zero in columns 0..j.  With a list keep, a
    column whose cleared pivot a is no unit (|a| = 1 over Z, gcd(a, n) = 1
    over Z/n), or that has none, is appended to keep, and the pivot's row
    stays among the rows below: so rows r.. are zero off keep, and span
    every combination of M that is."""
    r = 0
    for j in range(width):
        pivot = _pivot(M, r, j, j + 1, n)
        if pivot is None:
            if keep is not None:
                keep.append(j)
            continue
        if pivot[0] != r:
            _swap(M, r, pivot[0], n)
        if n is None:
            _clear_by_remainders(M, r, j)
        else:
            _clear_below(M, _NO_LOG, r, j, n)
        a = M[r][j]
        if keep is not None and (abs(a) if n is None else gcd(a, n)) != 1:
            keep.append(j)   # row r stays in the pass
            continue
        g = 1 if n is None or hermite else gcd(a, n)
        if g > 1:
            M.append([(n // g) * x % n for x in M[r]])
        if hermite:
            _normalize(M, _NO_LOG, r, j, n)
            p, nz = M[r][j], None
            for i in range(r):
                q = M[i][j] // p
                if q:
                    nz = nz or _nonzeros(M[r])
                    _sub_at(M[i], nz, q, n)
        r += 1
    return r


def unit_cover(A: Matrix, t: int):
    """(keep, K) for A = [rel | d], whose last t columns are d.  keep lists
    the generators (rows of A) that one untransformed pass over the rows
    of A^T (``_echelon`` with keep) finds no unit pivot for, and K is the
    Hermite basis, as columns, of the pairs (x, y) with C x + d y in the
    span of rel, for C the columns of the identity at keep.

    A unit pivot solves its generator for later ones and kept earlier
    ones, so C covers R^g / A.  A kept generator's column is minus its
    coordinate in x, which the pass carries along.  Each row (w, y) of the
    pass keeps w - d y in the span of rel, as the row of d's column i
    starts as (d_i, e_i); the rows past the rank are zero off keep, so
    they are the pairs (-w at keep, y), and they span all of them."""
    n, g, s = A.ring.n, A.rows, A.cols - t
    M = [row + [0] * t for row in A.transpose().tolists()]
    for i, row in enumerate(M[s:]):
        row[g + i] = 1
    keep = []
    rank = _echelon(M, g, n, False, keep)
    K = [list(row) for row in _mod(A.ring, (
        [-row[j] for j in keep] + row[g:] for row in M[rank:]))]
    return keep, _hermite_columns(A.ring, K, len(keep) + t)


def hnf(A: Matrix) -> Matrix:
    """Row Hermite normal form H of A: H = U @ A for some invertible U."""
    H = A.tolists()
    _echelon(H, A.cols, A.ring.n, True)
    return _matrix(A.ring, A.rows, A.cols, H)


def snf(A: Matrix, want: str = "DUV"):
    """Smith normal form: the matrices named by want, in that order, of D,
    U and V with D = U @ A @ V."""
    if A._snf is not None:
        return tuple(map(A._snf.__getitem__, want))
    ring = A.ring
    n = ring.n if ring.is_modular else None
    rows, cols = A.rows, A.cols
    D = A.tolists()
    ulog, vlog, t = [], [], 0
    while t < min(rows, cols):
        pivot = _pivot(D, t, t, cols, n)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            _step(D, ulog, _swap, t, pi, n)
        if pj != t:
            _col_step(D, t, vlog, _swap, t, pj, n)
        while True:
            _clear_below(D, ulog, t, t, n)
            # row t right of the pivot, by column operations
            for j in range(t + 1, cols):
                b = D[t][j]
                if b == 0:
                    continue
                a = D[t][t]
                if b % a == 0:
                    _col_step(D, t, vlog, _sub, j, t, b // a, n)
                else:
                    g, s, tt = _xgcd(a, b)
                    _col_step(D, t, vlog, _mix, t, j, s, tt, -(b // g),
                              a // g, n)
            if all(D[i][t] == 0 for i in range(t + 1, rows)):
                break
        # fold in any entry that is no multiple of the pivot, then redo
        p = D[t][t]
        offender = None if p in (1, -1) else next(
            (i for i in range(t + 1, rows) if any(x % p for x in D[i][t + 1:])),
            None)
        if offender is not None:
            _step(D, ulog, _sub, t, offender, -1, n)
            continue  # re-run elimination at the same t
        _normalize(D, ulog, t, t, n)
        t += 1
    A._snf = memo = _Memo(D=_matrix(ring, rows, cols, D))
    memo.logs = {"U": (ring, rows, ulog), "V": (ring, cols, vlog)}
    return tuple(map(memo.__getitem__, want))


def det(A: Matrix) -> int:
    """Exact determinant (fraction-free Bareiss).  Over Z/n: reduced mod n."""
    if A.rows != A.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    m = A.rows
    if m == 0:
        return A.ring.normalize(1)
    M = A.tolists()
    sign = 1
    prev = 1
    for k in range(m - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if M[i][k] != 0), None)
            if swap is None:
                return A.ring.normalize(0)
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return A.ring.normalize(sign * M[m - 1][m - 1])


# ---------------------------------------------------------------------------
# solving and kernels
# ---------------------------------------------------------------------------

def solve_many(A: Matrix, B: Matrix) -> Optional[Matrix]:
    """Exact solve of A X = B over the ring; None when no solution exists.

    With D = U A V, the system is D Y = U B and X = V Y: solvable iff each
    row of U B is divisible by its d_i, and zero where d_i = 0 or past the
    diagonal.  Over Z/n every nonzero d_i is a divisor of n, so d_i y = c
    is solvable iff d_i | c."""
    if A.rows != B.rows:
        raise DimensionMismatch("solve: row mismatch")
    if A.ring is not B.ring and A.ring != B.ring:
        raise DimensionMismatch("solve: ring mismatch")
    if B.cols == 0:
        return Matrix.zeros(A.ring, A.cols, 0)
    D, = snf(A, "D")
    Y = A._snf.apply("U", B.tolists())
    diag = [D.entry(i, i) for i in range(min(D.rows, D.cols))]
    for i, row in enumerate(Y):
        d = diag[i] if i < len(diag) else 0
        if any(row) if d == 0 else any(y % d for y in row):
            return None
    # Z/n: 0 <= y // d <= y < n
    Xp = [[y // diag[i] for y in Y[i]] if i < len(diag) and diag[i]
          else [0] * B.cols for i in range(A.cols)]
    return _matrix(A.ring, A.cols, B.cols, A._snf.apply("V", Xp))


def _in_span(A: Matrix, B: Matrix) -> bool:
    """Does every column of B lie in the column span of A?

    Each column x is reduced against the echelon rows of A^T
    (``_span_rows``) in pivot order: the pivot a of a row clears the entry
    v of x in its column iff a | v over Z, iff gcd(a, n) | v over Z/n, and
    x lies in the span iff every pivot clears it and nothing is left.
    Over Z/n any multiple of the row that clears v serves, as the Howell
    rows make the rows past a pivot span every combination of A^T that is
    zero up to its column."""
    n, span = A.ring.n, _span_rows(A)
    for x in map(list, zip(*B._rows)):
        for p, g, w, nz in span:
            v = x[p]
            if v:
                if v % g:
                    return False
                _sub_at(x, nz, v // g * w, n)
        if any(x):
            return False
    return True


def _span_rows(A: Matrix) -> list:
    """The nonzero rows of one untransformed echelon pass over the rows of
    A^T (with Howell rows over Z/n), kept on A: per row (p, g, w, its
    nonzeros), for its pivot a at p.  Over Z g = a and w = 1; over Z/n
    g = gcd(a, n) and w (a / g) = 1 mod n / g.  So (v / g) w times the
    row clears an entry v at p that g divides."""
    if A._span is None:
        n, M = A.ring.n, [list(col) for col in zip(*A._rows)]
        span = []
        for row in M[:_echelon(M, A.rows, n, False)]:
            nz = _nonzeros(row)
            p, a = nz[0]
            g = a if n is None else gcd(a, n)
            span.append((p, g, 1 if n is None else pow(a // g, -1, n // g), nz))
        A._span = span
    return A._span


def preimage_basis(A: Matrix, B: Matrix) -> Matrix:
    """The submodule {x : A x in colspan B} as the columns of its Hermite
    basis (the transposed row Hermite form, zero rows dropped).

    The rows of [[A^T, I], [B^T, 0]] span the pairs ((A x + B z)^T, x^T).
    One echelon pass over their first t = A.rows columns, with no
    normalizing and no reduction above pivots, leaves rows whose first t
    entries are zero past the rank, and they span every combination that
    is zero there: over Z as Z has no zero divisors, over Z/n by the
    Howell rows that the pass appends (``_echelon``).  So their last
    A.cols entries generate the submodule."""
    if B.rows != A.rows or (B.ring is not A.ring and B.ring != A.ring):
        raise DimensionMismatch("preimage_basis: row or ring mismatch")
    t, g = A.shape
    if g == 0:
        return Matrix.zeros(A.ring, 0, 0)
    M = [a + [0] * i + [1] + [0] * (g - 1 - i)
         for i, a in enumerate(A.transpose().tolists())]
    M += [b + [0] * g for b in B.transpose().tolists()]
    K = [row[t:] for row in M[_echelon(M, t, A.ring.n, False):]]
    return _hermite_columns(A.ring, K, g)


def column_basis(mat: Matrix) -> Matrix:
    """The Hermite basis of the column span of mat, as columns."""
    return _hermite_columns(mat.ring, mat.transpose().tolists(), mat.rows)


def _hermite_columns(ring: RingSpec, rows, width: int) -> Matrix:
    """The nonzero rows of the Hermite form of rows (lists of width ints,
    eliminated in place), as the columns of a width x rank matrix."""
    k = _echelon(rows, width, ring.n, True)
    return _matrix(ring, width, k, zip(*rows[:k]))


def kernel_basis(A: Matrix) -> Matrix:
    """Columns generating all solutions of A x = 0 over the ring.

    With D = U A V: the columns V[:, j] with d_j = 0 or j past the
    diagonal, and over Z/n also (n // d_j) V[:, j] for each d_j not in
    {0, 1}.  V is invertible, so no column is zero."""
    D, = snf(A, "D")
    diag = [D.entry(i, i) for i in range(min(D.rows, D.cols))]
    scales = [(j, 1) for j in range(A.cols) if j >= len(diag) or diag[j] == 0]
    if A.ring.is_modular:
        scales += [(j, A.ring.n // d) for j, d in enumerate(diag)
                   if d not in (0, 1)]
    S = [[0] * len(scales) for _ in range(A.cols)]  # the selector, V @ S
    for k, (j, q) in enumerate(scales):
        S[j][k] = q
    return _matrix(A.ring, A.cols, len(scales), A._snf.apply("V", S))
