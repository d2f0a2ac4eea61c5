"""Finitely presented modules over Z or Z/n and their morphisms.

A module is R^gens / columnspan(rel), a slotted ``FPModule`` value that
checks its shape and ring once when made; a morphism is a matrix on
generators that carries relations into relations.  Submodule membership,
and so morphism validity and equality, reduces columns against the
echelon rows of the relation matrix (Howell rows over Z/n); every
universal-property factorization is an exact solve, off its Smith form.
"""

from __future__ import annotations

from typing import List, Tuple

from . import exactlin
from .exactlin import (
    DimensionMismatch,
    Matrix,
    RingSpec,
    block_diag,
    hstack,
    kernel_basis,
    kron,
    preimage_basis,
    snf,
    solve_many,
    unvec,
    vstack,
)

column_basis = exactlin.column_basis  # unused here; bench/tracer.py wraps it


class InvalidMorphism(ValueError):
    """The matrix does not carry source relations into target relations."""


class FactorError(ValueError):
    """A factorization required by a universal property has no solution."""


class FPModule:
    """R^gens modulo the column span of ``rel`` (one column per relation).

    A slotted value, never changed once made, like ``Matrix``: modules
    with equal fields are equal and hash equal."""

    __slots__ = ("ring", "gens", "rel")

    def __init__(self, ring: RingSpec, gens: int, rel: Matrix):
        if rel.rows != gens:
            raise DimensionMismatch(
                f"relation matrix has {rel.rows} rows for {gens} generators")
        if rel.ring is not ring and rel.ring != ring:
            raise DimensionMismatch("relation matrix over the wrong ring")
        self.ring, self.gens, self.rel = ring, gens, rel

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FPModule):
            return NotImplemented
        return ((self.ring, self.gens, self.rel)
                == (other.ring, other.gens, other.rel))

    def __hash__(self):
        return hash((self.ring, self.gens, self.rel))

    @staticmethod
    def free(ring: RingSpec, rank: int) -> "FPModule":
        return FPModule(ring, rank, Matrix.zeros(ring, rank, 0))

    @staticmethod
    def zero(ring: RingSpec) -> "FPModule":
        return FPModule.free(ring, 0)

    @staticmethod
    def cyclic(ring: RingSpec, order: int) -> "FPModule":
        """Z/order (order = 0 gives the free rank-1 module)."""
        if order == 0:
            return FPModule.free(ring, 1)
        return FPModule(ring, 1, Matrix.from_rows(ring, [[order]]))

    def contains(self, cols: Matrix) -> bool:
        """Do the given columns lie in the relation span?  Each is reduced
        against the echelon rows of rel, with Howell rows over Z/n, which
        stay in rel's memo (``exactlin._in_span``); no Smith form is built."""
        if cols.rows != self.gens:
            raise DimensionMismatch("membership test on wrong-length columns")
        return exactlin._in_span(self.rel, cols)

    def is_trivial(self) -> bool:
        return invariant_factors(self) == []

    def __repr__(self):
        return f"FPModule({self.ring}, gens={self.gens}, rel={self.rel.tolists()})"


class ModMor:
    """Morphism of presented modules; ``mat`` is dst.gens x src.gens."""

    __slots__ = ("src", "dst", "mat")

    def __init__(self, src: FPModule, dst: FPModule, mat: Matrix, check: bool = True):
        if mat.rows != dst.gens or mat.cols != src.gens:
            raise DimensionMismatch(
                f"matrix {mat.shape} for morphism {src.gens} -> {dst.gens}")
        ring = src.ring
        if ((mat.ring is not ring and mat.ring != ring)
                or (dst.ring is not ring and dst.ring != ring)):
            raise DimensionMismatch("ring mismatch in morphism")
        self.src = src
        self.dst = dst
        self.mat = mat
        if check and not is_valid_mor(self):
            raise InvalidMorphism(
                f"matrix {mat.tolists()} does not respect relations")

    @staticmethod
    def zero(src: FPModule, dst: FPModule) -> "ModMor":
        return ModMor(src, dst, Matrix.zeros(src.ring, dst.gens, src.gens), check=False)

    @staticmethod
    def identity(m: FPModule) -> "ModMor":
        return ModMor(m, m, Matrix.identity(m.ring, m.gens), check=False)

    def is_zero_mor(self) -> bool:
        return self.dst.contains(self.mat)

    def __add__(self, other: "ModMor") -> "ModMor":
        _same_endpoints(self, other)
        return ModMor(self.src, self.dst, self.mat + other.mat, check=False)

    def __sub__(self, other: "ModMor") -> "ModMor":
        _same_endpoints(self, other)
        return ModMor(self.src, self.dst, self.mat - other.mat, check=False)

    def __neg__(self) -> "ModMor":
        return ModMor(self.src, self.dst, -self.mat, check=False)

    def __repr__(self):
        return f"ModMor({self.src.gens}->{self.dst.gens}, {self.mat.tolists()})"


def _same_endpoints(f: ModMor, g: ModMor):
    if ((f.src is not g.src and f.src != g.src)
            or (f.dst is not g.dst and f.dst != g.dst)):
        raise DimensionMismatch("morphisms with different endpoints")


def is_valid_mor(f: ModMor) -> bool:
    """mat carries every source relation into the target relation span."""
    if f.src.rel.cols == 0 or f.dst.gens == 0:   # vacuous
        return True
    return f.dst.contains(f.mat @ f.src.rel)


def equal_mor(f: ModMor, g: ModMor) -> bool:
    """Equality as morphisms of the presented modules."""
    _same_endpoints(f, g)
    return f.dst.contains(f.mat - g.mat)


def compose(f: ModMor, g: ModMor) -> ModMor:
    """g after f (f then g)."""
    if f.dst is not g.src and f.dst != g.src:
        raise DimensionMismatch("non-composable morphisms")
    return ModMor(f.src, g.dst, g.mat @ f.mat, check=False)


def kernel(f: ModMor) -> Tuple[FPModule, ModMor]:
    """Kernel as a presented module with its inclusion into the source.

    Generators are the Hermite basis of {x : f.mat x in span dst.rel}
    (redundant generators would poison downstream cover-based exactness
    checks), and relations the Hermite basis of {y : cols y in span
    src.rel}, pulled back from the source presentation so that the
    inclusion is mono.  Both are one echelon pass (``preimage_basis``),
    with the Howell rows over Z/n (Howell 1986; Storjohann-Mulders 1998),
    so no Smith form is built.
    """
    return submodule(f.src, preimage_basis(f.mat, f.dst.rel))


def submodule(m: FPModule, cols: Matrix) -> Tuple[FPModule, ModMor]:
    """The submodule of m generated by the columns cols, with its mono
    inclusion: its relations are m's pulled back, as in ``kernel``."""
    K = FPModule(m.ring, cols.cols, preimage_basis(cols, m.rel))
    return K, ModMor(K, m, cols, check=False)


def cokernel(f: ModMor) -> FPModule:
    """Cokernel: target generators with the image columns added as
    relations.  Its projection from f.dst is the identity matrix on those
    generators, so it is not returned."""
    return FPModule(f.src.ring, f.dst.gens, hstack([f.dst.rel, f.mat]))


def factor_through(incl: ModMor, g: ModMor) -> ModMor:
    """The unique h with incl∘h = g (up to relations); raises FactorError.

    ``incl`` is typically a kernel inclusion; completeness of the solve
    makes the factorization exact whenever it exists.
    """
    if g.dst is not incl.dst and g.dst != incl.dst:
        raise DimensionMismatch("factor_through endpoint mismatch")
    sol = solve_many(hstack([incl.mat, incl.dst.rel]), g.mat)
    if sol is None:
        raise FactorError("no factorization through the given inclusion")
    return ModMor(g.src, incl.src, sol[:incl.src.gens], check=False)


def sum_module(m: FPModule, n: FPModule) -> FPModule:
    """The module m (+) n alone: the block-diagonal presentation."""
    if m.ring is not n.ring and m.ring != n.ring:
        raise DimensionMismatch("direct sum over different rings")
    return FPModule(m.ring, m.gens + n.gens, block_diag([m.rel, n.rel]))


def direct_sum(m: FPModule, n: FPModule):
    """Biproduct with injections and projections.

    Returns (sum, inj_m, inj_n, proj_m, proj_n).
    """
    s = sum_module(m, n)
    ring = m.ring
    i_m = vstack([Matrix.identity(ring, m.gens),
                  Matrix.zeros(ring, n.gens, m.gens)])
    i_n = vstack([Matrix.zeros(ring, m.gens, n.gens),
                  Matrix.identity(ring, n.gens)])
    p_m = i_m.transpose()
    p_n = i_n.transpose()
    return (s,
            ModMor(m, s, i_m, check=False),
            ModMor(n, s, i_n, check=False),
            ModMor(s, m, p_m, check=False),
            ModMor(s, n, p_n, check=False))


def tensor(m: FPModule, n: FPModule) -> FPModule:
    """Tensor product presentation: generator (i, j) has index i*n.gens + j."""
    if m.ring is not n.ring and m.ring != n.ring:
        raise DimensionMismatch("tensor over different rings")
    ring = m.ring
    gens = m.gens * n.gens
    parts = []
    if m.rel.cols:
        parts.append(kron(m.rel, Matrix.identity(ring, n.gens)))
    if n.rel.cols:
        parts.append(kron(Matrix.identity(ring, m.gens), n.rel))
    rel = hstack(parts) if parts else Matrix.zeros(ring, gens, 0)
    return FPModule(ring, gens, rel)


def tensor_mor(f: ModMor, n: FPModule) -> ModMor:
    """f (x) id_n, the Kronecker action on generators."""
    return ModMor(tensor(f.src, n), tensor(f.dst, n),
                  kron(f.mat, Matrix.identity(f.mat.ring, n.gens)),
                  check=False)


def invariant_factors(m: FPModule) -> List[int]:
    """SNF-canonical invariant factor list; 0 denotes a free rank.

    Two modules are isomorphic iff the lists are equal.  The list is the
    d_i not in {0, 1} of the Smith form of the relations, computed over
    the base ring itself, followed by one entry per generator beyond the
    rank: 0 over Z, and n over Z/n, where a free rank is the factor n.
    """
    fill = m.ring.n if m.ring.is_modular else 0
    if not (m.gens and m.rel.cols):     # the Smith form is empty
        return [fill] * m.gens
    D, = snf(m.rel, "D")
    diag = [D.entry(i, i) for i in range(min(D.rows, D.cols))]
    free = m.gens - sum(1 for d in diag if d != 0)
    # divisibility chain makes plain sorting canonical
    return sorted(d for d in diag if d not in (0, 1)) + [fill] * free


def is_epi(f: ModMor) -> bool:
    return cokernel(f).is_trivial()


def is_mono(f: ModMor) -> bool:
    _, incl = kernel(f)
    return incl.is_zero_mor()


def is_iso(f: ModMor) -> bool:
    return is_epi(f) and is_mono(f)


def is_exact_at(f: ModMor, g: ModMor) -> bool:
    """Exactness of  src(f) -> mid -> dst(g)  at the middle module."""
    if f.dst is not g.src and f.dst != g.src:
        raise DimensionMismatch("non-composable pair in exactness check")
    if not compose(f, g).is_zero_mor():
        return False
    # every kernel generator must be an image element modulo relations
    return cokernel(f).contains(kernel(g)[1].mat)


def hom_basis(src: FPModule, dst: FPModule) -> List[Matrix]:
    """Matrices generating all valid morphisms src -> dst.

    A matrix t is valid iff t * src.rel factors through dst.rel; that is
    one homogeneous linear system in the entries of t, so its solutions
    are generated by a kernel basis.
    """
    ring = src.ring
    n_t = dst.gens * src.gens
    if n_t == 0:
        return []
    basis = kernel_basis(hstack([
        kron(src.rel.transpose(), Matrix.identity(ring, dst.gens)),
        kron(Matrix.identity(ring, src.rel.cols), dst.rel)]))
    mats = (unvec(basis.col(j), dst.gens, src.gens) for j in range(basis.cols))
    return [t for t in mats if not t.is_zero()]
