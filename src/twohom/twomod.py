"""2-modules over a discrete base ring, their 1- and 2-morphisms,
relative kernels and relative cokernels with universal properties, and
the exactness predicates built on them.

Model: a 2-module is a 2-term complex [M1 --d--> M0] of presented
modules; objects of the underlying groupoid are elements of M0 and a
morphism x -> y is an element m of M1 with y = x + d(m).  A strict
morphism of 2-modules is a commuting square (f1, f0); a 2-morphism
F => G is a single map s: src.M0 -> dst.M1 with

    G.f0 = F.f0 + d∘s        G.f1 = F.f1 + s∘d

(both modulo relations).  A null homotopy of H is a 2-morphism H => 0,
i.e. 0 = H + (d∘s, s∘d).  These sign conventions are fixed once; the
relative-cokernel relation signs below are the unique ones making its
differential well defined, which is a tested invariant.

A composite (``compose``) or a zero 1-morphism (``OneMor.zero``) sets its
endpoints at once, after the same checks, but makes the matrices of f1 and
f0 on first read and keeps them: many serve only as a cell's source or
target, and nothing reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

from .exactlin import (DimensionMismatch, Matrix, RingSpec, block, block_diag,
                       hstack, vstack)
from .fpmod import (
    FPModule,
    InvalidMorphism,
    ModMor,
    cokernel,
    compose as mcompose,
    direct_sum,
    equal_mor,
    factor_through,
    invariant_factors,
    is_epi,
    is_mono,
    kernel,
    is_valid_mor,
    sum_module,
)


class CompatibilityError(ValueError):
    """A 2-cell fails the compatibility condition a construction requires."""


class TwoModule:
    """A 2-term complex [M1 --d--> M0] of presented modules."""

    __slots__ = ("M1", "M0", "d", "_pi0", "_pi1")

    def __init__(self, M1: FPModule, M0: FPModule, d: ModMor, check: bool = True):
        if (d.src is not M1 and d.src != M1) or (d.dst is not M0 and d.dst != M0):
            raise DimensionMismatch("structure map endpoints do not match")
        if check:
            _check_components(d=d)
        self.M1 = M1
        self.M0 = M0
        self.d = d
        self._pi0 = self._pi1 = None

    @property
    def ring(self) -> RingSpec:
        return self.M0.ring

    @staticmethod
    def zero(ring: RingSpec) -> "TwoModule":
        z = FPModule.zero(ring)
        return TwoModule(z, z, ModMor.zero(z, z), check=False)

    @staticmethod
    def discrete(m: FPModule) -> "TwoModule":
        """[0 -> m]: the module m placed in degree 0."""
        z = FPModule.zero(m.ring)
        return TwoModule(z, m, ModMor.zero(z, m), check=False)

    @staticmethod
    def free(ring: RingSpec, rank: int) -> "TwoModule":
        return TwoModule.discrete(FPModule.free(ring, rank))

    def is_free(self) -> bool:
        return self.M1.gens == 0 and self.M0.rel.cols == 0

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, TwoModule):
            return NotImplemented
        return (self.M1 == other.M1 and self.M0 == other.M0
                and self.d.mat == other.d.mat)

    def __repr__(self):
        return (f"TwoModule([{self.M1.gens} gens] -> [{self.M0.gens} gens],"
                f" pi0={invariant_factors(pi0(self))}, pi1={invariant_factors(pi1(self))})")


class OneMor:
    """Strict morphism of 2-modules: a commuting square (f1, f0)."""

    __slots__ = ("src", "dst", "f1", "f0")

    def __init__(self, src: TwoModule, dst: TwoModule, f1: ModMor, f0: ModMor,
                 check: bool = True):
        if ((f1.src is not src.M1 and f1.src != src.M1)
                or (f1.dst is not dst.M1 and f1.dst != dst.M1)):
            raise DimensionMismatch("f1 endpoints")
        if ((f0.src is not src.M0 and f0.src != src.M0)
                or (f0.dst is not dst.M0 and f0.dst != dst.M0)):
            raise DimensionMismatch("f0 endpoints")
        if check:
            _check_components(f1=f1, f0=f0)
            # the square is a map src.M1 -> dst.M0: vacuous if either has no
            # generators
            if (src.M1.gens and dst.M0.gens and not equal_mor(
                    mcompose(src.d, f0), mcompose(f1, dst.d))):
                raise InvalidMorphism("the square of f1 and f0 does not commute")
        self.src = src
        self.dst = dst
        self.f1 = f1
        self.f0 = f0

    @staticmethod
    def zero(src: TwoModule, dst: TwoModule) -> "OneMor":
        """The zero 1-morphism; its components are made on first read."""
        return _LazyOneMor(src, dst, ())

    @staticmethod
    def identity(m: TwoModule) -> "OneMor":
        return OneMor(m, m, ModMor.identity(m.M1), ModMor.identity(m.M0),
                      check=False)

    def __add__(self, other: "OneMor") -> "OneMor":
        _same_hom(self, other)
        return OneMor(self.src, self.dst, self.f1 + other.f1,
                      self.f0 + other.f0, check=False)

    def __sub__(self, other: "OneMor") -> "OneMor":
        _same_hom(self, other)
        return OneMor(self.src, self.dst, self.f1 - other.f1,
                      self.f0 - other.f0, check=False)

    def __neg__(self) -> "OneMor":
        return OneMor(self.src, self.dst, -self.f1, -self.f0, check=False)

    def __repr__(self):
        return f"OneMor(f1={self.f1.mat.tolists()}, f0={self.f0.mat.tolists()})"


class _LazyOneMor(OneMor):
    """A composite of ``_parts == (f, g)``, or zero for ``_parts == ()``,
    whose f1 and f0 are made on first read, into OneMor's own slots."""

    __slots__ = ("_parts",)

    def __init__(self, src: TwoModule, dst: TwoModule, parts: tuple):
        self.src, self.dst, self._parts = src, dst, parts

    def _fill(self):
        if self._parts:
            f, g = self._parts
            OneMor.f1.__set__(self, mcompose(f.f1, g.f1))
            OneMor.f0.__set__(self, mcompose(f.f0, g.f0))
        elif self._parts == ():
            OneMor.f1.__set__(self, ModMor.zero(self.src.M1, self.dst.M1))
            OneMor.f0.__set__(self, ModMor.zero(self.src.M0, self.dst.M0))
        self._parts = None

    @property
    def f1(self) -> ModMor:
        self._fill()
        return OneMor.f1.__get__(self)

    @property
    def f0(self) -> ModMor:
        self._fill()
        return OneMor.f0.__get__(self)


def _check_components(**components: ModMor):
    """Raise InvalidMorphism naming the first component that does not carry
    source relations into target relations."""
    for name, f in components.items():
        if not is_valid_mor(f):
            raise InvalidMorphism(f"{name} does not respect relations")


def _same_hom(f: OneMor, g: OneMor):
    if ((f.src is not g.src and f.src != g.src)
            or (f.dst is not g.dst and f.dst != g.dst)):
        raise DimensionMismatch("mismatched hom-set")


def one_mor_equal(f: OneMor, g: OneMor) -> bool:
    _same_hom(f, g)
    return equal_mor(f.f0, g.f0) and equal_mor(f.f1, g.f1)


def compose(f: OneMor, g: OneMor) -> OneMor:
    """f then g; its components are multiplied on first read."""
    if f.dst is not g.src and f.dst != g.src:
        raise DimensionMismatch("non-composable 1-morphisms")
    return _LazyOneMor(f.src, g.dst, (f, g))


class TwoMor:
    """2-morphism frm => to between parallel 1-morphisms, carried by s."""

    __slots__ = ("frm", "to", "s")

    def __init__(self, frm: OneMor, to: OneMor, s: ModMor, check: bool = True):
        _same_hom(frm, to)
        m0, m1 = frm.src.M0, frm.dst.M1
        if (s.src is not m0 and s.src != m0) or (s.dst is not m1 and s.dst != m1):
            raise DimensionMismatch("homotopy component endpoints")
        if check:
            _check_components(s=s)
            # each identity equates maps between modules of frm's ends, and
            # holds vacuously where one of them has no generators
            src, dst = frm.src, frm.dst
            if (src.M0.gens and dst.M0.gens and not equal_mor(
                    to.f0, frm.f0 + mcompose(s, dst.d))):
                raise InvalidMorphism("s fails the degree-0 identity")
            if (src.M1.gens and dst.M1.gens and not equal_mor(
                    to.f1, frm.f1 + mcompose(src.d, s))):
                raise InvalidMorphism("s fails the degree-1 identity")
        self.frm = frm
        self.to = to
        self.s = s

    @staticmethod
    def identity(f: OneMor) -> "TwoMor":
        return TwoMor(f, f, ModMor.zero(f.src.M0, f.dst.M1), check=False)

    def is_null(self) -> bool:
        return self.to.f0.is_zero_mor() and self.to.f1.is_zero_mor()

    def __repr__(self):
        return f"TwoMor(s={self.s.mat.tolists()})"


def null_homotopy(of: OneMor, s: ModMor, check: bool = True) -> TwoMor:
    """The 2-morphism of => 0 carried by s."""
    return TwoMor(of, OneMor.zero(of.src, of.dst), s, check=check)


def zero_null_homotopy(of: OneMor) -> TwoMor:
    """Canonical cell for a composite that is already the zero morphism."""
    return null_homotopy(of, ModMor.zero(of.src.M0, of.dst.M1))


def vcomp(a: TwoMor, b: TwoMor) -> TwoMor:
    """Vertical composition: homotopies add."""
    if not one_mor_equal(a.to, b.frm):
        raise DimensionMismatch("non-composable 2-morphisms")
    return TwoMor(a.frm, b.to, a.s + b.s, check=False)


def whisker_left(h: OneMor, a: TwoMor) -> TwoMor:
    """h∘a : compose(frm, h) => compose(to, h) for a: frm => to into h.src."""
    if a.frm.dst is not h.src and a.frm.dst != h.src:
        raise DimensionMismatch("whisker_left endpoints")
    return TwoMor(compose(a.frm, h), compose(a.to, h),
                  mcompose(a.s, h.f1), check=False)


def whisker_right(a: TwoMor, h: OneMor) -> TwoMor:
    """a∘h : compose(h, frm) => compose(h, to) for h into a's source."""
    if h.dst is not a.frm.src and h.dst != a.frm.src:
        raise DimensionMismatch("whisker_right endpoints")
    return TwoMor(compose(h, a.frm), compose(h, a.to),
                  mcompose(h.f0, a.s), check=False)


# ---------------------------------------------------------------------------
# pi invariants
# ---------------------------------------------------------------------------

def pi0(m: TwoModule) -> FPModule:
    """Objects up to isomorphism: cokernel of the structure map, kept on m,
    so all its reads share one relation matrix and its Smith form."""
    if m._pi0 is None:
        m._pi0 = cokernel(m.d)
    return m._pi0


def _pi1_data(m: TwoModule) -> Tuple[FPModule, ModMor]:
    if m._pi1 is None:
        m._pi1 = kernel(m.d)
    return m._pi1


def pi1(m: TwoModule) -> FPModule:
    """Automorphisms of zero: kernel of the structure map."""
    return _pi1_data(m)[0]


def pi0_mor(f: OneMor) -> ModMor:
    return ModMor(pi0(f.src), pi0(f.dst), f.f0.mat, check=False)


def pi1_mor(f: OneMor) -> ModMor:
    ksrc, isrc = _pi1_data(f.src)
    kdst, idst = _pi1_data(f.dst)
    return factor_through(idst, mcompose(isrc, f.f1))


def is_pi_trivial(m: TwoModule) -> bool:
    return invariant_factors(pi0(m)) == [] and invariant_factors(pi1(m)) == []


def pi_profile(m: TwoModule) -> Tuple[List[int], List[int]]:
    return invariant_factors(pi0(m)), invariant_factors(pi1(m))


def is_essentially_surjective(f: OneMor) -> bool:
    return is_epi(pi0_mor(f))


def is_faithful(f: OneMor) -> bool:
    return is_mono(pi1_mor(f))


def is_full(f: OneMor) -> bool:
    return is_epi(pi1_mor(f)) and is_mono(pi0_mor(f))


def is_equivalence(f: OneMor) -> bool:
    return is_full(f) and is_faithful(f) and is_essentially_surjective(f)


# ---------------------------------------------------------------------------
# biproduct
# ---------------------------------------------------------------------------

@dataclass
class BiproductResult:
    total: TwoModule
    inj1: OneMor
    inj2: OneMor
    proj1: OneMor
    proj2: OneMor


def biproduct(a: TwoModule, b: TwoModule) -> BiproductResult:
    """Degreewise direct sum with the canonical injections/projections."""
    if a.ring is not b.ring and a.ring != b.ring:
        raise DimensionMismatch("biproduct over different rings")
    s1, i1a, i1b, p1a, p1b = direct_sum(a.M1, b.M1)
    s0, i0a, i0b, p0a, p0b = direct_sum(a.M0, b.M0)
    total = TwoModule(s1, s0, ModMor(s1, s0, block_diag([a.d.mat, b.d.mat]),
                                     check=False), check=False)
    return BiproductResult(
        total,
        OneMor(a, total, i1a, i0a, check=False),
        OneMor(b, total, i1b, i0b, check=False),
        OneMor(total, a, p1a, p0a, check=False),
        OneMor(total, b, p1b, p0b, check=False),
    )


# ---------------------------------------------------------------------------
# relative kernel
# ---------------------------------------------------------------------------

@dataclass
class RelKernelResult:
    """Kernel of F relative to phi: G∘F => 0.

    K.M0 is the module of pairs (a, b) with F.f0(a) + d(b) = 0 and
    G.f1(b) = phi.s(a); ``incl`` embeds it into A.M0 (+) B.M1, and
    ``to_a`` / ``to_b`` are its two row blocks, cut by slicing.
    """

    K: TwoModule
    e: OneMor
    eps: TwoMor
    incl: ModMor
    to_a: ModMor
    to_b: ModMor
    F: OneMor
    phi: TwoMor
    G: OneMor


def _check_null_homotopy_of(phi: TwoMor, comp: OneMor, what: str):
    if not phi.is_null():
        raise CompatibilityError(f"{what}: cell is not a null homotopy")
    if not one_mor_equal(phi.frm, comp):
        raise CompatibilityError(f"{what}: cell is not a homotopy of the composite")


def relative_kernel(F: OneMor, phi: TwoMor, G: OneMor, check: bool = True
                    ) -> RelKernelResult:
    """Relative kernel of  A --F--> B --G--> C  along phi: G∘F => 0; with
    ``check=False`` the caller has proved phi a null homotopy of G∘F."""
    if F.dst is not G.src and F.dst != G.src:
        raise DimensionMismatch("relative kernel of a non-composable pair")
    if check:
        _check_null_homotopy_of(phi, compose(F, G), "relative kernel")
    A, B, C = F.src, F.dst, G.dst
    dom = sum_module(A.M0, B.M1)
    if not dom.gens:   # a zero ambient: K.M0 is zero, and so is incl
        kmod = FPModule.zero(A.ring)
        return _relative_kernel(F, phi, G, kmod, ModMor.zero(kmod, dom))
    theta = ModMor(dom, sum_module(B.M0, C.M1),
                   block([[F.f0.mat, B.d.mat],
                          [-phi.s.mat, G.f1.mat]]), check=False)
    return _relative_kernel(F, phi, G, *kernel(theta))


def _relative_kernel(F: OneMor, phi: TwoMor, G: OneMor, kmod: FPModule,
                     incl: ModMor) -> RelKernelResult:
    """The relative kernel of F along phi whose module of pairs is kmod,
    embedded in A.M0 (+) B.M1 by incl: the kernel of theta, however it was
    found, with the relations of that sum pulled back."""
    A, B = F.src, F.dst
    dk = ModMor.zero(A.M1, kmod) if not kmod.gens else factor_through(
        incl, ModMor(A.M1, incl.dst, vstack([A.d.mat, -F.f1.mat]), check=False))
    to_a = ModMor(kmod, A.M0, incl.mat[:A.M0.gens], check=False)
    to_b = ModMor(kmod, B.M1, incl.mat[A.M0.gens:], check=False)
    K = TwoModule(A.M1, kmod, dk, check=False)
    e = OneMor(K, A, ModMor.identity(A.M1), to_a, check=False)
    eps = null_homotopy(compose(e, F), to_b, check=False)
    return RelKernelResult(K, e, eps, incl, to_a, to_b, F, phi, G)


def plain_kernel(G: OneMor) -> RelKernelResult:
    """The kernel of G: its relative kernel against the zero map out of
    G.dst, along the zero cell."""
    H = OneMor.zero(G.dst, TwoModule.zero(G.dst.ring))
    # unchecked, as the zero cell of G∘H is one by construction
    return relative_kernel(G, zero_null_homotopy(compose(G, H)), H, check=False)


def rk_compatible(res: RelKernelResult, E: OneMor, psi: TwoMor) -> bool:
    """Is psi: F∘E => 0 compatible with the defining cell phi?"""
    lhs = whisker_left(res.G, psi).s          # G.f1 ∘ psi.s
    rhs = whisker_right(res.phi, E).s         # phi.s ∘ E.f0
    return equal_mor(lhs, rhs)


def rk_factorize(res: RelKernelResult, E: OneMor, psi: TwoMor,
                 check: bool = True) -> Tuple[OneMor, TwoMor]:
    """Universal property: factor (E, psi) through (e, eps).

    Returns (E', psi') with psi': e∘E' => E; E' sends k to the pair
    (E.f0(k), psi.s(k)).  With ``check=False`` the caller has proved psi a
    null homotopy of F∘E compatible with the kernel's cell.
    """
    if E.dst is not res.F.src and E.dst != res.F.src:
        raise DimensionMismatch("factorization target mismatch")
    if check:
        _check_null_homotopy_of(psi, compose(E, res.F), "rk_factorize")
        if not rk_compatible(res, E, psi):
            raise CompatibilityError(
                "cell incompatible with the kernel's defining cell")
    K = res.K
    dom = res.incl.dst
    pair = ModMor(E.src.M0, dom, vstack([E.f0.mat, psi.s.mat]), check=False)
    f0 = factor_through(res.incl, pair)
    # Unchecked, as proved here: K.M0's relations are all of incl's preimage
    # of dom's, so f0 is a module map as pair is, and maps into K.M0 agree if
    # they do after incl, where the square reads (E.f0∘d, psi.s∘d) =
    # (A.d∘E.f1, -F.f1∘E.f1): E's square and psi's degree-1 identity.  psi'
    # holds as to_a∘f0 is E.f0 modulo A.M0's relations and e.f1 = id.
    eprime = OneMor(E.src, K, E.f1, f0, check=False)
    psiprime = TwoMor(compose(eprime, res.e), E,
                      ModMor.zero(E.src.M0, res.F.src.M1), check=False)
    return eprime, psiprime


def unique_cell(fac1: Tuple[OneMor, TwoMor],
                fac2: Tuple[OneMor, TwoMor]) -> TwoMor:
    """The unique 2-morphism between two factorizations of the same
    (E, psi) through a relative kernel or a relative cokernel."""
    (e1, psi1), (e2, psi2) = fac1, fac2
    return TwoMor(e1, e2, psi1.s - psi2.s)


# ---------------------------------------------------------------------------
# relative cokernel
# ---------------------------------------------------------------------------

@dataclass
class RelCokernelResult:
    """Cokernel of G relative to phi: G∘F => 0.

    Q.M0 = C.M0 and Q.M1 = (B.M0 (+) C.M1) / N where N is spanned by the
    columns (F.f0 a, phi.s a) and (d_B m, -G.f1 m); d_Q[b, c] =
    G.f0(b) + d_C(c).  That d_Q kills N is the tested well-definedness
    invariant pinning the signs.  ``p`` and ``pi`` are made on first read
    and kept, as homology reads Q alone.
    """

    Q: TwoModule
    F: OneMor
    phi: TwoMor
    G: OneMor

    p = property(lambda self: self._cells[0])     # OneMor C -> Q
    pi = property(lambda self: self._cells[1])    # TwoMor p∘G => 0

    @cached_property
    def _cells(self) -> Tuple[OneMor, TwoMor]:
        B, C, qm1 = self.G.src, self.G.dst, self.Q.M1
        ring = C.ring
        p = OneMor(C, self.Q,
                   ModMor(C.M1, qm1,
                          vstack([Matrix.zeros(ring, B.M0.gens, C.M1.gens),
                                  Matrix.identity(ring, C.M1.gens)]), check=False),
                   ModMor.identity(C.M0), check=False)
        pi_s = ModMor(B.M0, qm1,
                      vstack([-Matrix.identity(ring, B.M0.gens),
                              Matrix.zeros(ring, C.M1.gens, B.M0.gens)]), check=False)
        # unchecked, as proved here: pi_s = (-1, 0) carries B.M0's relations
        # into Q.M1's; the degree-0 identity is G.f0 + d_Q∘pi_s = G.f0 - G.f0 =
        # 0, and the degree-1 one is (0, G.f1) + pi_s∘d_B = -(d_B, -G.f1), a
        # column block of N
        return p, null_homotopy(compose(self.G, p), pi_s, check=False)


def relative_cokernel(F: OneMor, phi: TwoMor, G: OneMor, check: bool = True
                      ) -> RelCokernelResult:
    """Relative cokernel of  A --F--> B --G--> C  along phi: G∘F => 0; with
    ``check=False`` the caller has proved phi a null homotopy of G∘F."""
    if F.dst is not G.src and F.dst != G.src:
        raise DimensionMismatch("relative cokernel of a non-composable pair")
    if check:
        _check_null_homotopy_of(phi, compose(F, G), "relative cokernel")
    B, C = F.dst, G.dst
    amb = sum_module(B.M0, C.M1)
    n_cols = hstack([
        vstack([F.f0.mat, phi.s.mat]),
        vstack([B.d.mat, -G.f1.mat]),
    ])
    qm1 = FPModule(B.ring, amb.gens, hstack([amb.rel, n_cols]))
    dq = ModMor(qm1, C.M0, hstack([G.f0.mat, C.d.mat]))  # checked: kills N
    return RelCokernelResult(TwoModule(qm1, C.M0, dq, check=False), F, phi, G)


def rc_compatible(res: RelCokernelResult, E: OneMor, psi: TwoMor) -> bool:
    """Is psi: E∘G => 0 compatible with the defining cell phi?"""
    lhs = whisker_left(E, res.phi).s          # E.f1 ∘ phi.s
    rhs = whisker_right(psi, res.F).s         # psi.s ∘ F.f0
    return equal_mor(lhs, rhs)


def rc_factorize(res: RelCokernelResult, E: OneMor, psi: TwoMor
                 ) -> Tuple[OneMor, TwoMor]:
    """Universal property: factor (E, psi) through (p, pi).

    Returns (E', psi') with psi': E'∘p => E; E' agrees with E on objects
    and sends the class [b, c] to -psi.s(b) + E.f1(c).
    """
    if E.src is not res.G.dst and E.src != res.G.dst:
        raise DimensionMismatch("factorization source mismatch")
    _check_null_homotopy_of(psi, compose(res.G, E), "rc_factorize")
    if not rc_compatible(res, E, psi):
        raise CompatibilityError("cell incompatible with the cokernel's defining cell")
    Q = res.Q
    f1 = ModMor(Q.M1, E.dst.M1, hstack([-psi.s.mat, E.f1.mat]), check=False)
    # checks f1 and f0
    eprime = OneMor(Q, E.dst, f1, ModMor(Q.M0, E.dst.M0, E.f0.mat, check=False))
    psiprime = TwoMor(compose(res.p, eprime), E,
                      ModMor.zero(E.src.M0, E.dst.M1))
    return eprime, psiprime


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------

def check_relative_two_exact(F: OneMor, phi: TwoMor, G: OneMor) -> bool:
    """2-exactness at the middle of (F, phi, G): the comparison
    c: A -> Ker(G) is full and essentially surjective.  Ker(F, phi) is the
    plain kernel of c, and pi0(Ker c), an extension of ker pi0(c) by
    coker pi1(c), is zero exactly when c is full.  pi1(Coker(phi, G)) =
    ker d_Q / N is Ker(G).M0 modulo the images of d_{Ker G} and c0, that
    is coker pi0(c), zero exactly when c is essentially surjective."""
    if invariant_factors(pi0(relative_kernel(F, phi, G).K)) != []:
        return False
    # unchecked, as relative_kernel has just checked that phi is a null
    # homotopy of G∘F, which is all that the cokernel checks
    return invariant_factors(pi1(relative_cokernel(F, phi, G, check=False).Q)) == []


def is_extension(F: OneMor, phi: TwoMor, G: OneMor) -> bool:
    """Extension: faithful first leg, essentially surjective second leg,
    2-exact at all three spots: Ker(F, phi) and Coker(phi, G) are
    pi-trivial.  These edges decide the legs, as pi1(Ker(F, phi)) =
    ker pi1(F) (incl∘d_K = (d_A, -F.f1) on A.M1 with incl mono) and
    pi0(Coker(phi, G)) = coker pi0(G) (d_Q = [G.f0 | d_C] into C.M0), and
    the middle spot, whose conditions are pi0(Ker(F, phi)) = 0 and
    pi1(Coker(phi, G)) = 0 (check_relative_two_exact)."""
    try:
        left = relative_kernel(F, phi, G)
    except CompatibilityError:
        return False
    # unchecked, as relative_kernel has just checked that phi is a null
    # homotopy of G∘F, which is all that the cokernel checks
    return (is_pi_trivial(left.K)
            and is_pi_trivial(relative_cokernel(F, phi, G, check=False).Q))
