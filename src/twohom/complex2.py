"""Complexes of 2-modules with coherence cells, their morphisms and
2-chain homotopies, homology, induced maps, and the independent
total-complex oracle.

A complex carries modules A_0..A_N, differentials L_n: A_n -> A_{n-1}
and cells alpha_n: L_{n-1}∘L_n => 0 (n >= 2) subject to the coherence

    whisker_left(L_{n-2}, alpha_n) = whisker_right(alpha_{n-1}, L_n),

the sign being fixed so strict complexes (alpha = 0, L∘L = 0) validate.
Indices outside [0, N] are implicitly zero; homology at the right edge
uses the completion by two zero morphisms with canonical cells.  Where
Ker(L_n, alpha_n) and A_{n+1}.M0 have no generators, as far enough past
either edge or at the zero stages of a resolution, H_n is the zero
2-module and no elimination runs for it, nor for a homology map into or
out of it.

Homology at n is the relative cokernel of the induced
(alpha_{n+2}-bar, L'_{n+1}) over the relative kernel Ker(L_n, alpha_n);
the construction witnesses are retained so induced maps and homotopy
witnesses are computed on aligned presentations.  pi_1 of the homology at
n is read as pi_0 of the homology at n + 1, as the window law states.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .exactlin import DimensionMismatch, Matrix, RingSpec, block
from .fpmod import (
    FPModule,
    InvalidMorphism,
    ModMor,
    cokernel,
    compose as mcompose,
    equal_mor,
    factor_through,
    invariant_factors,
    kernel,
    sum_module,
)
from .twomod import (
    CompatibilityError,
    OneMor,
    RelKernelResult,
    TwoModule,
    TwoMor,
    compose,
    null_homotopy,
    pi0,
    relative_cokernel,
    relative_kernel,
    rk_compatible,
    rk_factorize,
    whisker_left,
    whisker_right,
)


class Complex2:
    """Finite complex of 2-modules with implicit zero padding."""

    def __init__(self, ring: RingSpec, modules: List[TwoModule],
                 diffs: List[OneMor], alphas: Optional[Dict[int, ModMor]] = None):
        if not modules:
            modules = [TwoModule.zero(ring)]
        if len(diffs) != len(modules) - 1:
            raise DimensionMismatch("need one differential per adjacent pair")
        for n, d in enumerate(diffs, start=1):
            src, dst = modules[n], modules[n - 1]
            if ((d.src is not src and d.src != src)
                    or (d.dst is not dst and d.dst != dst)):
                raise DimensionMismatch(f"differential {n} endpoints")
        self.ring = ring
        self.modules = list(modules)
        self.diffs = list(diffs)
        self.alphas: Dict[int, ModMor] = dict(alphas or {})
        self._zero = TwoModule.zero(ring)
        self._hom: Dict[int, "HomologyData"] = {}

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def module(self, n: int) -> TwoModule:
        if 0 <= n <= self.length:
            return self.modules[n]
        return self._zero

    def diff(self, n: int) -> OneMor:
        """L_n: A_n -> A_{n-1}; zero outside the stored range."""
        if 1 <= n <= self.length:
            return self.diffs[n - 1]
        return OneMor.zero(self.module(n), self.module(n - 1))

    def alpha_s(self, n: int) -> ModMor:
        if n in self.alphas:
            return self.alphas[n]
        return ModMor.zero(self.module(n).M0, self.module(n - 2).M1)

    def alpha(self, n: int, check: bool = False) -> TwoMor:
        """alpha_n: L_{n-1}∘L_n => 0 (canonical zero cell off the stored range)."""
        comp = compose(self.diff(n), self.diff(n - 1))
        return null_homotopy(comp, self.alpha_s(n), check=check)

    def homology(self, n: int) -> "HomologyData":
        if n not in self._hom:
            self._hom[n] = _homology(self, n)
        return self._hom[n]


def validate_complex(c: Complex2) -> Tuple[bool, str]:
    """All cells are null homotopies of their composites and cohere."""
    for n in range(2, c.length + 1):
        try:
            c.alpha(n, check=True)
        except (InvalidMorphism, DimensionMismatch) as exc:
            return False, f"alpha[{n}]: {exc}"
    for n in range(2, c.length + 1):
        lhs = whisker_left(c.diff(n - 2), c.alpha(n))
        rhs = whisker_right(c.alpha(n - 1), c.diff(n))
        if not equal_mor(lhs.s, rhs.s):
            return False, f"coherence at n={n}"
    return True, "ok"


class ChainMor:
    """Morphism of complexes: levelwise 1-morphisms F_n with cells
    lambda_n: F_{n-1}∘L_n => M_n∘F_n."""

    def __init__(self, src: Complex2, dst: Complex2,
                 fs: Dict[int, OneMor], lams: Optional[Dict[int, ModMor]] = None):
        self.src = src
        self.dst = dst
        self.fs = dict(fs)
        self.lams: Dict[int, ModMor] = dict(lams or {})

    @staticmethod
    def identity(c: Complex2) -> "ChainMor":
        return ChainMor(c, c, {n: OneMor.identity(c.module(n))
                               for n in range(c.length + 1)})

    @staticmethod
    def zero(src: Complex2, dst: Complex2) -> "ChainMor":
        return ChainMor(src, dst, {})

    def f(self, n: int) -> OneMor:
        if n in self.fs:
            return self.fs[n]
        return OneMor.zero(self.src.module(n), self.dst.module(n))

    def lam_s(self, n: int) -> ModMor:
        if n in self.lams:
            return self.lams[n]
        return ModMor.zero(self.src.module(n).M0, self.dst.module(n - 1).M1)

    def lam(self, n: int) -> TwoMor:
        frm = compose(self.src.diff(n), self.f(n - 1))
        to = compose(self.f(n), self.dst.diff(n))
        return TwoMor(frm, to, self.lam_s(n))

    def max_index(self) -> int:
        return max(self.src.length, self.dst.length)


def compose_chain(f: ChainMor, g: ChainMor) -> ChainMor:
    """f then g; the composite cell is g_{n-1}∘lambda_n followed by mu_n∘f_n."""
    fs = {}
    lams = {}
    top = max(f.max_index(), g.max_index())
    for n in range(top + 1):
        fs[n] = compose(f.f(n), g.f(n))
        s = mcompose(f.lam_s(n), g.f(n - 1).f1) + mcompose(f.f(n).f0, g.lam_s(n))
        lams[n] = s
    return ChainMor(f.src, g.dst, fs, lams)


def validate_chain_mor(m: ChainMor) -> Tuple[bool, str]:
    top = m.max_index() + 1
    for n in range(top + 1):
        try:
            m.lam(n)
        except (InvalidMorphism, DimensionMismatch) as exc:
            return False, f"lambda[{n}]: {exc}"
    for n in range(top + 2):
        # two routes F_{n-2} L_{n-1} L_n => 0 must agree
        lhs = (mcompose(m.src.diff(n).f0, m.lam_s(n - 1))
               + mcompose(m.lam_s(n), m.dst.diff(n - 1).f1)
               + mcompose(m.f(n).f0, m.dst.alpha_s(n)))
        rhs = mcompose(m.src.alpha_s(n), m.f(n - 2).f1)
        if not equal_mor(lhs, rhs):
            return False, f"lambda/alpha square at n={n}"
    return True, "ok"


class ChainHomotopy:
    """2-chain homotopy (H_n, tau_n) between chain morphisms m => mp."""

    def __init__(self, m: ChainMor, mp: ChainMor,
                 hs: Dict[int, OneMor], taus: Optional[Dict[int, ModMor]] = None):
        self.m = m
        self.mp = mp
        self.hs = dict(hs)
        self.taus: Dict[int, ModMor] = dict(taus or {})

    @staticmethod
    def zero(m: ChainMor) -> "ChainHomotopy":
        return ChainHomotopy(m, m, {}, {})

    def h(self, n: int) -> OneMor:
        if n in self.hs:
            return self.hs[n]
        return OneMor.zero(self.m.src.module(n), self.m.dst.module(n + 1))

    def tau_s(self, n: int) -> ModMor:
        if n in self.taus:
            return self.taus[n]
        return ModMor.zero(self.m.src.module(n).M0, self.m.dst.module(n).M1)

    def tau(self, n: int) -> TwoMor:
        to = (compose(self.h(n), self.m.dst.diff(n + 1))
              + compose(self.m.src.diff(n), self.h(n - 1))
              + self.mp.f(n))
        return TwoMor(self.m.f(n), to, self.tau_s(n))

    def max_index(self) -> int:
        return max(self.m.max_index(), self.mp.max_index())


def validate_chain_homotopy(h: ChainHomotopy) -> Tuple[bool, str]:
    top = h.max_index() + 1
    for n in range(top + 1):
        try:
            h.tau(n)
        except (InvalidMorphism, DimensionMismatch) as exc:
            return False, f"tau[{n}]: {exc}"
    src, dst = h.m.src, h.m.dst
    for n in range(top + 1):
        # compatibility of the cells of the two chain morphisms with tau
        lhs = h.mp.lam_s(n)
        rhs = (h.m.lam_s(n)
               + mcompose(h.h(n).f0, dst.alpha_s(n + 1))
               + mcompose(h.tau_s(n), dst.diff(n).f1)
               - mcompose(src.diff(n).f0, h.tau_s(n - 1))
               - mcompose(src.alpha_s(n), h.h(n - 2).f1))
        if not equal_mor(lhs, rhs):
            return False, f"tau/lambda compatibility at n={n}"
    return True, "ok"


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

class HomologyData:
    """Homology 2-module at degree n of the complex c, with the relative
    kernel it is a cokernel over."""

    __slots__ = ("kernel", "module", "c", "n")

    def __init__(self, kernel: RelKernelResult, module: TwoModule,
                 c: Complex2, n: int):
        self.kernel = kernel         # Ker(L_n, alpha_n)
        self.module = module         # Coker(abar, L'_{n+1}).Q
        self.c, self.n = c, n

    @property
    def pi(self) -> Tuple[List[int], List[int]]:
        """pi_profile(module), reading pi_1 H_n as pi_0 H_{n+1}: ker d_Q and
        Ker(L_{n+1}, alpha_{n+1}) are one lattice in A_{n+1}.M0 (+) A_n.M1,
        and H_n's relations N are that kernel's image of H_{n+1}'s d_Q.  So
        it builds H_{n+1}, and raises what c.homology(n + 1) raises; pi0
        is kept on each module, so degree n + 1 reuses its Smith form."""
        return (invariant_factors(pi0(self.module)),
                invariant_factors(pi0(self.c.homology(self.n + 1).module)))


def _homology(c: Complex2, n: int) -> HomologyData:
    # Each construction skips the null-homotopy check, as its cell is built
    # on the very composite it is checked against: c.alpha(k) on L_{k-1}∘L_k,
    # and abar, checked as a cell, on L'_{n+1}∘L_{n+2}.  The coherence of c
    # at n + 1 is checked, as no one need have validated c, unless alpha_n
    # and alpha_{n+1} are zero cells, when it equates two zero maps.
    kr = relative_kernel(c.diff(n), c.alpha(n), c.diff(n - 1), check=False)
    if _is_zero(kr.K) and not c.module(n + 1).M0.gens:
        # H_n is zero, unchecked, as proved here: Q.M0 = K.M0 and Q.M1 is a
        # quotient of A_{n+1}.M0 (+) K.M1, none of which has generators.  The
        # checks skipped, the coherence at n + 1, the cell abar and "d_Q
        # kills N", compare maps out of A_{n+1}.M0, into K or out of Q.M1,
        # so they hold vacuously
        return HomologyData(kr, c._zero, c, n)
    e, psi = c.diff(n + 1), c.alpha(n + 1)
    if {n, n + 1} & c.alphas.keys() and not rk_compatible(kr, e, psi):
        raise CompatibilityError(f"the complex is not coherent at n={n + 1}")
    lp, _ = rk_factorize(kr, e, psi, check=False)
    abar = null_homotopy(compose(c.diff(n + 2), lp), c.alpha_s(n + 2))
    cr = relative_cokernel(c.diff(n + 2), abar, lp, check=False)
    return HomologyData(kr, cr.Q, c, n)


def _is_zero(m: TwoModule) -> bool:
    return not (m.M0.gens or m.M1.gens)


def pair_block(f0: Matrix, s: Matrix, f1: Matrix) -> Matrix:
    """The block [[f0, 0], [s, f1]] acting on pairs (a, b)."""
    return block([[f0, Matrix.zeros(f0.ring, f0.rows, f1.cols)], [s, f1]])


def kernel_cell(hsrc: HomologyData, dst: FPModule, blk: Matrix) -> ModMor:
    """A pair block restricted to the source's relative kernel."""
    amb = hsrc.kernel.incl.dst
    return mcompose(hsrc.kernel.incl, ModMor(amb, dst, blk, check=False))


def homology_map(hsrc: HomologyData, hdst: HomologyData,
                 b0: Matrix, b1: Matrix) -> OneMor:
    """The 1-morphism between homology 2-modules given by pair blocks: b0
    restricted to Ker(L_n, alpha_n) of the source and factored through the
    target's, b1 (the block one degree up) acting on classes.  Into or out
    of a zero homology 2-module it is the zero 1-morphism: b0 and b1 are
    not read, so nothing checks there that b0 maps kernel to kernel."""
    if _is_zero(hsrc.module) or _is_zero(hdst.module):
        return OneMor.zero(hsrc.module, hdst.module)
    f0 = factor_through(hdst.kernel.incl,
                        kernel_cell(hsrc, hdst.kernel.incl.dst, b0))
    f1 = ModMor(hsrc.module.M1, hdst.module.M1, b1, check=False)
    return OneMor(hsrc.module, hdst.module, f1, f0)   # checks f1 and f0


def induced(m: ChainMor, n: int) -> OneMor:
    """The morphism H_n(src) -> H_n(dst) induced by a chain morphism.

    Degree 0 sends a pair (a, b) to (F_n.f0 a, F_{n-1}.f1 b - lambda_n.s a);
    degree 1 acts on classes by the analogous block with lambda_{n+1}.
    """
    def blk(k):
        return pair_block(m.f(k).f0.mat, -m.lam_s(k).mat, m.f(k - 1).f1.mat)

    return homology_map(m.src.homology(n), m.dst.homology(n), blk(n), blk(n + 1))


def homotopy_equiv_witness(h: ChainHomotopy, n: int) -> TwoMor:
    """A 2-morphism between the maps induced on homology by 2-chain
    homotopic chain morphisms; its existence is mandatory."""
    blk = pair_block(-h.h(n).f0.mat, h.tau_s(n).mat, h.h(n - 1).f1.mat)
    s = kernel_cell(h.m.src.homology(n), h.m.dst.homology(n).module.M1, blk)
    return TwoMor(induced(h.m, n), induced(h.mp, n), s)


# ---------------------------------------------------------------------------
# total-complex oracle
# ---------------------------------------------------------------------------

class TotalComplex:
    """Module-level total complex: T_k = A_k.M0 (+) A_{k-1}.M1 with the
    square-zero differential assembled from L, d and the alpha cells."""

    __slots__ = ("ring", "modules", "diffs")

    def __init__(self, ring: RingSpec, modules: List[FPModule],
                 diffs: List[ModMor]):
        self.ring = ring
        self.modules = modules       # T_0 .. T_{N+1}
        self.diffs = diffs           # D_1 .. D_{N+1}

    def t(self, k: int) -> FPModule:
        if 0 <= k < len(self.modules):
            return self.modules[k]
        return FPModule.zero(self.ring)

    def d(self, k: int) -> ModMor:
        if 1 <= k <= len(self.diffs):
            return self.diffs[k - 1]
        return ModMor.zero(self.t(k), self.t(k - 1))


class TotalAssemblyError(RuntimeError):
    """Square-zero failed: the complex's cells are incoherent."""


def total(c: Complex2) -> TotalComplex:
    ring = c.ring
    mods: List[FPModule] = []
    for k in range(c.length + 2):
        m0 = c.module(k).M0
        m1 = c.module(k - 1).M1
        mods.append(sum_module(m0, m1))
    diffs: List[ModMor] = []
    for k in range(1, c.length + 2):
        below = c.module(k - 1)
        mat = block([
            [c.diff(k).f0.mat, below.d.mat],
            [c.alpha_s(k).mat, -c.diff(k - 1).f1.mat],
        ])
        diffs.append(ModMor(mods[k], mods[k - 1], mat, check=False))
    tc = TotalComplex(ring, mods, diffs)
    for k in range(2, c.length + 2):
        if not mcompose(tc.d(k), tc.d(k - 1)).is_zero_mor():
            raise TotalAssemblyError(f"total differential fails d∘d=0 at {k}")
    return tc


def hyper(tc: TotalComplex, k: int) -> FPModule:
    """Homology of the total complex at k (kernel mod image)."""
    K, incl = kernel(tc.d(k))
    h = factor_through(incl, tc.d(k + 1))
    return cokernel(h)


def window_profile(c: Complex2, i: int) -> Tuple[List[int], List[int]]:
    """(invariant factors of hyper at i, at i+1) for the window-law check."""
    tc = total(c)
    return (invariant_factors(hyper(tc, i)),
            invariant_factors(hyper(tc, i + 1)))
