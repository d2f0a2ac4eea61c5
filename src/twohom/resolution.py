"""Free 2-modules, essentially surjective covers, projective resolutions,
comparison lifts with homotopy uniqueness, and the horseshoe over an
extension.

Projectives are exactly the free 2-modules [0 -> R^k]; because their
degree-1 part vanishes, every 2-cell between resolution stages is zero
except at the augmentation, and comparison lifts reduce to exact integer
chain algebra plus one nontrivial augmentation cell.

A resolution is one augmented complex ... -> P_1 -> P_0 -> M -> 0, and it
stores exactly that ``Complex2``: ``augmented()`` returns the same object on
every call, with M in degree 0 and P_n in degree n + 1.  So P_{-1} is the
target M (``module(-1)``), F_0 is ``aug`` (``f(0)``, the first
differential), the augmentation cell is alpha_2, a comparison lift of
h: M -> N has H_{-1} = h (``lift(-1)``), and for every n >= 0 stage kernel n
is the kernel of F_n relative to ``cell(n)``: F_{n-1}∘F_n => 0.

Every resolution comes out of one stage loop, ``_extend``, started from a
depth-0 resolution: stage n covers stage kernel n - 1.  ``resolve`` covers
it by ``_free_stage``, whose one pass over pi0's relations (``unit_cover``)
keeps the generators it finds no unit pivot for and gives stage kernel n
as well, so no second elimination builds it.  ``horseshoe`` covers the
middle of an extension by P_n (+) Q_n, with the covers of the ends carried
in through the maps of stage kernels (Weibel, Horseshoe Lemma 2.2.8), and
its stage kernels go through ``relative_kernel``; ``product_resolution``
is the horseshoe of a split extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .exactlin import Matrix, hstack, solve_many, unit_cover
from .fpmod import (
    FPModule,
    ModMor,
    compose as mcompose,
    equal_mor,
    submodule,
    sum_module,
)
from .complex2 import ChainHomotopy, ChainMor, Complex2, validate_complex
from .twomod import (
    BiproductResult,
    OneMor,
    RelKernelResult,
    TwoModule,
    TwoMor,
    _relative_kernel,
    biproduct,
    compose,
    is_essentially_surjective,
    is_extension,
    is_pi_trivial,
    null_homotopy,
    pi0,
    relative_kernel,
    rk_factorize,
    whisker_right,
    zero_null_homotopy,
)


class ResolutionError(ValueError):
    """A lift failed; the input data is not what it claims."""


def free_mor(p: TwoModule, dst: TwoModule, f0: Matrix) -> OneMor:
    """The 1-morphism out of a free p with degree-0 matrix f0 (f1 is zero)."""
    return OneMor(p, dst, ModMor.zero(p.M1, dst.M1),
                  ModMor(p.M0, dst.M0, f0, check=False), check=False)


Pairs = Tuple[FPModule, ModMor]


def _free_stage(m: TwoModule) -> Tuple[TwoModule, OneMor, Pairs]:
    """(P, cover, (kmod, incl)): the essentially surjective cover
    [0 -> R^k] -> m by the generators of M0 that one pass over pi0(m)'s
    relations [rel | d] (``unit_cover``) finds no unit pivot for, and the
    pairs (x, y) of P.M0 (+) M1 with cover(x) + d(y) = 0 in M0, read off
    the same pass.  A unit pivot solves its generator for later ones and
    kept earlier ones; a kept generator's entries stay in the pass as its
    coordinate, so a relation (2, 1) keeps g0 alone.  Any two resolutions
    are homotopy equivalent (Weibel, Comparison Theorem 2.2.6), so no
    derived answer depends on the cover.  The pairs are the module of
    pairs of the stage kernel of the cover: at the start d is the target's
    and the kernel's theta is [cover | d]; past it M1 = 0, and theta is the
    previous stage kernel's mono inclusion after the cover, which kills x
    exactly when cover(x) is zero in that kernel's M0."""
    g = m.M0.gens
    keep, cols = unit_cover(pi0(m).rel, m.M1.gens)
    p = TwoModule.free(m.ring, len(keep))
    return (p, free_mor(p, m, Matrix(m.ring, g, len(keep), [
        int(j == k) for j in range(g) for k in keep])),
        submodule(sum_module(p.M0, m.M1), cols))


def lift_through(p: TwoModule, t: OneMor, e: OneMor) -> Tuple[OneMor, TwoMor]:
    """Lift t: p -> c through an essentially surjective e: b -> c.

    p must be free; per generator we solve e.f0*x + d_c*y = t.f0(gen)
    modulo relations.  Returns (l, sigma) with sigma: e∘l => t.
    """
    if not p.is_free():
        raise ResolutionError("lift_through needs a free source")
    if (t.src is not p and t.src != p) or (t.dst is not e.dst and t.dst != e.dst):
        raise ResolutionError("lift_through endpoint mismatch")
    b, c = e.src, e.dst
    system = hstack([e.f0.mat, c.d.mat, c.M0.rel])
    sol = solve_many(system, t.f0.mat)
    if sol is None:
        raise ResolutionError(
            "lift failed although the target map is essentially surjective")
    l = free_mor(p, b, sol[:b.M0.gens])
    ys = sol[b.M0.gens: b.M0.gens + c.M1.gens]
    # unchecked, as the solve proves it: t.f0 = e.f0∘l.f0 + d_c∘ys modulo
    # c.M0's relations, and p is free, so ys is a module map and the
    # degree-1 identity is vacuous
    sigma = TwoMor(compose(l, e), t, ModMor(p.M0, c.M1, ys, check=False),
                   check=False)
    return l, sigma


class Resolution:
    """A projective resolution, stored as its augmented complex: degree 0
    is the target M, degree n + 1 is the free P_n, the first differential
    is the essentially surjective augmentation and alpha_2 its cell.  The
    strict complex of the P_n alone is built once, beside it.  The stage
    kernels and essentially surjective witnesses are retained."""

    def __init__(self, augmented: Complex2, kernels: List[RelKernelResult],
                 witnesses: List[OneMor], terminated: bool):
        self._augmented = augmented
        self._complex = Complex2(augmented.ring, augmented.modules[1:],
                                 augmented.diffs[1:])
        self.kernels = kernels
        self.witnesses = witnesses
        self.terminated = terminated

    # the parts, read off the augmented complex, where P_n sits in degree n + 1
    target = property(lambda self: self._augmented.modules[0])
    modules = property(lambda self: self._augmented.modules[1:])  # P_0..P_depth
    diffs = property(lambda self: self._augmented.diffs[1:])  # F_1..F_depth
    aug = property(lambda self: self._augmented.diffs[0])
    aug_cell_s = property(lambda self: self._augmented.alpha_s(2))
    depth = property(lambda self: self._augmented.length - 1)

    def module(self, n: int) -> TwoModule:
        """P_n, with P_{-1} the target; zero off range."""
        return self._augmented.module(n + 1)

    def f(self, n: int) -> OneMor:
        """F_n: P_n -> P_{n-1}, with F_0 the augmentation and F_{-1} the map
        M -> 0; zero off range."""
        return self._augmented.diff(n + 1)

    def cell(self, n: int) -> TwoMor:
        """Null homotopy of F_{n-1}∘F_n; only the augmentation cell (n = 1)
        can be nonzero, and every other is the zero cell, checked."""
        return self._augmented.alpha(n + 1, check=n != 1)

    def complex(self) -> Complex2:
        """The strict complex of the P_n: the same object on every call."""
        return self._complex

    def augmented(self) -> Complex2:
        """The stored augmented complex (one homology memo for every caller)."""
        return self._augmented


def _start(target: TwoModule, p0: TwoModule, aug: OneMor,
           pairs: Optional[Pairs] = None) -> Resolution:
    """The depth-0 resolution of target whose augmentation is the
    essentially surjective aug: P_0 -> target.  pairs, if given, is
    stage kernel 0's module of pairs, read off the cover's pass."""
    c = Complex2(target.ring, [target, p0], [aug])
    # unchecked, as c.alpha(1) is the zero cell of that very composite
    k0 = (_relative_kernel(aug, c.alpha(1), c.diff(0), *pairs) if pairs
          else relative_kernel(aug, c.alpha(1), c.diff(0), check=False))
    return Resolution(c, [k0], [], is_pi_trivial(k0.K))


Stage = Callable[[int, RelKernelResult], Tuple[TwoModule, OneMor]]


def _extend(res: Resolution, depth: int, stage: Optional[Stage] = None
            ) -> Resolution:
    """The stage loop: res resolved on to the given depth, so that
    ``_extend(resolve(m, d), D)`` is ``resolve(m, D)``.  Stage n covers the
    relative kernel of F_{n-1}: ``stage(n, Ker_{n-1})`` returns P_n and its
    essentially surjective cover of Ker_{n-1}, the free cover when stage is
    None.  Once a stage kernel is pi-trivial the resolution has terminated
    and every further stage is zero.  A free cover's pass gives its stage
    kernel's module of pairs too (``_free_stage``); a stage's cover made
    elsewhere goes through ``relative_kernel``."""
    if depth <= res.depth:
        return res
    c = res.augmented()
    mods, diffs, alphas = list(c.modules), list(c.diffs), dict(c.alphas)
    kernels, witnesses = list(res.kernels), list(res.witnesses)
    terminated = res.terminated
    for n in range(res.depth + 1, depth + 1):
        prev_k, pairs = kernels[n - 1], None
        if terminated:
            pn = TwoModule.zero(c.ring)
            cover = OneMor.zero(pn, prev_k.K)
        elif stage is None:
            pn, cover, pairs = _free_stage(prev_k.K)
        else:
            pn, cover = stage(n, prev_k)
        mods.append(pn)
        diffs.append(compose(cover, prev_k.e))   # F_n, in degree n + 1
        witnesses.append(cover)
        # cell(n), whiskered from the previous kernel's cell: it defines the
        # augmentation cell at n = 1, and F_{n-1}∘F_n = 0 needs no check.
        # The kernel skips its check, as proved here: cell runs from
        # cover∘(e∘F_{n-1}), which is F_{n-1}∘F_n by associativity, to
        # cover∘0 = 0
        cell = whisker_right(prev_k.eps, cover)
        if n == 1:
            alphas[2] = cell.s
        kernels.append(
            _relative_kernel(diffs[n], cell, diffs[n - 1], *pairs) if pairs
            else relative_kernel(diffs[n], cell, diffs[n - 1], check=False))
        terminated = terminated or is_pi_trivial(kernels[-1].K)
    return Resolution(Complex2(c.ring, mods, diffs, alphas), kernels,
                      witnesses, terminated)


def resolve(m: TwoModule, depth: int) -> Resolution:
    """Build a projective resolution of m to the given depth.

    Each stage is the small free cover (``_free_stage``) of the relative
    kernel of the previous differential.  Resolution stops at the first
    pi-trivial stage kernel: every later stage is zero, and ``terminated``
    is set.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _extend(_start(m, *_free_stage(m)), depth)


def validate_resolution(res: Resolution) -> Tuple[bool, str]:
    """Augmented complex valid, augmentation essentially surjective, free
    stages, and relative 2-exactness at each interior stage: pi-trivial
    homology of the augmented complex there.  Where the comparison L' into
    the stage kernel is full and essentially surjective, its plain cokernel
    Q' is pi-trivial, as pi0(Q') = coker pi0(L') and pi1(Q') = pi0(Ker L');
    the homology is Q' with more relations on M1, which Q''s injective d_Q
    kills, so they hold in Q' already.  L' cannot be full
    where pi0 of the stage kernel has torsion, as over Z/n, although the
    resolution is exact.
    """
    for n, p in enumerate(res.modules):
        if not p.is_free():
            return False, f"P_{n} is not free"
    aug_cplx = res.augmented()
    ok, why = validate_complex(aug_cplx)
    if not ok:
        return False, f"augmented complex: {why}"
    if not is_essentially_surjective(res.aug):
        return False, "augmentation is not essentially surjective"
    top = res.depth if res.terminated else res.depth - 2
    for i in range(0, top + 1):
        if not is_pi_trivial(aug_cplx.homology(i + 1).module):
            return False, f"not relative 2-exact at P_{i}"
    return True, "ok"


# ---------------------------------------------------------------------------
# comparison lifts between resolutions
# ---------------------------------------------------------------------------

@dataclass
class ComparisonLift:
    """Chain-level lift of h: M -> N across two resolutions, with the
    cells eps_n: G_n∘H_n => H_{n-1}∘F_n.  Only eps_0 can be nonzero: for
    n >= 1 it lands in the degree-1 part of a free stage, which is zero."""

    h: OneMor
    res_src: Resolution
    res_dst: Resolution
    hs: Dict[int, OneMor]
    eps0: ModMor

    def lift(self, n: int) -> OneMor:
        """H_n, with H_{-1} = h; zero off range."""
        if n == -1:
            return self.h
        if n in self.hs:
            return self.hs[n]
        return OneMor.zero(self.res_src.module(n), self.res_dst.module(n))

    def eps(self, n: int) -> TwoMor:
        frm = compose(self.lift(n), self.res_dst.f(n))
        to = compose(self.res_src.f(n), self.lift(n - 1))
        s = self.eps0 if n == 0 else ModMor.zero(frm.src.M0, frm.dst.M1)
        return TwoMor(frm, to, s, check=False)

    def as_chain_mor(self) -> ChainMor:
        return ChainMor(self.res_src.complex(), self.res_dst.complex(), self.hs)


def compare(h: OneMor, res_src: Resolution, res_dst: Resolution
            ) -> ComparisonLift:
    """Lift h: M -> N to a morphism of resolutions, degree by degree."""
    if ((h.src is not res_src.target and h.src != res_src.target)
            or (h.dst is not res_dst.target and h.dst != res_dst.target)):
        raise ResolutionError("compare endpoints do not match the resolutions")
    depth = max(res_src.depth, res_dst.depth)
    res_src, res_dst = _extend(res_src, depth), _extend(res_dst, depth)
    h0, sigma0 = lift_through(res_src.module(0), compose(res_src.aug, h),
                              res_dst.aug)
    out = ComparisonLift(h, res_src, res_dst, {0: h0}, sigma0.s)
    hs, eps = out.hs, out.eps(0)
    for n in range(1, depth + 1):
        e_cand = compose(res_src.f(n), hs[n - 1])
        # psi: G_{n-1}∘(H_{n-1}∘F_n) => 0 from the previous cell and alpha
        s = (mcompose(res_src.f(n).f0, eps.s)
             + mcompose(res_src.cell(n).s, out.lift(n - 2).f1))
        psi = null_homotopy(compose(e_cand, res_dst.f(n - 1)), s)
        t_n, _ = rk_factorize(res_dst.kernels[n - 1], e_cand, psi)
        hs[n], _ = lift_through(res_src.module(n), t_n,
                                res_dst.witnesses[n - 1])
        # sanity: G_n∘H_n => H_{n-1}∘F_n must validate on the zero cell
        eps = out.eps(n)
        TwoMor(eps.frm, eps.to, eps.s)
    return out


def homotopy_between_lifts(l1: ComparisonLift, l2: ComparisonLift
                           ) -> ChainHomotopy:
    """The 2-chain homotopy between two lifts of the same morphism.

    Over free stages this is a classical chain homotopy found by exact
    solving; solver failure would contradict comparison uniqueness.
    """
    if l1.h is not l2.h and not (
            equal_mor(l1.h.f0, l2.h.f0) and equal_mor(l1.h.f1, l2.h.f1)):
        raise ResolutionError("lifts of different morphisms")
    res_src, res_dst = l1.res_src, l1.res_dst
    depth = max(res_src.depth, res_dst.depth)
    thetas: Dict[int, OneMor] = {}
    for n in range(0, depth + 1):
        r = l1.lift(n).f0.mat - l2.lift(n).f0.mat
        if n >= 1:
            r = r - (thetas[n - 1].f0.mat @ res_src.f(n).f0.mat)
        target = res_dst.f(n + 1).f0.mat
        sol = solve_many(target, r)
        if sol is None:
            raise ResolutionError(
                f"no chain homotopy at degree {n}: comparison uniqueness broken")
        thetas[n] = free_mor(res_src.module(n), res_dst.module(n + 1), sol)
    return ChainHomotopy(l1.as_chain_mor(), l2.as_chain_mor(), thetas, {})


def perturb_lift(l: ComparisonLift, xs: Dict[int, Matrix]) -> ComparisonLift:
    """A second valid lift of the same morphism: H'_n = H_n + G_{n+1}X_n
    + X_{n-1}F_n, with the augmentation cell adjusted accordingly."""
    res_src, res_dst = l.res_src, l.res_dst
    depth = max(res_src.depth, res_dst.depth)
    hs: Dict[int, OneMor] = {}
    xmor: Dict[int, ModMor] = {}
    for n, m in xs.items():
        xmor[n] = ModMor(res_src.module(n).M0, res_dst.module(n + 1).M0, m,
                         check=False)
    def x(n: int) -> ModMor:
        if n in xmor:
            return xmor[n]
        return ModMor.zero(res_src.module(n).M0, res_dst.module(n + 1).M0)
    for n in range(0, depth + 1):
        f0 = (l.lift(n).f0 + mcompose(x(n), res_dst.f(n + 1).f0)
              + mcompose(res_src.f(n).f0, x(n - 1)))
        hs[n] = free_mor(res_src.module(n), res_dst.module(n), f0.mat)
    # eps_0 picks up aug_cell_dst ∘ X_0
    eps0 = l.eps0 + mcompose(x(0), ModMor(
        res_dst.module(1).M0, res_dst.target.M1, res_dst.aug_cell_s.mat,
        check=False))
    out = ComparisonLift(l.h, res_src, res_dst, hs, eps0)
    for n in range(0, depth + 1):
        out.eps(n)  # endpoint sanity
    return out


# ---------------------------------------------------------------------------
# products and the horseshoe
# ---------------------------------------------------------------------------

def product_resolution(res_a: Resolution, res_b: Resolution
                       ) -> Tuple[Resolution, BiproductResult]:
    """The horseshoe resolution of the split extension of the biproduct of
    the two targets."""
    bp = biproduct(res_a.target, res_b.target)
    res, _, _ = horseshoe(bp.inj1, zero_null_homotopy(compose(bp.inj1, bp.proj2)),
                          bp.proj2, res_a, res_b)
    return res, bp


def horseshoe(F: OneMor, phi: TwoMor, G: OneMor,
              res_a: Resolution, res_c: Resolution
              ) -> Tuple[Resolution, ChainMor, ChainMor]:
    """Resolve the middle of an extension A -> B -> C by P_n (+) Q_n in the
    stage loop, so that F^B_n = [[F^A_n, h_n], [0, F^C_n]] on the nose.

    Returns (res_b, i, p) where i and p are the strict block chain
    morphisms P -> K and K -> Q of the degreewise-split extension.
    """
    if not is_extension(F, phi, G):
        raise ResolutionError("horseshoe requires an extension")
    A, B, C = F.src, F.dst, G.dst
    if ((res_a.target is not A and res_a.target != A)
            or (res_c.target is not C and res_c.target != C)):
        raise ResolutionError("resolutions do not resolve the extension ends")
    depth = max(res_a.depth, res_c.depth)
    res_a, res_c = _extend(res_a, depth), _extend(res_c, depth)
    bps = [biproduct(res_a.module(n), res_c.module(n))
           for n in range(depth + 1)]
    ell, sigma0 = lift_through(res_c.module(0), res_c.aug, G)
    aug = free_mor(bps[0].total, B,
                   hstack([mcompose(res_a.aug.f0, F.f0).mat, ell.f0.mat]))
    # lam_0: G∘aug => aug_C∘p_0, from phi on P_0 and sigma0 on Q_0; a map
    # out of the free P_0 (+) Q_0, so unchecked
    lam0 = ModMor(bps[0].total.M0, C.M1,
                  hstack([mcompose(res_a.aug.f0, phi.s).mat, sigma0.s.mat]),
                  check=False)
    inj = lambda n: bps[n].inj1 if n >= 0 else F    # i, with i_{-1} = F
    proj = lambda n: bps[n].proj2 if n >= 0 else G  # p, with p_{-1} = G

    # Stage n covers Ker_{n-1}(B) by P_n (+) Q_n.  Its two cells are
    # unchecked, as proved here: i and p are strict chain maps through stage
    # n - 1 (F^B_k is block triangular for 1 <= k < n, aug∘i_0 = F∘aug_A and
    # G∘aug = aug_C∘p_0 + d_C∘lam_0), and stages have no degree-1 generators.
    # The two factorizations skip their checks, as proved here too: each
    # cell is built on the composite it is checked against, and the
    # compatibility with the kernel's cell equates maps into P_{n-3}.M1,
    # vacuous unless n = 2 (into 0.M1 at n = 1).  At n = 2 the left side
    # factors through P_0.M1 = 0, and the right side vanishes, as the pairs
    # (a, 0) of Ker_1 are killed by cell(1) and by F_1: cell^B(1)∘i_1 =
    # F∘cell^A(1) and G∘cell^B(1) = cell^C(1)∘p_1 + lam_0∘F^B_1 by the
    # stage-1 columns, and F^A_2 lands in Ker_1(A)
    def stage(n: int, kb: RelKernelResult) -> Tuple[TwoModule, OneMor]:
        # P-column: F^A_n then i_{n-1} factors through Ker_{n-1}(B) along
        # A's cell(n) whiskered by i_{n-2}
        e_a = compose(res_a.f(n), inj(n - 1))
        psi_a = null_homotopy(compose(e_a, kb.F), mcompose(
            res_a.augmented().alpha_s(n + 1), inj(n - 2).f1), check=False)
        p_col, _ = rk_factorize(kb, e_a, psi_a, check=False)
        # Q-column: e^B then p_{n-1} factors through Ker_{n-1}(C) along eps^B
        # whiskered by p_{n-2}, less lam_0∘to_a at n = 1, and C's cover
        # lifts through that map of stage kernels
        kc = res_c.kernels[n - 1]
        e_c = compose(kb.e, proj(n - 1))
        s_c = mcompose(kb.to_b, proj(n - 2).f1)
        if n == 1:
            s_c = s_c - mcompose(kb.to_a, lam0)
        pc, _ = rk_factorize(kc, e_c,
                             null_homotopy(compose(e_c, kc.F), s_c, check=False),
                             check=False)
        q_col, _ = lift_through(res_c.module(n), res_c.witnesses[n - 1], pc)
        return bps[n].total, free_mor(bps[n].total, kb.K, hstack(
            [p_col.f0.mat, q_col.f0.mat]))

    res_b = _extend(_start(B, bps[0].total, aug), depth, stage)
    # strict block chain morphisms P -> K and K -> Q: stage n of res_b is
    # bps[n].total, or the zero module equal to it once both ends terminated
    i_mor = ChainMor(res_a.complex(), res_b.complex(),
                     {n: bp.inj1 for n, bp in enumerate(bps)})
    p_mor = ChainMor(res_b.complex(), res_c.complex(),
                     {n: bp.proj2 for n, bp in enumerate(bps)})
    return res_b, i_mor, p_mor
