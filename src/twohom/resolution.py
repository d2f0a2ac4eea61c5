"""Free 2-modules, essentially surjective covers, projective resolutions,
comparison lifts with homotopy uniqueness, and the horseshoe over an
extension.

Projectives are exactly the free 2-modules [0 -> R^k]; because their
degree-1 part vanishes, every 2-cell between resolution stages is zero
except at the augmentation, and comparison lifts reduce to exact integer
chain algebra plus one nontrivial augmentation cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .exactlin import Matrix, block, hstack, solve_many, vstack
from .fpmod import (
    FPModule,
    ModMor,
    compose as mcompose,
    equal_mor,
)
from .complex2 import ChainHomotopy, ChainMor, Complex2, validate_complex
from .twomod import (
    BiproductResult,
    OneMor,
    RelKernelResult,
    TwoModule,
    TwoMor,
    biproduct,
    compose,
    check_relative_two_exact,
    is_essentially_surjective,
    is_extension,
    is_pi_trivial,
    null_homotopy,
    oplus,
    plain_kernel,
    relative_kernel,
    rk_factorize,
    whisker_right,
    zero_null_homotopy,
)


class ResolutionError(RuntimeError):
    """A lift or horseshoe solve failed; the input data is not what it claims."""


def free_cover(m: TwoModule) -> Tuple[TwoModule, OneMor]:
    """The canonical essentially surjective cover [0 -> R^{gens}] -> m."""
    ring = m.ring
    p = TwoModule.free(ring, m.M0.gens)
    f0 = ModMor(p.M0, m.M0, Matrix.identity(ring, m.M0.gens), check=False)
    f1 = ModMor.zero(p.M1, m.M1)
    return p, OneMor(p, m, f1, f0, check=False)


def lift_through(p: TwoModule, t: OneMor, e: OneMor) -> Tuple[OneMor, TwoMor]:
    """Lift t: p -> c through an essentially surjective e: b -> c.

    p must be free; per generator we solve e.f0*x + d_c*y = t.f0(gen)
    modulo relations.  Returns (l, sigma) with sigma: e∘l => t.
    """
    if not p.is_free():
        raise ResolutionError("lift_through needs a free source")
    if t.src != p or t.dst != e.dst:
        raise ResolutionError("lift_through endpoint mismatch")
    b, c = e.src, e.dst
    ring = p.ring
    system = hstack([e.f0.mat, c.d.mat, c.M0.rel])
    sol = solve_many(system, t.f0.mat)
    if sol is None:
        raise ResolutionError(
            "lift failed although the target map is essentially surjective")
    xs = Matrix(ring, b.M0.gens, p.M0.gens, sol.arr[: b.M0.gens, :])
    ys = Matrix(ring, c.M1.gens, p.M0.gens,
                sol.arr[b.M0.gens: b.M0.gens + c.M1.gens, :])
    l = OneMor(p, b, ModMor.zero(p.M1, b.M1),
               ModMor(p.M0, b.M0, xs, check=False), check=False)
    sigma = TwoMor(compose(l, e), t, ModMor(p.M0, c.M1, ys, check=False))
    return l, sigma


class Resolution:
    """A projective resolution: free modules P_n, differentials, an
    essentially surjective augmentation and its cell, with the stage
    kernels and essentially surjective witnesses retained."""

    def __init__(self, target: TwoModule, modules: List[TwoModule],
                 diffs: List[OneMor], aug: OneMor, aug_cell_s: ModMor,
                 kernels: List[RelKernelResult], witnesses: List[OneMor],
                 terminated: bool):
        self.target = target
        self.modules = modules
        self.diffs = diffs
        self.aug = aug
        self.aug_cell_s = aug_cell_s
        self.kernels = kernels
        self.witnesses = witnesses
        self.terminated = terminated

    @property
    def depth(self) -> int:
        return len(self.modules) - 1

    def module(self, n: int) -> TwoModule:
        if 0 <= n <= self.depth:
            return self.modules[n]
        return TwoModule.zero(self.target.ring)

    def f(self, n: int) -> OneMor:
        """Differential P_n -> P_{n-1} (n >= 1); zero off range."""
        if 1 <= n <= self.depth:
            return self.diffs[n - 1]
        return OneMor.zero(self.module(n), self.module(n - 1))

    def cell(self, n: int) -> TwoMor:
        """Null homotopy of F_{n-1}∘F_n in the augmented complex; F_0 = aug."""
        if n == 1:
            return null_homotopy(compose(self.f(1), self.aug), self.aug_cell_s,
                                 check=False)
        lower = self.f(n - 1) if n >= 2 else self.aug
        return zero_null_homotopy(compose(self.f(n), lower))

    def stage_kernel(self, n: int) -> RelKernelResult:
        return self.kernels[n]

    def witness(self, n: int) -> OneMor:
        return self.witnesses[n]

    def complex(self) -> Complex2:
        return Complex2.strict(self.target.ring, self.modules, self.diffs)

    def augmented(self) -> Complex2:
        mods = [self.target] + self.modules
        diffs = [self.aug] + self.diffs
        alphas = {}
        if self.depth >= 1:
            alphas[2] = self.aug_cell_s
        return Complex2(self.target.ring, mods, diffs, alphas)


def _kernel_at(res: Resolution, n: int, cell: TwoMor) -> RelKernelResult:
    """Stage n: the kernel of F_n relative to cell: F_{n-1}∘F_n => 0."""
    return relative_kernel(res.f(n), cell, res.f(n - 1) if n >= 2 else res.aug)


def _extend(res: Resolution, depth: int, zero: bool = False) -> Resolution:
    """The stage loop: stage n covers the relative kernel of F_{n-1}.

    Once a stage kernel is pi-trivial the resolution has terminated and
    every further stage is zero; ``zero`` asks for zero stages from the
    start (padding), which leaves ``terminated`` as it was.
    """
    ring = res.target.ring
    out = Resolution(res.target, list(res.modules), list(res.diffs), res.aug,
                     res.aug_cell_s, list(res.kernels), list(res.witnesses),
                     res.terminated)
    zero = zero or res.terminated
    for n in range(res.depth + 1, depth + 1):
        prev_k = out.kernels[n - 1]
        if zero:
            pn = TwoModule.zero(ring)
            cover = OneMor.zero(pn, prev_k.K)
        else:
            pn, cover = free_cover(prev_k.K)
        out.modules.append(pn)
        out.diffs.append(compose(cover, prev_k.e))
        out.witnesses.append(cover)
        cell = whisker_right(prev_k.eps, cover)  # F_{n-1}∘F_n => 0
        if n == 1:
            out.aug_cell_s = cell.s
        out.kernels.append(_kernel_at(out, n, cell))
        if not zero and is_pi_trivial(out.kernels[-1].K):
            zero = out.terminated = True
    return out


def resolve(m: TwoModule, depth: int) -> Resolution:
    """Build a projective resolution of m to the given depth.

    Each stage covers the relative kernel of the previous differential;
    construction stops early (padding with zeros) once that kernel is
    pi-trivial, which over Z always happens by stage M.M0.gens-ish.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    p0, aug = free_cover(m)
    k0 = plain_kernel(aug)
    base = Resolution(m, [p0], [], aug, ModMor.zero(FPModule.zero(m.ring), m.M1),
                      [k0], [], is_pi_trivial(k0.K))
    return _extend(base, depth)


def assemble_resolution(target: TwoModule, modules: List[TwoModule],
                        diffs: List[OneMor], aug: OneMor,
                        aug_cell_s: ModMor) -> Resolution:
    """Wrap explicit resolution data, recomputing kernels and witnesses.

    The witness at stage n is the canonical factorization of F_{n+1}
    through the stage-n relative kernel.
    """
    res = Resolution(target, modules, diffs, aug, aug_cell_s,
                     [plain_kernel(aug)], [], False)
    for n in range(1, res.depth + 1):
        cell = res.cell(n)
        w, _ = rk_factorize(res.kernels[n - 1], res.f(n), cell)
        res.witnesses.append(w)
        res.kernels.append(_kernel_at(res, n, cell))
    res.terminated = is_pi_trivial(res.kernels[-1].K)
    return res


def pad_resolution(res: Resolution, depth: int) -> Resolution:
    """Extend with zero stages up to the requested depth."""
    if depth <= res.depth:
        return res
    return _extend(res, depth, zero=True)


def validate_resolution(res: Resolution) -> Tuple[bool, str]:
    """Augmented complex valid, augmentation essentially surjective, free
    stages, and relative 2-exactness at each interior stage.

    A spot passes on the comparison criterion (full + essentially
    surjective into the stage kernel) or, failing that, on the robust
    homology criterion (pi-trivial homology of the augmented complex
    there).  The two agree except when pi0 of a stage kernel has torsion
    - unavoidable over Z/n - where no free cover can be pi0-mono although
    the resolution is exact.
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
        if i == 0:
            g, psi_next, h = res.aug, None, None
        else:
            g = res.f(i)
            psi_next = res.cell(i)
            h = res.f(i - 1) if i >= 2 else res.aug
        if check_relative_two_exact(res.f(i + 1), res.cell(i + 1), g,
                                    psi_next, h):
            continue
        if is_pi_trivial(aug_cplx.homology(i + 1).module):
            continue
        return False, f"not relative 2-exact at P_{i}"
    return True, "ok"


# ---------------------------------------------------------------------------
# comparison lifts between resolutions
# ---------------------------------------------------------------------------

@dataclass
class ComparisonLift:
    """Chain-level lift of h: M -> N across two resolutions, with the
    cells eps_n: G_n∘H_n => H_{n-1}∘F_n (only eps_0 can be nonzero here)."""

    h: OneMor
    res_src: Resolution
    res_dst: Resolution
    hs: Dict[int, OneMor]
    eps_s: Dict[int, ModMor]

    def lift(self, n: int) -> OneMor:
        if n in self.hs:
            return self.hs[n]
        return OneMor.zero(self.res_src.module(n), self.res_dst.module(n))

    def eps(self, n: int) -> TwoMor:
        lower = self.res_dst.f(n) if n >= 1 else self.res_dst.aug
        upper = self.res_src.f(n) if n >= 1 else self.res_src.aug
        prev = self.lift(n - 1) if n >= 1 else self.h
        frm = compose(self.lift(n), lower)
        to = compose(upper, prev)
        s = self.eps_s.get(n)
        if s is None:
            s = ModMor.zero(frm.src.M0, frm.dst.M1)
        return TwoMor(frm, to, s, check=False)

    def as_chain_mor(self) -> ChainMor:
        lams = {n: -self.eps_s[n].mat for n in self.eps_s if n >= 1}
        return ChainMor(self.res_src.complex(), self.res_dst.complex(),
                        dict(self.hs),
                        {n: ModMor(self.res_src.module(n).M0,
                                   self.res_dst.module(n - 1).M1,
                                   m, check=False)
                         for n, m in lams.items()})


def compare(h: OneMor, res_src: Resolution, res_dst: Resolution
            ) -> ComparisonLift:
    """Lift h: M -> N to a morphism of resolutions, degree by degree."""
    if h.src != res_src.target or h.dst != res_dst.target:
        raise ResolutionError("compare endpoints do not match the resolutions")
    depth = max(res_src.depth, res_dst.depth)
    res_src = pad_resolution(res_src, depth)
    res_dst = pad_resolution(res_dst, depth)
    hs: Dict[int, OneMor] = {}
    eps_s: Dict[int, ModMor] = {}
    l0, sigma0 = lift_through(res_src.module(0),
                              compose(res_src.aug, h), res_dst.aug)
    hs[0] = l0
    eps_s[0] = sigma0.s
    for n in range(1, depth + 1):
        e_cand = compose(res_src.f(n), hs[n - 1])
        below_f1 = hs[n - 2].f1 if n >= 2 else h.f1
        # psi: G_{n-1}∘(H_{n-1}∘F_n) => 0 from the previous cell and alpha
        s = (mcompose(res_src.f(n).f0, eps_s[n - 1])
             + mcompose(res_src.cell(n).s, below_f1))
        lower = res_dst.f(n - 1) if n >= 2 else res_dst.aug
        psi = null_homotopy(compose(e_cand, lower), s)
        t_n, _ = rk_factorize(res_dst.stage_kernel(n - 1), e_cand, psi)
        ln, sigma = lift_through(res_src.module(n), t_n,
                                 res_dst.witness(n - 1))
        hs[n] = ln
        s_n = mcompose(sigma.s, res_dst.stage_kernel(n - 1).e.f1)
        eps_s[n] = s_n
        # cell endpoint sanity: G_n∘H_n => H_{n-1}∘F_n must validate
        TwoMor(compose(ln, res_dst.f(n)), compose(res_src.f(n), hs[n - 1]), s_n)
    return ComparisonLift(h, res_src, res_dst, hs, eps_s)


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
    prev = None  # Theta_{n-1}
    for n in range(0, depth + 1):
        r = l1.lift(n).f0.mat - l2.lift(n).f0.mat
        if prev is not None:
            r = r - (prev.f0.mat @ res_src.f(n).f0.mat)
        target = res_dst.f(n + 1).f0.mat
        sol = solve_many(target, Matrix(res_src.target.ring,
                                        r.rows, r.cols, r.arr))
        if sol is None:
            raise ResolutionError(
                f"no chain homotopy at degree {n}: comparison uniqueness broken")
        theta = OneMor(res_src.module(n), res_dst.module(n + 1),
                       ModMor.zero(res_src.module(n).M1,
                                   res_dst.module(n + 1).M1),
                       ModMor(res_src.module(n).M0, res_dst.module(n + 1).M0,
                              sol, check=False), check=False)
        thetas[n] = theta
        prev = theta
    return ChainHomotopy(l1.as_chain_mor(), l2.as_chain_mor(), thetas, {})


def perturb_lift(l: ComparisonLift, xs: Dict[int, Matrix]) -> ComparisonLift:
    """A second valid lift of the same morphism: H'_n = H_n + G_{n+1}X_n
    + X_{n-1}F_n, with the augmentation cell adjusted accordingly."""
    res_src, res_dst = l.res_src, l.res_dst
    depth = max(res_src.depth, res_dst.depth)
    hs: Dict[int, OneMor] = {}
    eps_s = dict(l.eps_s)
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
        hs[n] = OneMor(res_src.module(n), res_dst.module(n),
                       ModMor.zero(res_src.module(n).M1,
                                   res_dst.module(n).M1),
                       f0, check=False)
    # eps_0 picks up aug_cell_dst ∘ X_0
    eps_s[0] = l.eps_s[0] + mcompose(x(0), ModMor(
        res_dst.module(1).M0, res_dst.target.M1, res_dst.aug_cell_s.mat,
        check=False))
    out = ComparisonLift(l.h, res_src, res_dst, hs, eps_s)
    for n in range(0, depth + 1):
        out.eps(n)  # endpoint sanity
    return out


# ---------------------------------------------------------------------------
# products and the horseshoe
# ---------------------------------------------------------------------------

def product_resolution(res_a: Resolution, res_b: Resolution
                       ) -> Tuple[Resolution, BiproductResult]:
    """Degreewise biproduct of two resolutions, resolving the biproduct."""
    if res_a.target.ring != res_b.target.ring:
        raise ResolutionError("product over different rings")
    depth = max(res_a.depth, res_b.depth)
    res_a = pad_resolution(res_a, depth)
    res_b = pad_resolution(res_b, depth)
    target_bp = biproduct(res_a.target, res_b.target)
    modules = [biproduct(res_a.module(n), res_b.module(n)).total
               for n in range(depth + 1)]
    diffs = [oplus(res_a.f(n), res_b.f(n), modules[n], modules[n - 1])
             for n in range(1, depth + 1)]
    aug = oplus(res_a.aug, res_b.aug, modules[0], target_bp.total)
    cell_src = modules[1].M0 if depth >= 1 else FPModule.zero(res_a.target.ring)
    cell_mor = oplus(res_a.aug_cell_s, res_b.aug_cell_s, cell_src,
                     target_bp.total.M1)
    res = assemble_resolution(target_bp.total, modules, diffs, aug, cell_mor)
    return res, target_bp


def horseshoe(F: OneMor, phi: TwoMor, G: OneMor,
              res_a: Resolution, res_c: Resolution
              ) -> Tuple[Resolution, ChainMor, ChainMor]:
    """Resolve the middle of an extension A -> B -> C by P_n (+) Q_n.

    Returns (res_b, i, p) where i and p are the strict block chain
    morphisms P -> K and K -> Q of the degreewise-split extension.
    """
    if not is_extension(F, phi, G):
        raise ResolutionError("horseshoe requires an extension")
    A, B, C = F.src, F.dst, G.dst
    if res_a.target != A or res_c.target != C:
        raise ResolutionError("resolutions do not resolve the extension ends")
    ring = B.ring
    depth = max(res_a.depth, res_c.depth)
    res_a = pad_resolution(res_a, depth)
    res_c = pad_resolution(res_c, depth)
    ell, sigma0 = lift_through(res_c.module(0), res_c.aug, G)
    stage_bp = [biproduct(res_a.module(n), res_c.module(n))
                for n in range(depth + 1)]
    modules = [bp.total for bp in stage_bp]
    aug = OneMor(modules[0], B,
                 ModMor.zero(modules[0].M1, B.M1),
                 ModMor(modules[0].M0, B.M0,
                        hstack([mcompose(res_a.aug.f0,
                                         F.f0).mat, ell.f0.mat]), check=False),
                 check=False)
    f_aug_a = mcompose(res_a.aug.f0, F.f0)  # P_0.M0 -> B.M0
    hs: Dict[int, Matrix] = {}       # h_n.f0 : Q_n.M0 -> P_{n-1}.M0
    cell_q: Optional[Matrix] = None  # s_1 : Q_1.M0 -> B.M1
    diffs: List[OneMor] = []
    for n in range(1, depth + 1):
        pa, qa = res_a.module(n), res_c.module(n)
        pb, qb = res_a.module(n - 1), res_c.module(n - 1)
        nq = res_c.f(n).f0.mat
        if n == 1:
            # the Q-column (h, s) must land in Ker(aug_B) *and* lift the
            # C-side witness through the induced kernel projection:
            #   f_aug_a h + d_B s + rel z1           = -(ell ∘ N_1)
            #   G.f1 s          + rel z2             = bC - sigma0 ∘ N_1
            # where bC is the C.M1-witness carried by res_c's stage cover.
            rhs1 = -(ell.f0.mat @ nq)
            b_c = mcompose(res_c.witness(0).f0,
                           res_c.stage_kernel(0).to_b).mat
            rhs2 = b_c - (sigma0.s.mat @ nq)
            n_h = pb.M0.gens
            n_s = B.M1.gens
            system = block([
                [f_aug_a.mat, B.d.mat, B.M0.rel,
                 Matrix.zeros(ring, B.M0.gens, C.M1.rel.cols)],
                [Matrix.zeros(ring, C.M1.gens, n_h), G.f1.mat,
                 Matrix.zeros(ring, C.M1.gens, B.M0.rel.cols), C.M1.rel],
            ])
            sol = solve_many(system, vstack([rhs1, rhs2]))
            if sol is None:
                raise ResolutionError("horseshoe stage-1 solve failed")
            h = Matrix(ring, n_h, qa.M0.gens, sol.arr[:n_h, :])
            cell_q = Matrix(ring, n_s, qa.M0.gens,
                            sol.arr[n_h: n_h + n_s, :])
        else:
            rhs = -(hs[n - 1] @ nq)
            if n == 2:
                # also keep the augmentation cell compatible:
                # (F.f1 ∘ cellA.s) * h + s_1 * N_2 = 0 (mod B.M1 relations)
                top = res_a.f(n - 1).f0.mat
                cell_rows = mcompose(res_a.aug_cell_s, F.f1).mat
                sys_mat = vstack([top, cell_rows])
                slack = vstack([Matrix.zeros(ring, top.rows, B.M1.rel.cols),
                                B.M1.rel])
                rhs2 = vstack([Matrix(ring, rhs.rows, rhs.cols, rhs.arr),
                               -(cell_q @ nq) if cell_q is not None else
                               Matrix.zeros(ring, B.M1.gens, qa.M0.gens)])
                sol = solve_many(hstack([sys_mat, slack]), rhs2)
                if sol is None:
                    raise ResolutionError("horseshoe stage-2 solve failed")
                h = Matrix(ring, pb.M0.gens, qa.M0.gens,
                           sol.arr[: pb.M0.gens, :])
            else:
                sol = solve_many(res_a.f(n - 1).f0.mat,
                                 Matrix(ring, rhs.rows, rhs.cols, rhs.arr))
                if sol is None:
                    raise ResolutionError(f"horseshoe stage-{n} solve failed")
                h = sol
        hs[n] = h
        d = OneMor(modules[n], modules[n - 1],
                   ModMor.zero(modules[n].M1, modules[n - 1].M1),
                   ModMor(modules[n].M0, modules[n - 1].M0,
                          block([[res_a.f(n).f0.mat, h],
                                 [Matrix.zeros(ring, qb.M0.gens, pa.M0.gens),
                                  res_c.f(n).f0.mat]]), check=False),
                   check=False)
        diffs.append(d)
    if depth >= 1:
        pa_cell = mcompose(res_a.aug_cell_s, F.f1).mat
        qcell = cell_q if cell_q is not None else Matrix.zeros(
            ring, B.M1.gens, res_c.module(1).M0.gens)
        aug_cell = ModMor(modules[1].M0, B.M1, hstack([pa_cell, qcell]),
                          check=False)
    else:
        aug_cell = ModMor.zero(FPModule.zero(ring), B.M1)
    res_b = assemble_resolution(B, modules, diffs, aug, aug_cell)
    # strict block chain morphisms P -> K and K -> Q
    i_fs = {n: OneMor(res_a.module(n), modules[n],
                      stage_bp[n].inj1.f1, stage_bp[n].inj1.f0, check=False)
            for n in range(depth + 1)}
    p_fs = {n: OneMor(modules[n], res_c.module(n),
                      stage_bp[n].proj2.f1, stage_bp[n].proj2.f0, check=False)
            for n in range(depth + 1)}
    i_mor = ChainMor.strict(res_a.complex(), res_b.complex(), i_fs)
    p_mor = ChainMor.strict(res_b.complex(), res_c.complex(), p_fs)
    return res_b, i_mor, p_mor
