"""Additive 2-functors, left derived 2-functors, resolution independence,
vanishing on projectives, the long 2-exact sequence of an extension, and
the classical Tor oracle used to cross-check everything over Z.

The functor zoo is {Identity, TensorWith(N)}: tensoring acts degreewise
by the Kronecker action on generators, which preserves every block
structure used here (in particular the degreewise splitting of a
horseshoe resolution survives tensoring on the nose).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .exactlin import (Matrix, ZZ, block, block_diag, hstack, kernel_basis,
                       kron, solve_many, unvec, vec, vstack)
from .fpmod import (
    FPModule,
    InvalidMorphism,
    ModMor,
    cokernel,
    compose as mcompose,
    equal_mor,
    factor_through,
    invariant_factors,
    is_epi,
    kernel,
    tensor,
    tensor_mor,
)
from .twomod import (
    OneMor,
    TwoModule,
    TwoMor,
    compose,
    check_relative_two_exact,
    comparison_into_kernel,
    is_extension,
    is_essentially_surjective,
    is_pi_trivial,
    null_homotopy,
    pi0_mor,
    pi1_mor,
    relative_cokernel,
)
from .complex2 import (
    ChainHomotopy,
    ChainMor,
    Complex2,
    HomologyData,
    induced,
)
from .resolution import Resolution, ResolutionError, compare, horseshoe, resolve


@dataclass(frozen=True)
class FunctorSpec:
    """Identity, or tensoring with a fixed presented module."""

    kind: str  # "identity" | "tensor"
    module: Optional[FPModule] = None

    def __post_init__(self):
        if self.kind not in ("identity", "tensor"):
            raise ValueError(f"unknown functor kind {self.kind!r}")
        if self.kind == "tensor" and self.module is None:
            raise ValueError("tensor functor needs a module")

    @staticmethod
    def identity() -> "FunctorSpec":
        return FunctorSpec("identity")

    @staticmethod
    def tensor_with(n: FPModule) -> "FunctorSpec":
        return FunctorSpec("tensor", n)


def _t_module(t: FunctorSpec, m: FPModule) -> FPModule:
    return m if t.kind == "identity" else tensor(m, t.module)


def _t_mor(t: FunctorSpec, f: ModMor) -> ModMor:
    return f if t.kind == "identity" else tensor_mor(f, t.module)


def apply(t: FunctorSpec, x):
    """Apply the functor degreewise / componentwise; validity is preserved."""
    if t.kind == "identity":
        return x
    if isinstance(x, FPModule):
        return _t_module(t, x)
    if isinstance(x, ModMor):
        return _t_mor(t, x)
    if isinstance(x, TwoModule):
        return TwoModule(_t_module(t, x.M1), _t_module(t, x.M0),
                         _t_mor(t, x.d), check=False)
    if isinstance(x, OneMor):
        return OneMor(apply(t, x.src), apply(t, x.dst),
                      _t_mor(t, x.f1), _t_mor(t, x.f0))
    if isinstance(x, TwoMor):
        return TwoMor(apply(t, x.frm), apply(t, x.to), _t_mor(t, x.s))
    if isinstance(x, Complex2):
        mods = [apply(t, m) for m in x.modules]
        diffs = [OneMor(mods[n], mods[n - 1], _t_mor(t, d.f1), _t_mor(t, d.f0),
                        check=False)
                 for n, d in enumerate(x.diffs, start=1)]
        alphas = {n: _t_mor(t, s) for n, s in x.alphas.items()}
        return Complex2(x.ring, mods, diffs, alphas)
    if isinstance(x, ChainMor):
        return apply_chain_mor(t, x, apply(t, x.src), apply(t, x.dst))
    if isinstance(x, ChainHomotopy):
        tm = apply(t, x.m)
        tmp = apply_chain_mor(t, x.mp, tm.src, tm.dst)
        hs = {n: OneMor(tm.src.module(n), tm.dst.module(n + 1),
                        _t_mor(t, h.f1), _t_mor(t, h.f0), check=False)
              for n, h in x.hs.items()}
        taus = {n: _t_mor(t, s) for n, s in x.taus.items()}
        return ChainHomotopy(tm, tmp, hs, taus)
    raise TypeError(f"cannot apply a functor to {type(x).__name__}")


def apply_chain_mor(t: FunctorSpec, m: ChainMor,
                    tsrc: Complex2, tdst: Complex2) -> ChainMor:
    """Apply t to a chain morphism between already-transformed complexes
    (so homology caches on tsrc/tdst are shared)."""
    if t.kind == "identity":
        return ChainMor(tsrc, tdst, dict(m.fs), dict(m.lams))
    fs = {n: OneMor(tsrc.module(n), tdst.module(n),
                    _t_mor(t, f.f1), _t_mor(t, f.f0), check=False)
          for n, f in m.fs.items()}
    lams = {n: _t_mor(t, s) for n, s in m.lams.items()}
    return ChainMor(tsrc, tdst, fs, lams)


# ---------------------------------------------------------------------------
# the general 2-cell solver
# ---------------------------------------------------------------------------

def solve_two_cell(frm: OneMor, to: OneMor,
                   extra: Optional[List[Tuple[ModMor, ModMor]]] = None
                   ) -> Optional[TwoMor]:
    """Find s with to = frm + (d∘s, s∘d), optionally with side conditions
    s∘g = r (mod target M1 relations) for each (g, r) in ``extra``.

    One exact linear solve over the ring; returns None when no such
    2-morphism exists.
    """
    ring = frm.src.ring
    X, Y = frm.src, frm.dst
    m1 = Y.M1.gens

    def eye(n):
        return Matrix.identity(ring, n)

    # one row band per equation: (coefficients of vec(s), rhs, slack
    # count, relations the slack ranges over)
    bands = [
        # degree 0:  d_Y * s = to.f0 - frm.f0  (mod rel0)
        (kron(eye(X.M0.gens), Y.d.mat), to.f0.mat - frm.f0.mat,
         X.M0.gens, Y.M0.rel),
        # degree 1:  s * d_X = to.f1 - frm.f1  (mod rel1)
        (kron(X.d.mat.transpose(), eye(m1)), to.f1.mat - frm.f1.mat,
         X.M1.gens, Y.M1.rel),
    ]
    # side conditions s * g = r (mod rel1)
    bands += [(kron(g.mat.transpose(), eye(m1)), r.mat, g.src.gens, Y.M1.rel)
              for g, r in extra or []]
    big = hstack([vstack([eq for eq, _, _, _ in bands]),
                  block_diag([kron(eye(cnt), rel) for _, _, cnt, rel in bands])])
    sol = solve_many(big, vstack([vec(rhs) for _, rhs, _, _ in bands]))
    if sol is None:
        return None
    s = ModMor(X.M0, Y.M1, unvec(sol, m1, X.M0.gens), check=False)
    return TwoMor(frm, to, s)


def find_null_homotopy(w: OneMor) -> Optional[TwoMor]:
    return solve_two_cell(w, OneMor.zero(w.src, w.dst))


# ---------------------------------------------------------------------------
# derived objects and morphisms
# ---------------------------------------------------------------------------

@dataclass
class DerivedResult:
    module: TwoModule
    functor: FunctorSpec
    degree: int
    resolution: Resolution
    homology: HomologyData

    @property
    def pi(self):
        from .twomod import pi_profile
        return pi_profile(self.module)


def derive(t: FunctorSpec, m: TwoModule, i: int, depth: int,
           res: Optional[Resolution] = None) -> DerivedResult:
    """L_i T (m): homology at i of T applied to a projective resolution."""
    if i > depth:
        raise ValueError("need i <= depth")
    res = res or resolve(m, depth)
    tc = apply(t, res.complex())
    h = tc.homology(i)
    return DerivedResult(h.module, t, i, res, h)


def derive_mor(t: FunctorSpec, h: OneMor, i: int,
               res_src: Resolution, res_dst: Resolution) -> OneMor:
    """The induced morphism L_i T(src) -> L_i T(dst)."""
    lift = compare(h, res_src, res_dst)
    tchain = apply(t, lift.as_chain_mor())
    return induced(tchain, i)


@dataclass
class IndependenceWitness:
    forward: OneMor
    backward: OneMor
    pi0_iso: bool
    pi1_iso: bool
    invariants_match: bool

    @property
    def certified(self) -> bool:
        return self.pi0_iso and self.pi1_iso and self.invariants_match


def resolution_independence(t: FunctorSpec, m: TwoModule,
                            res1: Resolution, res2: Resolution, i: int
                            ) -> IndependenceWitness:
    """Mutually inverse (up to pi) comparison maps between the homology of
    T applied to two resolutions of the same object."""
    ident = OneMor.identity(m)
    c12 = compare(ident, res1, res2)
    c21 = compare(ident, res2, res1)
    tc1 = apply(t, res1.complex())
    tc2 = apply(t, res2.complex())
    ch12 = apply_chain_mor(t, c12.as_chain_mor(), tc1, tc2)
    ch21 = apply_chain_mor(t, c21.as_chain_mor(), tc2, tc1)
    w12 = induced(ch12, i, tc1.homology(i), tc2.homology(i))
    w21 = induced(ch21, i, tc2.homology(i), tc1.homology(i))
    r11 = compose(w12, w21)
    r22 = compose(w21, w12)
    pi0_ok = (equal_mor(pi0_mor(r11), ModMor.identity(pi0_mor(r11).src))
              and equal_mor(pi0_mor(r22), ModMor.identity(pi0_mor(r22).src)))
    pi1_ok = (equal_mor(pi1_mor(r11), ModMor.identity(pi1_mor(r11).src))
              and equal_mor(pi1_mor(r22), ModMor.identity(pi1_mor(r22).src)))
    from .twomod import pi_profile
    inv_ok = pi_profile(tc1.homology(i).module) == pi_profile(tc2.homology(i).module)
    return IndependenceWitness(w12, w21, pi0_ok, pi1_ok, inv_ok)


def check_projective_vanishing(t: FunctorSpec, p: TwoModule, depth: int) -> bool:
    """L_i T of a free object is pi-trivial for every i >= 1."""
    if not p.is_free():
        raise ValueError("projective vanishing is about free objects")
    res = resolve(p, depth)
    tc = apply(t, res.complex())
    return all(is_pi_trivial(tc.homology(i).module)
               for i in range(1, depth + 1))


def is_right_relative_two_exact(t: FunctorSpec, F: OneMor, phi: TwoMor,
                                G: OneMor) -> bool:
    """Does t keep the extension relative 2-exact at the B and C spots?

    At C: the relative cokernel of the transformed pair is pi-trivial.
    At B: the comparison into the kernel of T(G) is essentially
    surjective and pi1-epi (the pi0-mono half of fullness is the A-spot
    condition, which right exactness does not promise).
    """
    if not is_extension(F, phi, G):
        raise ValueError("testbed is not an extension")
    tf, tg = apply(t, F), apply(t, G)
    tphi = apply(t, phi)
    cmp_mor, _ = comparison_into_kernel(tf, tphi, tg)
    b_ok = (is_essentially_surjective(cmp_mor)
            and is_epi(pi1_mor(cmp_mor)))
    c_ok = is_pi_trivial(relative_cokernel(tf, tphi, tg).Q)
    return b_ok and c_ok


def exactness_at_a_spot(t: FunctorSpec, F: OneMor, phi: TwoMor, G: OneMor
                        ) -> bool:
    """Left-edge condition after applying t: Ker(T(F), T(phi)) pi-trivial."""
    from .twomod import relative_kernel
    tf, tg = apply(t, F), apply(t, G)
    tphi = apply(t, phi)
    return is_pi_trivial(relative_kernel(tf, tphi, tg).K)


# ---------------------------------------------------------------------------
# classical Tor oracle (independent path, base ring Z)
# ---------------------------------------------------------------------------

def classical_tor_oracle(m0: FPModule, n: FPModule, i: int) -> List[int]:
    """Invariant factors of Tor_i(m0, n) over Z via a module-level free
    resolution (two steps suffice over a hereditary base)."""
    if m0.ring.is_modular or n.ring.is_modular:
        raise ValueError("the classical Tor oracle works over Z")
    if i < 0:
        raise ValueError("negative degree")
    if i == 0:
        return invariant_factors(tensor(m0, n))
    if i >= 2:
        return []
    rel = m0.rel
    f1 = FPModule.free(ZZ, rel.cols)
    f0 = FPModule.free(ZZ, m0.gens)
    d1 = ModMor(f1, f0, rel, check=False)
    syz = kernel_basis(rel)
    f2 = FPModule.free(ZZ, syz.cols)
    d2 = ModMor(f2, f1, syz, check=False)
    t1 = tensor_mor(d1, n)
    t2 = tensor_mor(d2, n)
    k, incl = kernel(t1)
    img = factor_through(incl, t2)
    return invariant_factors(cokernel(img)[0])


# ---------------------------------------------------------------------------
# the long sequence
# ---------------------------------------------------------------------------

@dataclass
class LongSeqEntry:
    label: str           # "A", "B" or "C"
    degree: int
    homology: HomologyData


@dataclass
class LongSeq:
    """The long sequence ... -> L_iT(A) -> L_iT(B) -> L_iT(C) -omega->
    L_{i-1}T(A) -> ... with the stored null homotopies of consecutive
    composites."""

    functor: FunctorSpec
    depth: int
    entries: List[LongSeqEntry]
    maps: List[Tuple[str, OneMor]]       # maps[k]: entries[k] -> entries[k+1]
    cells: List[TwoMor]                  # cells[k]: maps[k+1]∘maps[k] => 0


def _corner(m: Matrix, rows: int, cols: int) -> Matrix:
    """The top-right rows x cols block of m."""
    if not (rows and cols):
        return Matrix.zeros(m.ring, rows, cols)
    return Matrix(m.ring, rows, cols, m.arr[:rows, m.cols - cols:])


def _blocks_of_k(tk: Complex2, tp: Complex2, tq: Complex2, n: int
                 ) -> Tuple[Matrix, Matrix, Matrix]:
    """(h_n.f0, h_n.f1, t_n) off-diagonal blocks of the split complex."""
    p, q = tp.module(n - 1), tq.module(n)
    return (_corner(tk.diff(n).f0.mat, p.M0.gens, q.M0.gens),
            _corner(tk.diff(n).f1.mat, p.M1.gens, q.M1.gens),
            _corner(tk.alpha_s(n).mat, tp.module(n - 2).M1.gens, q.M0.gens))


def _connecting(tk: Complex2, tp: Complex2, tq: Complex2, i: int) -> OneMor:
    """The matrix-level zig-zag delta_i: H_i(TQ) -> H_{i-1}(TP)."""
    ring = tk.ring
    hq = tq.homology(i)
    hp = tp.homology(i - 1)
    h_f0, h_f1, t_i = _blocks_of_k(tk, tp, tq, i)
    hm1_f0, hm1_f1, _ = _blocks_of_k(tk, tp, tq, i - 1)
    # degree 0: (q, b) |-> (h_i q, t_i q - h_{i-1}.f1 b)
    amb_q = hq.kernel.incl.dst
    amb_p = hp.kernel.incl.dst
    blk0 = block([
        [h_f0, Matrix.zeros(ring, h_f0.rows, tq.module(i - 1).M1.gens)],
        [t_i, -hm1_f1],
    ])
    f0 = factor_through(hp.kernel.incl,
                        mcompose(hq.kernel.incl,
                                 ModMor(amb_q, amb_p, blk0, check=False)))
    # degree 1: (x, m) |-> (-h_{i+1} x, -t_{i+1} x + h_i.f1 m)
    hp1_f0, hp1_f1, t_ip1 = _blocks_of_k(tk, tp, tq, i + 1)
    blk1 = block([
        [-hp1_f0, Matrix.zeros(ring, hp1_f0.rows, tq.module(i).M1.gens)],
        [-t_ip1, h_f1],
    ])
    f1 = ModMor(hq.module.M1, hp.module.M1, blk1)
    return OneMor(hq.module, hp.module, f1, f0)


def _null_cell(comp: OneMor, s: ModMor, what: str) -> TwoMor:
    """The null homotopy of comp carried by s when s is one, else one found
    by solving."""
    try:
        return null_homotopy(comp, s)
    except InvalidMorphism:
        found = find_null_homotopy(comp)
        if found is None:
            raise ResolutionError(f"no null homotopy for {what}")
        return found


def long_sequence(t: FunctorSpec, F: OneMor, phi: TwoMor, G: OneMor,
                  depth: int) -> LongSeq:
    """Horseshoe resolutions of the extension, apply the functor, take
    homology, connect with the matrix zig-zag, and store explicit null
    homotopies for every consecutive composite."""
    if not is_extension(F, phi, G):
        raise ValueError("long_sequence needs an extension")
    if not is_right_relative_two_exact(t, F, phi, G):
        raise ValueError("functor is not right relative 2-exact on this extension")
    A, C = F.src, G.dst
    res_a = resolve(A, depth + 2)
    res_c = resolve(C, depth + 2)
    res_b, i_mor, p_mor = horseshoe(F, phi, G, res_a, res_c)
    tp = apply(t, res_a.complex())
    tk = apply(t, res_b.complex())
    tq = apply(t, res_c.complex())
    ti = apply_chain_mor(t, i_mor, tp, tk)
    tpr = apply_chain_mor(t, p_mor, tk, tq)
    ring = tp.ring

    entries: List[LongSeqEntry] = []
    maps: List[Tuple[str, OneMor]] = []
    cells: List[TwoMor] = []

    u: Dict[int, OneMor] = {}
    v: Dict[int, OneMor] = {}
    delta: Dict[int, OneMor] = {}
    for i in range(depth, -1, -1):
        u[i] = induced(ti, i, tp.homology(i), tk.homology(i))
        v[i] = induced(tpr, i, tk.homology(i), tq.homology(i))
    for i in range(depth, 0, -1):
        delta[i] = _connecting(tk, tp, tq, i)

    def vu_cell(i: int) -> TwoMor:
        return null_homotopy(compose(u[i], v[i]),
                             ModMor.zero(u[i].src.M0, v[i].dst.M1))

    def dv_cell(i: int) -> TwoMor:
        hk = tk.homology(i)
        hp = tp.homology(i - 1)
        gp0 = tp.module(i).M0.gens
        gk0 = tk.module(i).M0.gens
        gp1 = tp.module(i - 1).M1.gens
        gk1 = tk.module(i - 1).M1.gens
        # onto the P-coordinates of both parts of the ambient pair
        blk = block_diag([_corner(Matrix.identity(ring, gk0), gp0, gk0),
                          _corner(Matrix.identity(ring, gk1), gp1, gk1)])
        s = mcompose(hk.kernel.incl,
                     ModMor(hk.kernel.incl.dst, hp.module.M1, blk, check=False))
        return _null_cell(compose(v[i], delta[i]), s, f"delta∘v at {i}")

    def ud_cell(i: int) -> TwoMor:
        hq = tq.homology(i)
        hk = tk.homology(i - 1)
        gq0 = tq.module(i).M0.gens
        gk0 = tk.module(i).M0.gens
        gq1 = tq.module(i - 1).M1.gens
        gk1 = tk.module(i - 1).M1.gens
        # minus the inclusion of the Q-coordinates
        blk = -block_diag([_corner(Matrix.identity(ring, gk0), gk0, gq0),
                           _corner(Matrix.identity(ring, gk1), gk1, gq1)])
        s = mcompose(hq.kernel.incl,
                     ModMor(hq.kernel.incl.dst, hk.module.M1, blk, check=False))
        return _null_cell(compose(delta[i], u[i - 1]), s, f"u∘delta at {i}")

    for i in range(depth, -1, -1):
        entries.append(LongSeqEntry("A", i, tp.homology(i)))
        maps.append((f"u_{i}", u[i]))
        entries.append(LongSeqEntry("B", i, tk.homology(i)))
        maps.append((f"v_{i}", v[i]))
        entries.append(LongSeqEntry("C", i, tq.homology(i)))
        cells.append(vu_cell(i))
        if i > 0:
            maps.append((f"delta_{i}", delta[i]))
            cells.append(dv_cell(i))
            cells.append(ud_cell(i))

    return LongSeq(t, depth, entries, maps, cells)


def check_long_sequence(seq: LongSeq, detail: Optional[list] = None) -> bool:
    """Run the middle-spot 2-exactness check at every interior spot,
    using the stored null homotopy of each consecutive composite.

    Each spot is a composable pair with its cell, so the check is the
    comparison into the kernel of the outgoing map.  (The relative
    refinement against the *following* cell is not well posed here: the
    maps of a derived long sequence are canonical only up to 2-isomorphic
    twists, and a compatible cell pair need not exist for the canonical
    representatives, while the pair-level comparison is representative-
    independent.)
    """
    ok_all = True
    n_maps = len(seq.maps)
    for k in range(0, n_maps - 1):
        f_name, f_mor = seq.maps[k]
        g_name, g_mor = seq.maps[k + 1]
        ok = check_relative_two_exact(f_mor, seq.cells[k], g_mor)
        if detail is not None:
            detail.append((f"{f_name}|{g_name}", ok, ""))
        ok_all = ok_all and ok
    return ok_all
