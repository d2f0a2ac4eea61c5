"""Additive 2-functors, left derived 2-functors, resolution independence,
vanishing on projectives, the long 2-exact sequence of an extension, and
the classical Tor oracle used to cross-check everything over Z.

The functor zoo is {Identity, TensorWith(N)}: tensoring acts degreewise
by the Kronecker action on generators, which preserves every block
structure used here (in particular the degreewise splitting of a
horseshoe resolution survives tensoring on the nose).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .exactlin import (Matrix, ZZ, block_diag, hstack, kernel_basis,
                       kron, solve_many, unvec, vec, vstack)
from .fpmod import (
    FPModule,
    ModMor,
    cokernel,
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
    is_extension,
    is_pi_trivial,
    null_homotopy,
    pi0_mor,
    pi1_mor,
    pi_profile,
    plain_kernel,
    relative_kernel,
    rk_factorize,
)
from .complex2 import (
    ChainHomotopy,
    ChainMor,
    Complex2,
    HomologyData,
    homology_map,
    induced,
    kernel_cell,
)
from .resolution import Resolution, compare, horseshoe, resolve


class FunctorSpec:
    """Identity (``kind`` "identity"), or tensoring with a fixed presented
    module (``kind`` "tensor").

    A slotted value that refuses assignment: functors with equal fields are
    equal and hash equal."""

    __slots__ = ("kind", "module")

    def __init__(self, kind: str, module: Optional[FPModule] = None):
        if kind not in ("identity", "tensor"):
            raise ValueError(f"unknown functor kind {kind!r}")
        if kind == "tensor" and module is None:
            raise ValueError("tensor functor needs a module")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "module", module)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as assignment refuses
        return FunctorSpec, (self.kind, self.module)

    def __eq__(self, other):
        if other.__class__ is not FunctorSpec:
            return NotImplemented
        return (self.kind, self.module) == (other.kind, other.module)

    def __hash__(self):
        return hash((self.kind, self.module))

    def __repr__(self):
        return f"FunctorSpec(kind={self.kind!r}, module={self.module!r})"

    @staticmethod
    def identity() -> "FunctorSpec":
        return FunctorSpec("identity")

    @staticmethod
    def tensor_with(n: FPModule) -> "FunctorSpec":
        return FunctorSpec("tensor", n)


def apply(t: FunctorSpec, x):
    """Apply the functor degreewise / componentwise; validity is preserved,
    so nothing is checked again: y -> y (x) id_N carries relations into
    relations, and equality modulo relations, to their images.

    One call maps each object reachable from x once, and a tuple is a
    diagram: its images share their endpoints (T(f).dst is T(g).src when
    f.dst is g.src), and a chain map lands on the images of its complexes,
    so they share homology memos; over a cyclic N a map keeps its matrix and
    Smith memo (``kron(a, [1])`` is a).  The identity functor returns x.
    """
    if t.kind == "identity":
        return x
    eye = Matrix.identity(t.module.ring, t.module.gens)
    memo: dict = {}  # id(y) -> (y, T(y)): holding y keeps id(y) unique

    def go(y):
        if id(y) not in memo:
            memo[id(y)] = (y, image(y))
        return memo[id(y)][1]

    def one_mor(f: OneMor, src: TwoModule, dst: TwoModule) -> OneMor:
        return OneMor(src, dst, go(f.f1), go(f.f0), check=False)

    def cells(ss: Dict[int, ModMor]) -> Dict[int, ModMor]:
        return {n: go(s) for n, s in ss.items()}

    def chain(m: ChainMor, src: Complex2, dst: Complex2) -> ChainMor:
        return ChainMor(src, dst, {n: one_mor(f, src.module(n), dst.module(n))
                                   for n, f in m.fs.items()}, cells(m.lams))

    def image(y):
        if isinstance(y, tuple):
            return tuple(map(go, y))
        if isinstance(y, FPModule):
            return tensor(y, t.module)
        if isinstance(y, ModMor):
            return ModMor(go(y.src), go(y.dst), kron(y.mat, eye), check=False)
        if isinstance(y, TwoModule):
            return TwoModule(go(y.M1), go(y.M0), go(y.d), check=False)
        if isinstance(y, OneMor):
            return one_mor(y, go(y.src), go(y.dst))
        if isinstance(y, TwoMor):
            return TwoMor(go(y.frm), go(y.to), go(y.s), check=False)
        if isinstance(y, Complex2):
            mods = [go(m) for m in y.modules]
            diffs = [one_mor(d, mods[n], mods[n - 1])
                     for n, d in enumerate(y.diffs, start=1)]
            return Complex2(y.ring, mods, diffs, cells(y.alphas))
        if isinstance(y, ChainMor):
            return chain(y, go(y.src), go(y.dst))
        if isinstance(y, ChainHomotopy):
            tm = go(y.m)
            hs = {n: one_mor(h, tm.src.module(n), tm.dst.module(n + 1))
                  for n, h in y.hs.items()}
            return ChainHomotopy(tm, chain(y.mp, tm.src, tm.dst), hs,
                                 cells(y.taus))
        raise TypeError(f"cannot apply a functor to {type(y).__name__}")

    return go(x)


# ---------------------------------------------------------------------------
# the null-homotopy solver
# ---------------------------------------------------------------------------

def find_null_homotopy(w: OneMor) -> Optional[TwoMor]:
    """Find s with 0 = w + (d∘s, s∘d) by one exact linear solve over the
    ring; None when w is not null-homotopic.  A 2-cell F => G is exactly
    such an s for w = F - G, as TwoMor(F, G, s)."""
    ring = w.src.ring
    X, Y = w.src, w.dst
    m1 = Y.M1.gens

    def eye(n):
        return Matrix.identity(ring, n)

    # vec(s) solves d_Y * s = -w.f0 modulo rel0, s * d_X = -w.f1 and (s is a
    # module map) s * X.M0.rel = 0 modulo rel1, each band with slack
    r = X.M0.rel.cols
    big = hstack([vstack([kron(eye(X.M0.gens), Y.d.mat),
                          kron(X.d.mat.transpose(), eye(m1)),
                          kron(X.M0.rel.transpose(), eye(m1))]),
                  block_diag([kron(eye(X.M0.gens), Y.M0.rel),
                              kron(eye(X.M1.gens), Y.M1.rel),
                              kron(eye(r), Y.M1.rel)])])
    sol = solve_many(big, vstack([vec(-w.f0.mat), vec(-w.f1.mat),
                                  Matrix.zeros(ring, r * m1, 1)]))
    if sol is None:
        return None
    return null_homotopy(w, ModMor(X.M0, Y.M1, unvec(sol, m1, X.M0.gens),
                                   check=False))


# ---------------------------------------------------------------------------
# derived objects and morphisms
# ---------------------------------------------------------------------------

class DerivedResult:
    __slots__ = ("module", "functor", "degree", "resolution", "homology")

    def __init__(self, module: TwoModule, functor: FunctorSpec, degree: int,
                 resolution: Resolution, homology: HomologyData):
        self.module, self.functor, self.degree = module, functor, degree
        self.resolution, self.homology = resolution, homology

    @property
    def pi(self):
        return pi_profile(self.module)


def derived_complex(t: FunctorSpec, m: TwoModule, top: int, depth: int
                    ) -> Tuple[Resolution, Complex2]:
    """T applied to a projective resolution of m, deep enough for L_i T
    with i <= top.

    pi0 of L_i reads stage i+1 and pi1 reads stage i+2, so a resolution
    that has not terminated needs depth top + 2; one that has terminated
    needs depth top.
    """
    if top <= depth:
        res = resolve(m, depth)
        if res.terminated or top + 2 <= depth:
            return res, apply(t, res.complex())
    raise ValueError(f"L_{top} needs a resolution of depth {top + 2} "
                     f"({top} if it terminates by then), got depth {depth}")


def derive(t: FunctorSpec, m: TwoModule, i: int, depth: int) -> DerivedResult:
    """L_i T (m): homology at i of T applied to a projective resolution."""
    res, tc = derived_complex(t, m, i, depth)
    h = tc.homology(i)
    return DerivedResult(h.module, t, i, res, h)


def derive_mor(t: FunctorSpec, h: OneMor, i: int,
               res_src: Resolution, res_dst: Resolution) -> OneMor:
    """The induced morphism L_i T(src) -> L_i T(dst)."""
    lift = compare(h, res_src, res_dst)
    tchain = apply(t, lift.as_chain_mor())
    return induced(tchain, i)


class IndependenceWitness:
    __slots__ = ("forward", "backward", "pi0_iso", "pi1_iso",
                 "invariants_match")

    def __init__(self, forward: OneMor, backward: OneMor, pi0_iso: bool,
                 pi1_iso: bool, invariants_match: bool):
        self.forward, self.backward = forward, backward
        self.pi0_iso, self.pi1_iso = pi0_iso, pi1_iso
        self.invariants_match = invariants_match

    @property
    def certified(self) -> bool:
        return self.pi0_iso and self.pi1_iso and self.invariants_match


def resolution_independence(t: FunctorSpec, m: TwoModule,
                            res1: Resolution, res2: Resolution, i: int
                            ) -> IndependenceWitness:
    """Mutually inverse (up to pi) comparison maps between the homology of
    T applied to two resolutions of the same object."""
    ident = OneMor.identity(m)
    # compare resolves the shallower one further; the way back reuses both
    l12 = compare(ident, res1, res2)
    l21 = compare(ident, l12.res_dst, l12.res_src)
    tc1, tc2, ch12, ch21 = apply(t, (
        l12.res_src.complex(), l12.res_dst.complex(),
        l12.as_chain_mor(), l21.as_chain_mor()))
    w12, w21 = induced(ch12, i), induced(ch21, i)
    r11, r22 = compose(w12, w21), compose(w21, w12)

    def is_id(f: ModMor) -> bool:
        return equal_mor(f, ModMor.identity(f.src))

    pi0_ok = is_id(pi0_mor(r11)) and is_id(pi0_mor(r22))
    pi1_ok = is_id(pi1_mor(r11)) and is_id(pi1_mor(r22))
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
    At B: the comparison c into the kernel of T(G) is pi1-epi and
    essentially surjective, the pi1 half of C, as pi1(Coker(Tphi, TG)) =
    coker pi0(c) (the pi0-mono half of fullness is the A-spot condition,
    which right exactness does not promise).
    """
    if not is_extension(F, phi, G):
        raise ValueError("testbed is not an extension")
    return _right_exact_at_b_and_c(t, F, phi, G)


def _right_exact_at_b_and_c(t: FunctorSpec, F: OneMor, phi: TwoMor,
                            G: OneMor) -> bool:
    """The B- and C-spot conditions on a triple known to be an extension.

    Only B's pi1-epi half is tested, as the rest holds: the extension's
    Coker(F, phi, G) is pi-trivial, so its d_Q is an isomorphism, and for
    T = - (x) N, Coker(TF, Tphi, TG) is T(Coker(F, phi, G)) up to the order
    of its relation columns, so its d_Q, d_Q (x) N, is one too.  That is C,
    and its pi1 is coker pi0(c), so c is essentially surjective.  c skips
    its checks of T(phi), as proved here: T keeps composites and zero maps,
    so T(phi) is a null homotopy of T(G)∘T(F); compatibility with the
    plain kernel's cell is vacuous."""
    tf, tphi, tg = apply(t, (F, phi, G))
    c = rk_factorize(plain_kernel(tg), tf, tphi, check=False)[0]
    return is_epi(pi1_mor(c))


def exactness_at_a_spot(t: FunctorSpec, F: OneMor, phi: TwoMor, G: OneMor
                        ) -> bool:
    """Left-edge condition after applying t: Ker(T(F), T(phi)) pi-trivial."""
    tf, tphi, tg = apply(t, (F, phi, G))
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
    return invariant_factors(cokernel(img))


# ---------------------------------------------------------------------------
# the long sequence
# ---------------------------------------------------------------------------

class LongSeqEntry:
    __slots__ = ("label", "degree", "homology")

    def __init__(self, label: str, degree: int, homology: HomologyData):
        self.label = label           # "A", "B" or "C"
        self.degree, self.homology = degree, homology


class LongSeq:
    """The long sequence ... -> L_iT(A) -> L_iT(B) -> L_iT(C) -omega->
    L_{i-1}T(A) -> ... with the stored null homotopies of consecutive
    composites."""

    __slots__ = ("functor", "depth", "entries", "maps", "cells")

    def __init__(self, functor: FunctorSpec, depth: int,
                 entries: List[LongSeqEntry], maps: List[Tuple[str, OneMor]],
                 cells: List[TwoMor]):
        self.functor, self.depth, self.entries = functor, depth, entries
        self.maps = maps             # maps[k]: entries[k] -> entries[k+1]
        self.cells = cells           # cells[k]: maps[k+1]∘maps[k] => 0


def long_sequence(t: FunctorSpec, F: OneMor, phi: TwoMor, G: OneMor,
                  depth: int) -> LongSeq:
    """Horseshoe resolutions of the extension (``horseshoe`` checks it),
    apply the functor, take homology, connect with the matrix zig-zag, and
    store explicit null homotopies for every consecutive composite.

    The stages are free, so a pair (a, b) of an ambient module has no b,
    and every block below reads degree 0 alone: TK's differential is
    [[F^P_n, h_n], [0, F^Q_n]], delta_i is q |-> h_i q on cycles and
    -h_{i+1} on classes (Weibel 1.3.1, 2.2.8), delta∘v is null by the
    P-coordinates of a cycle of TK and u∘delta by minus its Q-coordinates."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    A, C = F.src, G.dst
    res_a = resolve(A, depth + 2)
    res_c = resolve(C, depth + 2)
    res_b, i_mor, p_mor = horseshoe(F, phi, G, res_a, res_c)
    if not _right_exact_at_b_and_c(t, F, phi, G):
        raise ValueError("functor is not right relative 2-exact on this extension")
    tp, tk, tq, ti, tpr = apply(t, (res_a.complex(), res_b.complex(),
                                    res_c.complex(), i_mor, p_mor))
    p0 = lambda n: tp.module(n).M0.gens
    # h_n, the top-right block of TK's differential
    h = lambda n: tk.diff(n).f0.mat[:p0(n - 1), p0(n):]

    entries: List[LongSeqEntry] = []
    maps: List[Tuple[str, OneMor]] = []
    cells: List[TwoMor] = []
    u = induced(ti, depth)
    for i in range(depth, -1, -1):
        v = induced(tpr, i)
        entries += [LongSeqEntry("A", i, tp.homology(i)),
                    LongSeqEntry("B", i, tk.homology(i)),
                    LongSeqEntry("C", i, tq.homology(i))]
        maps += [(f"u_{i}", u), (f"v_{i}", v)]
        cells.append(null_homotopy(compose(u, v),
                                   ModMor.zero(u.src.M0, v.dst.M1)))
        if i > 0:
            delta = homology_map(tq.homology(i), tp.homology(i - 1),
                                 h(i), -h(i + 1))
            u = induced(ti, i - 1)
            eye = Matrix.identity(tp.ring, tk.module(i).M0.gens)
            maps.append((f"delta_{i}", delta))
            cells += [
                null_homotopy(compose(v, delta), kernel_cell(
                    tk.homology(i), tp.homology(i - 1).module.M1,
                    eye[:p0(i)])),
                null_homotopy(compose(delta, u), kernel_cell(
                    tq.homology(i), tk.homology(i - 1).module.M1,
                    -eye[:, p0(i):]))]
    return LongSeq(t, depth, entries, maps, cells)


def check_long_sequence(seq: LongSeq, detail: Optional[list] = None) -> bool:
    """Run the middle-spot 2-exactness check at every interior spot,
    using the stored null homotopy of each consecutive composite.

    Each interior spot is a composable pair (f, g) with its cell, and runs
    ``check_relative_two_exact(f, cell, g)``: pi0 of Ker(f, cell) and pi1
    of Coker(cell, g) are zero.  (The relative refinement against the
    *following* cell is not well posed here: the maps of a derived long
    sequence are canonical only up to 2-isomorphic twists, and a
    compatible cell pair need not exist for the canonical representatives,
    while the pair-level comparison is representative-independent.)
    """
    ok_all = True
    n_maps = len(seq.maps)
    for k in range(0, n_maps - 1):
        f_name, f_mor = seq.maps[k]
        g_name, g_mor = seq.maps[k + 1]
        ok = check_relative_two_exact(f_mor, seq.cells[k], g_mor)
        if detail is not None:
            detail.append((f"{f_name}|{g_name}", ok))
        ok_all = ok_all and ok
    return ok_all
