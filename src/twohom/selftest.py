"""Built-in verification suites, runnable from the CLI (`selftest`) and
mirrored by the acceptance tests.  Every suite is deterministic for a
fixed seed and returns (name, passed, detail)."""

from __future__ import annotations

import random
import time
from typing import Callable, List, Tuple

from . import catalog
from .exactlin import Matrix, ZZ, det, hnf, kernel_basis, snf, solve_many
from .fpmod import (
    FPModule,
    ModMor,
    compose as mcompose,
    equal_mor,
    hom_basis,
    is_iso,
)
from .twomod import (
    OneMor,
    TwoModule,
    TwoMor,
    compose,
    is_pi_trivial,
    pi0_mor,
    pi_profile,
    relative_cokernel,
    relative_kernel,
    rc_compatible,
    rc_factorize,
    rk_compatible,
    rk_factorize,
    unique_cell,
)
from .complex2 import (
    Complex2,
    validate_chain_homotopy,
    validate_chain_mor,
    validate_complex,
    window_profile,
)
from .resolution import (
    compare,
    homotopy_between_lifts,
    horseshoe,
    perturb_lift,
    resolve,
    validate_resolution,
)
from .derived import (
    FunctorSpec,
    apply,
    check_long_sequence,
    check_projective_vanishing,
    classical_tor_oracle,
    is_right_relative_two_exact,
    long_sequence,
)

Result = Tuple[str, bool, str]


def _random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 9
                   ) -> Matrix:
    return Matrix(ZZ, rows, cols,
                  [rng.randint(-bound, bound) for _ in range(rows * cols)])


def _is_hermite(rows) -> bool:
    """Row echelon, zero rows last, pivots > 0, entries above in [0, pivot)."""
    leads = [next((j for j, x in enumerate(row) if x), None) for row in rows]
    piv = [j for j in leads if j is not None]
    return (leads[:len(piv)] == piv and piv == sorted(set(piv))
            and all(rows[i][j] > 0
                    and all(0 <= rows[k][j] < rows[i][j] for k in range(i))
                    for i, j in enumerate(piv)))


def suite_normal_forms(seed: int = 0, cases: int = 200) -> Result:
    rng = random.Random(seed)
    t0 = time.time()
    for _ in range(cases):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        a = _random_matrix(rng, r, c)
        d, u, v = snf(a)
        if u @ a @ v != d:
            return ("normal-forms", False, "UAV != D")
        if abs(det(u)) != 1 or abs(det(v)) != 1:
            return ("normal-forms", False, "transform not unimodular")
        diag = [d.entry(i, i) for i in range(min(r, c))]
        for i in range(len(diag) - 1):
            if diag[i] == 0:
                if diag[i + 1] != 0:
                    return ("normal-forms", False, "zero before nonzero")
            elif diag[i + 1] % diag[i] != 0:
                return ("normal-forms", False, "divisibility chain broken")
        if any(x < 0 for x in diag):
            return ("normal-forms", False, "negative invariant factor")
        h = hnf(a)
        ht, at = h.transpose(), a.transpose()
        if solve_many(at, ht) is None or solve_many(ht, at) is None:
            return ("normal-forms", False, "H and A span different rows")
        if not _is_hermite(h.tolists()):
            return ("normal-forms", False, "H not in Hermite form")
        fresh = Matrix.from_rows(ZZ, a.tolists(), c)   # no memo: eliminated anew
        if snf(fresh, "D") != (d,):
            return ("normal-forms", False, "D differs without transforms")
    # no elapsed time in the detail, so the report stays byte-stable;
    # run_all times every suite and the CLI prints that on stderr
    if time.time() - t0 >= 5.0:
        return ("normal-forms", False, f"{cases} cases, over 5s")
    return ("normal-forms", True, f"{cases} cases")


def _random_hom(rng: random.Random, src: FPModule, dst: FPModule) -> ModMor:
    """Random valid morphism: a small combination of hom_basis generators."""
    basis = hom_basis(src, dst)
    mat = Matrix.zeros(ZZ, dst.gens, src.gens)
    for b in basis:
        mat = mat + b.scale(rng.randint(-2, 2))
    return ModMor(src, dst, mat)


def _random_two_module(rng: random.Random) -> TwoModule:
    """Random small 2-module with free degree-1 part (always valid)."""
    g0 = rng.randint(1, 2)
    r0 = rng.randint(0, 2)
    rel = Matrix(ZZ, g0, r0, [rng.randint(-4, 4) for _ in range(g0 * r0)])
    m0 = FPModule(ZZ, g0, rel)
    r1 = rng.randint(0, 2)
    m1 = FPModule.free(ZZ, r1)
    d = ModMor(m1, m0, _random_matrix(rng, g0, r1, 3), check=False)
    return TwoModule(m1, m0, d, check=False)


def suite_universal_properties(seed: int = 0, cases: int = 100) -> Result:
    rng = random.Random(seed + 1)
    done = 0
    while done < cases:
        m = _random_two_module(rng)
        res = resolve(m, 2)
        if res.depth < 2:
            continue
        # relative-kernel diagram from the resolution stages
        f1, aug = res.f(1), res.aug
        phi = res.cell(1)
        rk = relative_kernel(f1, phi, aug)
        # eps is a valid 2-morphism and satisfies the compatibility diagram
        TwoMor(rk.eps.frm, rk.eps.to, rk.eps.s)
        if not rk_compatible(rk, rk.e, rk.eps):
            return ("universal-properties", False, "eps incompatible with phi")
        e_mor, psi = res.f(2), res.cell(2)
        fac1 = rk_factorize(rk, e_mor, psi)
        # triangle: psi.s + F.f1∘psi'.s = eps.s∘E'.f0
        lhs = psi.s + mcompose(fac1[1].s, f1.f1)
        rhs = mcompose(fac1[0].f0, rk.eps.s)
        if not equal_mor(lhs, rhs):
            return ("universal-properties", False, "rk triangle broken")
        # a second factorization, perturbed by a random 2-cell
        t = ModMor(res.module(2).M0, rk.K.M1,
                   _random_matrix(rng, rk.K.M1.gens, res.module(2).M0.gens, 2),
                   check=False)
        e2 = OneMor(res.module(2), rk.K,
                    fac1[0].f1 + mcompose(res.module(2).d, t),
                    fac1[0].f0 + mcompose(t, rk.K.d))
        psi2 = TwoMor(compose(e2, rk.e), e_mor, fac1[1].s - t)
        unique = unique_cell(fac1, (e2, psi2))
        if not equal_mor(unique.s, t):
            return ("universal-properties", False, "rk uniqueness cell wrong")
        # relative-cokernel diagram on the same stages
        rc = relative_cokernel(f1, phi, aug)
        # pi is a valid 2-morphism and satisfies the compatibility diagram
        TwoMor(rc.pi.frm, rc.pi.to, rc.pi.s)
        if not rc_compatible(rc, rc.p, rc.pi):
            return ("universal-properties", False, "pi incompatible with phi")
        # well-definedness: d_Q annihilates the relation subgroup
        img = rc.Q.d.mat @ rc.Q.M1.rel
        if solve_many(rc.Q.M0.rel, Matrix.from_rows(ZZ, img.tolists(), img.cols)) is None:
            return ("universal-properties", False, "rc differential misses N")
        fac_c1 = rc_factorize(rc, rc.p, rc.pi)
        # triangle for the cokernel side: pi.s + psi'.s∘G.f0 = E'.f1∘pi.s
        lhs = rc.pi.s + mcompose(aug.f0, fac_c1[1].s)
        rhs = mcompose(rc.pi.s, fac_c1[0].f1)
        if not equal_mor(lhs, rhs):
            return ("universal-properties", False, "rc triangle broken")
        tq = _random_hom(rng, rc.Q.M0, rc.p.dst.M1)
        e2c = OneMor(rc.Q, rc.p.dst,
                     fac_c1[0].f1 + mcompose(rc.Q.d, tq),
                     fac_c1[0].f0 + mcompose(tq, rc.p.dst.d))
        psi2c = TwoMor(compose(rc.p, e2c), rc.p, fac_c1[1].s - tq)
        unique_c = unique_cell(fac_c1, (e2c, psi2c))
        if not equal_mor(unique_c.s, tq):
            return ("universal-properties", False, "rc uniqueness cell wrong")
        done += 1
    return ("universal-properties", True, f"{cases} randomized diagrams")


def suite_catalog_values() -> Result:
    for name, m, expected in catalog.pi_catalog():
        if pi_profile(m) != expected:
            return ("catalog-values", False, f"pi({name}) != {expected}")
    for c, n, expected in catalog.homology_catalog():
        got = c.homology(n).pi
        if got != expected:
            return ("catalog-values", False, f"H_{n} = {got} != {expected}")
    shapes = {
        "Z/2": (catalog.z_mod(2), [1, 1, 0, 0]),
        "Z": (catalog.z_free(), [1, 0, 0, 0]),
        "shift": (catalog.shift_mod(), [0, 1, 0, 0]),
    }
    for name, (m, expect) in shapes.items():
        res = resolve(m, 3)
        got = [p.M0.gens for p in res.modules]
        if got != expect:
            return ("catalog-values", False, f"resolution of {name}: {got}")
        ok, why = validate_resolution(res)
        if not ok:
            return ("catalog-values", False, f"resolution of {name}: {why}")
    return ("catalog-values", True, "pi catalog, homology catalog, shapes")


def _random_strict_free_complex(rng: random.Random, length: int = 3
                                ) -> Complex2:
    ranks = [rng.randint(0, 3) for _ in range(length + 1)]
    mods = [TwoModule.free(ZZ, r) for r in ranks]
    diffs = []
    prev = None
    for n in range(1, length + 1):
        if prev is None:
            mat = _random_matrix(rng, ranks[0], ranks[1], 3)
        else:
            basis = kernel_basis(prev)
            coef = _random_matrix(rng, basis.cols, ranks[n], 2)
            mat = basis @ coef if basis.cols else Matrix.zeros(
                ZZ, ranks[n - 1], ranks[n])
        diffs.append(OneMor(mods[n], mods[n - 1],
                            ModMor.zero(mods[n].M1, mods[n - 1].M1),
                            ModMor(mods[n].M0, mods[n - 1].M0, mat,
                                   check=False), check=False))
        prev = mat
    return Complex2(ZZ, mods, diffs)


def suite_window_law(seed: int = 0, cases: int = 100) -> Result:
    for c, n, _ in catalog.homology_catalog():
        if c.homology(n).pi != window_profile(c, n):
            return ("window-law", False, f"catalog window at {n}")
    rng = random.Random(seed + 2)
    for k in range(cases):
        c = _random_strict_free_complex(rng)
        ok, why = validate_complex(c)
        if not ok:
            return ("window-law", False, f"generator broke: {why}")
        for i in range(c.length + 1):
            if c.homology(i).pi != window_profile(c, i):
                return ("window-law", False,
                        f"mismatch at case {k} degree {i}")
    return ("window-law", True, f"catalog + {cases} random strict complexes")


def suite_derived_oracle() -> Result:
    for a in (2, 3, 4, 6):
        for b in (2, 3, 4, 6):
            m0 = FPModule.cyclic(ZZ, a)
            n = FPModule.cyclic(ZZ, b)
            t = FunctorSpec.tensor_with(n)
            res = resolve(TwoModule.discrete(m0), 4)
            tc = apply(t, res.complex())
            for i in range(3):
                want = (classical_tor_oracle(m0, n, i),
                        classical_tor_oracle(m0, n, i + 1))
                got = tc.homology(i).pi
                if got != want:
                    return ("derived-oracle", False,
                            f"Tor window fails at ({a},{b},{i})")
    return ("derived-oracle", True, "16 cyclic pairs, degrees 0..2")


def suite_projective_vanishing(seed: int = 0, cases: int = 20) -> Result:
    rng = random.Random(seed + 3)
    for _ in range(cases):
        p = TwoModule.free(ZZ, rng.randint(0, 3))
        n = FPModule.cyclic(ZZ, rng.choice([2, 3, 4, 6]))
        if not check_projective_vanishing(FunctorSpec.tensor_with(n), p, 2):
            return ("projective-vanishing", False, "free object has L_i != 0")
    if is_pi_trivial(apply(FunctorSpec.tensor_with(FPModule.cyclic(ZZ, 2)),
                           resolve(catalog.z_mod(2), 2).complex()).homology(1).module):
        return ("projective-vanishing", False,
                "contrapositive exhibit vanished")
    return ("projective-vanishing", True, f"{cases} random free objects")


def suite_comparison_homotopy(seed: int = 0, cases: int = 25) -> Result:
    rng = random.Random(seed + 4)
    h = catalog.projection()
    res_src = resolve(h.src, 3)
    res_dst = resolve(h.dst, 3)
    base = compare(h, res_src, res_dst)
    ok, why = validate_chain_mor(base.as_chain_mor())
    if not ok:
        return ("comparison-homotopy", False, f"base lift invalid: {why}")
    for k in range(cases):
        xs = {n: _random_matrix(rng, res_dst.module(n + 1).M0.gens,
                                res_src.module(n).M0.gens, 3)
              for n in range(0, 2)}
        other = perturb_lift(base, xs)
        ok, why = validate_chain_mor(other.as_chain_mor())
        if not ok:
            return ("comparison-homotopy", False, f"perturbed lift invalid: {why}")
        hom = homotopy_between_lifts(base, other)
        ok, why = validate_chain_homotopy(hom)
        if not ok:
            return ("comparison-homotopy", False, f"case {k}: {why}")
    return ("comparison-homotopy", True, f"catalog morphism, {cases} lift pairs")


def suite_long_sequence() -> Result:
    f, phi, g = catalog.catalog_extension()
    t = FunctorSpec.tensor_with(FPModule.cyclic(ZZ, 2))
    if not is_right_relative_two_exact(t, f, phi, g):
        return ("long-sequence", False, "tensor not right relative 2-exact")
    seq = long_sequence(t, f, phi, g, 1)
    if not check_long_sequence(seq):
        return ("long-sequence", False, "long sequence not 2-exact")
    pis = [(e.label, e.degree, e.homology.pi) for e in seq.entries]
    want = [("A", 1, ([], [])), ("B", 1, ([], [])), ("C", 1, ([2], [])),
            ("A", 0, ([2], [])), ("B", 0, ([2], [])), ("C", 0, ([2], [2]))]
    if pis != want:
        return ("long-sequence", False, f"objects {pis}")
    by_name = dict(seq.maps)
    if not is_iso(pi0_mor(by_name["delta_1"])):
        return ("long-sequence", False, "delta_1 not a pi0-iso")
    if not pi0_mor(by_name["u_0"]).is_zero_mor():
        return ("long-sequence", False, "u_0 not pi0-zero")
    if not is_iso(pi0_mor(by_name["v_0"])):
        return ("long-sequence", False, "v_0 not a pi0-iso")
    return ("long-sequence", True, "catalog extension, tensor Z/2, depth 1")


def suite_exactness_vanishing() -> Result:
    """Certified 2-exact interior spots have pi-trivial homology."""
    for m in (catalog.z_mod(2), catalog.z_mod(3), catalog.shift_mod()):
        res = resolve(m, 3)
        ok, why = validate_resolution(res)
        if not ok:
            return ("exactness-vanishing", False, why)
        aug = res.augmented()
        for i in range(0, res.depth):
            h = aug.homology(i + 1)
            if not is_pi_trivial(h.module):
                return ("exactness-vanishing", False,
                        f"H at certified spot P_{i} nonzero for {m!r}")
    f, phi, g = catalog.catalog_extension()
    res_b, _, _ = horseshoe(f, phi, g, resolve(f.src, 3), resolve(g.dst, 3))
    aug = res_b.augmented()
    for i in range(0, res_b.depth):
        if not is_pi_trivial(aug.homology(i + 1).module):
            return ("exactness-vanishing", False, "horseshoe spot nonzero")
    return ("exactness-vanishing", True, "catalog + horseshoe resolutions")


SUITES: List[Tuple[str, Callable[..., Result]]] = [
    ("1 normal forms", suite_normal_forms),
    ("2 universal properties", suite_universal_properties),
    ("3 catalog values", lambda seed=0: suite_catalog_values()),
    ("4 window law", suite_window_law),
    ("5 derived vs Tor", lambda seed=0: suite_derived_oracle()),
    ("6 projective vanishing", suite_projective_vanishing),
    ("7 comparison homotopy", suite_comparison_homotopy),
    ("8 long sequence", lambda seed=0: suite_long_sequence()),
    ("9 exactness vanishing", lambda seed=0: suite_exactness_vanishing()),
]


def run_all(seed: int = 0) -> List[Tuple[str, bool, str, float]]:
    """(label, passed, detail, seconds) for every suite."""
    out = []
    for label, fn in SUITES:
        t0 = time.time()
        try:
            _, ok, detail = fn(seed=seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        out.append((label, ok, detail, time.time() - t0))
    return out
