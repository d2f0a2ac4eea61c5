"""The benchmark's workloads: seeded inputs, the timed query, and the oracle.

Each workload turns a seed into a list of raw inputs (plain ints, lists and
strings; no library objects), answers one input per query, and checks the
answer with an oracle that does not share the code path under test.
Queries build every library object they use from the raw input, so no query
can be answered from another query's memo (``Matrix._snf``/``_hnf``,
``TwoModule._pi1``, ``Complex2._hom``).

Sizes follow a fixed schedule: one *cycle* holds one query of every size
(or command) and a plan is a whole number of cycles, so every seed and every
commit measures the same size mix; only the random entries depend on the
seed.  Each raw input names its slot in the cycle as ``stratum``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from math import gcd

from sympy import ZZ as SZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors as sympy_invariants

from tracer import max_bits

# ---------------------------------------------------------------------------
# derive-z / derive-zmod: resolution -> homology -> relative kernel -> SNF
# ---------------------------------------------------------------------------

DERIVE_SIZES = list(range(8, 20))   # generators of M0; single inputs with
                                    # g = 20 ran for seconds to minutes
                                    # (bench/README.md)
DERIVE_DEPTH = 3
DERIVE_DEGREES = range(3)           # pi-profiles of L_0 .. L_2


class Derive:
    """resolve(depth 3), apply (- (x) N), pi-profiles of L_0..L_2."""

    def __init__(self, modulus, coeff: int):
        self.modulus = modulus      # None for Z
        self.coeff = coeff          # N = cyclic module of this order

    def inputs(self, seed: int, cycles: int, sizes=DERIVE_SIZES) -> list:
        """M0 with g generators and about g/2 relations, M1 free of rank
        about g/2, entries in [-4, 4]; derive-z and derive-zmod draw the
        same data from the same seed."""
        rng = random.Random(f"derive:{seed}")
        out = []
        for _ in range(cycles):
            for g in sizes:
                r = g // 2 + rng.randint(-1, 1)
                h = g // 2 + rng.randint(-1, 1)
                rel = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(g)]
                d = [[rng.randint(-4, 4) for _ in range(h)] for _ in range(g)]
                out.append({"stratum": g, "g": g, "r": r, "h": h, "rel": rel, "d": d})
        return out

    def query(self, raw):
        from twohom import (FPModule, FunctorSpec, Matrix, ModMor, RingSpec,
                            TwoModule, apply, resolve)

        ring = RingSpec.Z() if self.modulus is None else RingSpec.Zmod(self.modulus)
        g, r, h = raw["g"], raw["r"], raw["h"]
        m0 = FPModule(ring, g, Matrix.from_rows(ring, raw["rel"], r))
        m1 = FPModule.free(ring, h)
        m = TwoModule(m1, m0, ModMor(m1, m0, Matrix.from_rows(ring, raw["d"], h)))
        t = FunctorSpec.tensor_with(FPModule.cyclic(ring, self.coeff))
        res = resolve(m, DERIVE_DEPTH)
        tc = apply(t, res.complex())
        pis = [tc.homology(i).pi for i in DERIVE_DEGREES]
        return res, tc, pis

    def check(self, raw, answer):
        """Tot window law: pi(L_i) equals the total-complex window at i."""
        from twohom.complex2 import window_profile

        res, tc, pis = answer
        ok = all(window_profile(tc, i) == pis[i] for i in DERIVE_DEGREES)
        bits = max_bits(res.aug.f0.mat,
                        *[m for d in res.diffs for m in (d.f0.mat, d.f1.mat)])
        return ok, pis, bits


# ---------------------------------------------------------------------------
# snf-dense: the elimination engine alone
# ---------------------------------------------------------------------------

SNF_SIZES = list(range(10, 23))
SNF_RHS_COLS = 2


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class SnfDense:
    """snf with both transforms, invariant_factors, kernel_basis, solve_many
    on dense random Z matrices with entries in [-9, 9]."""

    def inputs(self, seed: int, cycles: int, sizes=SNF_SIZES) -> list:
        rng = random.Random(f"snf:{seed}")
        out = []
        for _ in range(cycles):
            for n in sizes:
                a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                w = [[rng.randint(-9, 9) for _ in range(2 * n)] for _ in range(n)]
                x = [[rng.randint(-9, 9) for _ in range(SNF_RHS_COLS)]
                     for _ in range(2 * n)]
                out.append({"stratum": n, "n": n, "a": a, "w": w,
                            "b": _matmul(w, x)})
        return out

    def query(self, raw):
        from twohom import (FPModule, Matrix, ZZ, invariant_factors,
                            kernel_basis, snf, solve_many)

        n = raw["n"]
        d, u, v = snf(Matrix.from_rows(ZZ, raw["a"]))
        inv = invariant_factors(FPModule(ZZ, n, Matrix.from_rows(ZZ, raw["a"])))
        w = Matrix.from_rows(ZZ, raw["w"])
        k = kernel_basis(w)
        x = solve_many(w, Matrix.from_rows(ZZ, raw["b"]))
        return d, u, v, inv, k, x

    def check(self, raw, answer):
        """U A V = D with D diagonal, invariant factors equal to sympy's,
        |det U| = |det V| = 1; W K = 0 with K of full rank and saturated;
        W X = B.  Exact arithmetic in sympy, no twohom code."""
        d, u, v, inv, k, x = answer
        n = raw["n"]
        a = _dm(raw["a"], (n, n))
        D, U, V = (_dm(m.tolists(), m.shape) for m in (d, u, v))
        diag = [d.entry(i, i) for i in range(n)]
        want = [int(f) for f in sympy_invariants(a)]
        rank = sum(1 for f in want if f != 0)
        # For nonsingular A, U A V = D and |det D| = |det A| (the product of
        # the invariant factors) already force det U * det V = +-1.
        ok = (U * a * V == D
              and all(d.entry(i, j) == 0 for i in range(n) for j in range(n) if i != j)
              and diag == want
              and (rank == n or (U.det() in (1, -1) and V.det() in (1, -1))))
        ok = ok and inv == sorted(f for f in want if f not in (0, 1)) + [0] * (n - rank)
        w = _dm(raw["w"], (n, 2 * n))
        w_rank = sum(1 for f in sympy_invariants(w) if f != 0)
        if k.cols:
            K = _dm(k.tolists(), k.shape)
            ok = ok and (w * K).is_zero_matrix and _saturated(K)
        ok = ok and k.cols == 2 * n - w_rank
        ok = (ok and x is not None
              and w * _dm(x.tolists(), x.shape) == _dm(raw["b"], (n, SNF_RHS_COLS)))
        bits = max_bits(d, u, v, k, *([x] if x is not None else []))
        return ok, [diag, inv, k.cols, x is not None], bits


def _dm(rows, shape):
    return DomainMatrix([list(r) for r in rows], shape, SZZ)


def _saturated(K, tries: int = 8) -> bool:
    """K (rows >= cols) has full column rank and is saturated iff the gcd of
    its maximal minors is 1.  A few minors usually prove it; otherwise all
    invariant factors of K must be 1 (sympy's Smith form, which is slower)."""
    m, c = K.shape
    rng = random.Random(m * 1000 + c)
    g = 0
    for t in range(tries):
        rows = list(range(m - c, m)) if t == 0 else sorted(rng.sample(range(m), c))
        g = gcd(g, int(K.extract(rows, list(range(c))).det()))
        if g == 1:
            return True
    return [int(f) for f in sympy_invariants(K)] == [1] * c


# ---------------------------------------------------------------------------
# cli-small: the CLI on a generated workspace of tiny objects
# ---------------------------------------------------------------------------

# The workspace holds the same numbers for every seed, so every run does the
# same work; the seed shuffles the extensions' orders (which are split, which
# are resolved) and draws the commands.
CLI_ORDERS = [(2, 3), (3, 4), (6, 2), (4, 6), (5, 3)]  # (m, n); the last two split
CLI_COEFFS = [3, 4, 6]      # tensor functors - (x) Z/k
CLI_MULS = [2, 5, 9]        # complexes [Z --k--> Z] in degrees 1, 0
CLI_RESOLUTIONS = 2         # eagerly resolved at every load
CLI_MIX = ["longseq1", "longseq2", "longseq3", "check-extension",
           "check-longseq", "derive", "relkernel", "relcokernel", "homology",
           "pi", "oracle"]


def _module(orders):
    g = len(orders)
    return {"type": "module", "gens": g,
            "relations": [[orders[i] if i == j else 0 for j in range(g)]
                          for i in range(g)]}


def _discrete(module_name):
    return {"type": "twomodule", "M1": {"gens": 0, "relations": []},
            "M0": module_name, "d": []}


def _onemor(src, dst, f0):
    return {"type": "onemor", "src": src, "dst": dst, "f1": [], "f0": f0}


def cli_workspace(rng: random.Random):
    """A workspace document plus, for every module, its cyclic orders."""
    objs = {}
    orders = {}
    exts = []
    pairs = rng.sample(CLI_ORDERS, len(CLI_ORDERS))
    for j, (m, n) in enumerate(pairs):
        split = j >= len(pairs) - 2
        e = f"e{j}"
        parts = {"A": [m], "B": [m, n] if split else [m * n], "C": [n]}
        for x, o in parts.items():
            objs[f"{e}_{x}0"] = _module(o)
            objs[f"{e}_{x}"] = _discrete(f"{e}_{x}0")
            orders[f"{e}_{x}0"] = o
        objs[f"{e}_F"] = _onemor(f"{e}_A", f"{e}_B", [[1], [0]] if split else [[n]])
        objs[f"{e}_G"] = _onemor(f"{e}_B", f"{e}_C", [[0, 1]] if split else [[1]])
        objs[f"{e}_GF"] = _onemor(f"{e}_A", f"{e}_C", [[0]] if split else [[n]])
        objs[f"{e}_phi"] = {"type": "twomor", "from": f"{e}_GF", "to": "zero", "s": []}
        objs[e] = {"type": "extension", "F": f"{e}_F", "phi": f"{e}_phi", "G": f"{e}_G"}
        exts.append(e)
    coeffs = CLI_COEFFS
    for k in coeffs:
        objs[f"N{k}"] = _module([k])
        orders[f"N{k}"] = [k]
        objs[f"T{k}"] = {"type": "functor", "kind": "tensor", "module": f"N{k}"}
    objs["Zfree"] = {"type": "twomodule", "M1": {"gens": 0, "relations": []},
                     "M0": {"gens": 1, "relations": [[]]}, "d": []}
    muls = CLI_MULS
    for j, k in enumerate(muls):
        objs[f"mul{j}"] = _onemor("Zfree", "Zfree", [[k]])
        objs[f"K{j}"] = {"type": "complex",
                         "items": [{"module": "Zfree"},
                                   {"module": "Zfree", "diff": f"mul{j}"}]}
    for j in range(CLI_RESOLUTIONS):
        objs[f"R{j}"] = {"type": "resolution", "of": f"e{j}_A", "depth": 2}
    doc = {"format": 1, "ring": {"kind": "Z"}, "objects": objs}
    return doc, orders, exts, coeffs, muls


def _factor(a: int) -> dict:
    out, p = {}, 2
    while p * p <= a:
        while a % p == 0:
            out[p] = out.get(p, 0) + 1
            a //= p
        p += 1
    if a > 1:
        out[a] = out.get(a, 0) + 1
    return out


def invariant_form(orders) -> list:
    """Invariant factors of the direct sum of Z/a over the given a >= 1."""
    powers = {}
    for a in orders:
        for p, e in _factor(a).items():
            powers.setdefault(p, []).append(p ** e)
    width = max((len(v) for v in powers.values()), default=0)
    out = [1] * width
    for pw in powers.values():
        for i, q in enumerate(sorted(pw, reverse=True)):
            out[width - 1 - i] *= q
    return out


def tor_closed_form(orders, k: int, i: int) -> list:
    """Tor_i(sum of Z/a, Z/k) over Z by gcd arithmetic."""
    if i >= 2:
        return []
    return invariant_form([gcd(a, k) for a in orders])


class TorOracle:
    """Classical Tor windows from ``classical_tor_oracle``, memoized by their
    inputs (the oracle is not under test, so caching it is harmless)."""

    def __init__(self):
        self._memo = {}

    def __call__(self, orders, k: int, i: int):
        key = (tuple(orders), k, i)
        if key not in self._memo:
            from twohom import FPModule, Matrix, ZZ, classical_tor_oracle

            m0 = FPModule(ZZ, len(orders),
                          Matrix.from_rows(ZZ, _module(orders)["relations"]))
            self._memo[key] = classical_tor_oracle(m0, FPModule.cyclic(ZZ, k), i)
        return self._memo[key]


class CliSmall:
    """In-process ``twohom.cli.main(argv)`` with stdout captured."""

    def __init__(self):
        self.tor = TorOracle()

    def inputs(self, seed: int, cycles: int, path, mix=CLI_MIX) -> list:
        """Writes the seed's workspace document to ``path``."""
        doc, orders, exts, coeffs, muls = cli_workspace(random.Random(f"cli:{seed}"))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        path = str(path)
        rng = random.Random(f"cli-queries:{seed}")
        out = []
        for _ in range(cycles):
            for kind in mix:
                e = rng.choice(exts)
                k = rng.choice(coeffs)
                if kind.startswith("longseq"):
                    depth = int(kind[-1])
                    argv = ["longseq", path, f"T{k}", e, "--depth", str(depth)]
                    spec = {"spots": [(f"{e}_{x}0", k, i)
                                      for i in range(depth, -1, -1)
                                      for x in "ABC"]}
                elif kind == "check-extension":
                    argv = ["check", path, "extension", e]
                    spec = {}
                elif kind == "check-longseq":
                    argv = ["check", path, "longseq", f"T{k}", e, "--depth", "1"]
                    spec = {}
                elif kind == "derive":
                    x = rng.choice("ABC")
                    argv = ["derive", path, f"T{k}", f"{e}_{x}", "--degrees", "0..2"]
                    spec = {"windows": [(f"{e}_{x}0", k, i) for i in range(3)]}
                elif kind in ("relkernel", "relcokernel"):
                    argv = [kind, path, f"{e}_F", f"{e}_phi", f"{e}_G"]
                    spec = {"pi": ([], [])}
                elif kind == "homology":
                    j = rng.randrange(len(muls))
                    deg = rng.randint(0, 1)
                    argv = ["homology", path, f"K{j}", str(deg)]
                    spec = {"pi": ([muls[j]], []) if deg == 0 else ([], [])}
                elif kind == "pi":
                    x = rng.choice("ABC")
                    argv = ["pi", path, f"{e}_{x}"]
                    spec = {"windows": [(f"{e}_{x}0", 0, 0)]}
                else:
                    x = rng.choice("ABC")
                    i = rng.randint(0, 2)
                    argv = ["oracle", path, "tor", f"{e}_{x}0", f"N{k}", str(i)]
                    spec = {"tor": tor_closed_form(orders[f"{e}_{x}0"], k, i)}
                out.append({"stratum": kind, "kind": kind, "argv": argv, "spec": spec,
                            "orders": orders})
        return out

    def query(self, raw):
        from twohom import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(raw["argv"])
            except SystemExit as exc:      # argparse rejects the argv
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()

    def check(self, raw, answer):
        """Exit 0, longseq exact, every pi equal to its classical Tor
        window, ``oracle tor`` equal to the gcd closed form."""
        rc, text = answer
        if rc != 0:
            return False, None, 0
        rep = json.loads(text)
        spec, kind = raw["spec"], raw["kind"]
        orders = raw["orders"]

        def window(mod, k, i):
            return self.tor(orders[mod], k, i), self.tor(orders[mod], k, i + 1)

        def pi(d):
            return d["pi0"], d["pi1"]

        if kind.startswith("longseq"):
            got = [pi(s) for s in rep["sequence"]]
            ok = rep["exact"] is True and got == [window(*w) for w in spec["spots"]]
            canon = [rep["exact"], got]
        elif kind.startswith("check"):
            ok = rep["result"] is True
            canon = rep["result"]
        elif kind == "derive":
            got = [pi(rep["degrees"][str(i)]) for i in range(3)]
            ok = got == [window(*w) for w in spec["windows"]]
            canon = got
        elif kind == "pi":
            got = pi(rep)
            ok = got == window(*spec["windows"][0])
            canon = got
        elif kind == "oracle":
            ok = rep["invariants"] == spec["tor"]
            canon = rep["invariants"]
        else:
            got = pi(rep)
            ok = got == tuple(spec["pi"])
            canon = got
        return ok, [kind, canon], _json_max_bits(rep)


def _json_max_bits(x) -> int:
    """Largest bit length of any integer in a parsed JSON report."""
    if isinstance(x, bool):
        return 0
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        return max((_json_max_bits(y) for y in x), default=0)
    return 0
