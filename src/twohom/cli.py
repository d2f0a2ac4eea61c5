"""Command-line front end.

A workspace is a single JSON document:

    {"format": 1,
     "ring": {"kind": "Z"} | {"kind": "Zmod", "n": 6},
     "objects": {name: <object>, ...}}

where objects carry a "type" field: module, twomodule, onemor, twomor,
complex, extension, functor, matrix, resolution.  Integers may be given
as decimal strings when they exceed machine range.  Machine-readable
JSON goes to stdout; `--pretty` adds human-readable tables on stderr.
Exit codes: 0 success, 1 validation/precondition failure, 2 parse
failure.  An integer longer than Python's int/str digit limit
(`sys.get_int_max_str_digits()`) is refused by its digit count: in the
document it is a parse failure, in a report an exit 1 with no output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache, partial
from typing import Dict, List, Optional, Union

from .exactlin import DimensionMismatch, Matrix, RingSpec, snf
from .fpmod import FPModule, InvalidMorphism, ModMor
from .twomod import (
    CompatibilityError,
    OneMor,
    TwoModule,
    TwoMor,
    check_relative_two_exact,
    compose,
    is_extension,
    pi0_mor,
    pi1_mor,
    pi_profile,
    plain_kernel,
    relative_cokernel,
    relative_kernel,
    zero_null_homotopy,
)
from .complex2 import Complex2, validate_complex
from .resolution import (
    Resolution,
    compare,
    homotopy_between_lifts,
    perturb_lift,
    resolve,
    validate_resolution,
)
from .complex2 import validate_chain_homotopy
from .derived import (
    FunctorSpec,
    check_long_sequence,
    classical_tor_oracle,
    derived_complex,
    long_sequence,
)
from . import selftest


class ParseFailure(ValueError):
    pass


class ValidationFailure(ValueError):
    pass


WorkspaceObject = Union[FPModule, Matrix, TwoModule, OneMor, TwoMor,
                        Complex2, FunctorSpec, Resolution, tuple]


class Workspace:
    def __init__(self, ring: RingSpec, objects: Dict[str, WorkspaceObject]):
        self.ring = ring
        self.objects = objects

    def get(self, name: str, kinds=None, where: str = "this command"):
        obj = self.objects.get(name)
        if obj is None:
            raise ValidationFailure(f"unknown object {name!r}")
        if kinds is None or type(obj) is kinds:
            return obj
        if isinstance(obj, partial) and issubclass(Resolution, kinds):
            obj = self.objects[name] = obj()    # a resolution, on first use
        if not isinstance(obj, kinds):
            raise ValidationFailure(
                f"object {name!r} has the wrong type for {where}")
        return obj


def _as_int(x, where: str) -> int:
    """The integer x, a JSON number or decimal string, read for ``where``."""
    if isinstance(x, bool):
        raise ParseFailure(f"{where}: booleans are not ring elements")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x, 10)
        except ValueError as exc:
            digits = sum(c.isdigit() for c in x)
            if digits > sys.get_int_max_str_digits() > 0:
                raise ParseFailure(f"{where}: an integer of {digits} digits "
                                   f"is over {_digit_limit()}") from exc
            raise ParseFailure(f"{where}: bad integer {x!r}") from exc
    raise ParseFailure(f"{where}: bad integer {x!r}")


def _digit_limit() -> str:
    return f"the limit of {sys.get_int_max_str_digits()} digits"


def _opt_int(x, where: str) -> Optional[int]:
    return None if x is None else _as_int(x, where)


def _parse_matrix(ring: RingSpec, data, rows: Optional[int] = None,
                  cols: Optional[int] = None, where: str = "") -> Matrix:
    """The matrix of the list of rows data, of the declared shape where one
    is given; a malformed matrix is a ParseFailure that names its first
    fault."""
    if not isinstance(data, list):
        raise ParseFailure(f"{where}: matrix must be a list of rows")
    c = len(data[0]) if data and isinstance(data[0], list) else 0
    flat = []
    for row in data:
        if not isinstance(row, list) or len(row) != c:
            if any(not isinstance(r, list) for r in data):
                raise ParseFailure(f"{where}: matrix must be a list of rows")
            raise ParseFailure(f"{where}: ragged matrix")
        flat += row
    r = len(data)
    if not flat:
        # no entries: the declared shape wins (e.g. a 1x0 structure map)
        return Matrix.zeros(ring, rows if rows is not None else r,
                            cols if cols is not None else c)
    if rows is not None and r != rows:
        raise ParseFailure(f"{where}: expected {rows} rows, got {r}")
    if cols is not None and c != cols:
        raise ParseFailure(f"{where}: expected {cols} cols, got {c}")
    # the JSON parser has read every number; only decimal strings and
    # non-integers go through _as_int, and Matrix copies the ints once
    return Matrix(ring, r, c,
                  [x if type(x) is int else _as_int(x, where) for x in flat])


def _parse_ring(doc) -> RingSpec:
    spec = doc.get("ring")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseFailure("document needs a ring: {'kind': 'Z'|'Zmod', ...}")
    if spec["kind"] == "Z":
        return RingSpec.Z()
    if spec["kind"] == "Zmod":
        n = _as_int(spec.get("n", 0), "ring")
        if n < 2:
            raise ParseFailure(f"ring: Zmod modulus must be >= 2, got {n}")
        return RingSpec.Zmod(n)
    raise ParseFailure(f"unknown ring kind {spec['kind']!r}")


def load(path: str) -> Workspace:
    """Parse a workspace document and check every object (see load_doc)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:   # decoding errors are ValueErrors
        # a JSON number over the int/str digit limit: CPython names its
        # digit count, and the document is refused by it, never echoed
        over = re.search(r"value has (\d+) digits", str(exc))
        if over:
            raise ParseFailure(f"document: an integer of {over[1]} digits "
                               f"is over {_digit_limit()}") from None
        raise ParseFailure(f"cannot read document: {exc}") from exc
    return load_doc(doc)


def load_doc(doc: dict) -> Workspace:
    """Build and check every object of a parsed document; a `resolution` is
    checked here and computed when a command first uses it."""
    if not isinstance(doc, dict):
        raise ParseFailure("document must be a JSON object")
    if doc.get("format") != 1:
        raise ParseFailure("document must declare format: 1")
    ring = _parse_ring(doc)
    raw_objects = doc.get("objects", {})
    if not isinstance(raw_objects, dict):
        raise ParseFailure("objects must be a mapping")
    ws = Workspace(ring, {})
    resolving: List[str] = []

    def build(ref, kinds, where: str):
        """The object that ``where`` names by ``ref``, of one of ``kinds``."""
        if not isinstance(ref, str):
            raise ParseFailure(f"{where}: object names are strings, got {ref!r}")
        if ref not in ws.objects:
            if ref in resolving:
                raise ParseFailure(f"cyclic reference through {ref!r}")
            if ref not in raw_objects:
                raise ValidationFailure(f"unknown object {ref!r}")
            resolving.append(ref)
            try:
                obj = _build_object(ring, ref, raw_objects[ref], build)
            except (InvalidMorphism, DimensionMismatch, CompatibilityError) as exc:
                raise ValidationFailure(f"object {ref!r}: {exc}") from exc
            resolving.pop()
            ws.objects[ref] = obj
        return ws.get(ref, kinds, where)

    for name in raw_objects:
        build(name, None, "the document")
    return ws


def _field(spec, key: str, where: str):
    """spec[key]; a spec that is no mapping, or has no key, is refused."""
    try:
        return spec[key]
    except (KeyError, TypeError):
        pass
    if not isinstance(spec, dict):
        raise ParseFailure(f"{where}: expected a mapping, got "
                           f"{type(spec).__name__}")
    raise ParseFailure(f"{where}: missing field {key!r}")


def _build_object(ring: RingSpec, name: str, spec, build):
    """The object ``name`` of the document.  Each map it holds is built as
    an unchecked ModMor: the TwoModule, OneMor or TwoMor around it checks
    it, once, and names it (d, f1, f0 or s), as validate_complex names a
    cell alpha[n]."""
    where = f"object {name!r}"
    t = _field(spec, "type", where)
    if t == "matrix":
        return _parse_matrix(ring, _field(spec, "entries", where),
                             _opt_int(spec.get("rows"), name),
                             _opt_int(spec.get("cols"), name), name)
    if t == "module":
        return _module(ring, spec, build, name)
    if t == "twomodule":
        m1 = _module(ring, _field(spec, "M1", where), build, f"{name}.M1")
        m0 = _module(ring, _field(spec, "M0", where), build, f"{name}.M0")
        d = _parse_matrix(ring, _field(spec, "d", where), rows=m0.gens,
                          cols=m1.gens, where=f"{name}.d")
        return TwoModule(m1, m0, ModMor(m1, m0, d, check=False))
    if t == "onemor":
        src = build(_field(spec, "src", where), TwoModule, where)
        dst = build(_field(spec, "dst", where), TwoModule, where)
        f1 = _parse_matrix(ring, _field(spec, "f1", where), rows=dst.M1.gens,
                           cols=src.M1.gens, where=f"{name}.f1")
        f0 = _parse_matrix(ring, _field(spec, "f0", where), rows=dst.M0.gens,
                           cols=src.M0.gens, where=f"{name}.f0")
        return OneMor(src, dst, ModMor(src.M1, dst.M1, f1, check=False),
                      ModMor(src.M0, dst.M0, f0, check=False))
    if t == "twomor":
        frm = build(_field(spec, "from", where), OneMor, where)
        if spec.get("to") == "zero":
            to = OneMor.zero(frm.src, frm.dst)
        else:
            to = build(_field(spec, "to", where), OneMor, where)
        s = _parse_matrix(ring, _field(spec, "s", where), rows=frm.dst.M1.gens,
                          cols=frm.src.M0.gens, where=f"{name}.s")
        return TwoMor(frm, to, ModMor(frm.src.M0, frm.dst.M1, s, check=False))
    if t == "complex":
        items = spec.get("items", [])
        if not isinstance(items, list):
            raise ParseFailure(f"{where}: items must be a list")
        mods: List[TwoModule] = []
        diffs: List[OneMor] = []
        alphas = {}
        for n, item in enumerate(items):
            at = f"{name}[{n}]"
            m = build(_field(item, "module", at), TwoModule, at)
            mods.append(m)
            if n >= 1:
                diffs.append(build(_field(item, "diff", at), OneMor, at))
            if n >= 2 and item.get("alpha") is not None:
                s = _parse_matrix(ring, item["alpha"],
                                  rows=mods[n - 2].M1.gens, cols=m.M0.gens,
                                  where=f"{name}[{n}].alpha")
                alphas[n] = ModMor(m.M0, mods[n - 2].M1, s, check=False)
        c = Complex2(ring, mods, diffs, alphas)
        ok, why = validate_complex(c)
        if not ok:
            raise ValidationFailure(f"object {name!r}: {why}")
        return c
    if t == "extension":
        return (build(_field(spec, "F", where), OneMor, where),
                build(_field(spec, "phi", where), TwoMor, where),
                build(_field(spec, "G", where), OneMor, where))
    if t == "functor":
        kind = spec.get("kind")
        if kind == "identity":
            return FunctorSpec.identity()
        if kind == "tensor":
            return FunctorSpec.tensor_with(
                build(_field(spec, "module", where), FPModule, where))
        raise ParseFailure(f"{where}: unknown functor kind")
    if t == "resolution":
        m = build(_field(spec, "of", where), TwoModule, where)
        depth = _as_int(spec.get("depth", 2), where)
        if depth < 0:
            raise ValidationFailure(f"{where}: depth must be >= 0")
        return partial(resolve, m, depth)   # resolved by Workspace.get
    raise ParseFailure(f"{where}: unknown type {t!r}")


def _module(ring: RingSpec, spec, build, where: str) -> FPModule:
    """A module given inline or, inside a twomodule, by its object name."""
    if isinstance(spec, str):
        return build(spec, FPModule, where)
    gens = _as_int(_field(spec, "gens", where), where)
    rel = _parse_matrix(ring, spec.get("relations", []), rows=gens,
                        cols=_opt_int(spec.get("relation_count"), where),
                        where=where)
    return FPModule(ring, gens, rel)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def format_invariants(inv: List[int]) -> str:
    if not inv:
        return "0"
    parts = []
    for d in inv:
        parts.append("Z" if d == 0 else f"Z/{d}")
    return " x ".join(parts)


def _pi_report(m: TwoModule):
    p0, p1 = pi_profile(m)
    return {"pi0": p0, "pi1": p1,
            "pi0_name": format_invariants(p0), "pi1_name": format_invariants(p1)}


def _emit(report: dict, pretty_lines: List[str], args) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True,
                                separators=(",", ":")) + "\n")
    if args.pretty:
        for line in pretty_lines:
            sys.stderr.write(line + "\n")


def _cmd_pi(of, fields, line, ws: Workspace, args) -> int:
    """Report the pi-profile of one 2-module, as each command of that kind
    states it in build_parser: ``of(ws, args)`` is the module,
    ``fields(args)`` the report's name fields and ``line(args, pi0, pi1)``
    its --pretty line, from the names of the two profiles."""
    rep = _pi_report(of(ws, args))
    _emit({"command": args.command, **fields(args), **rep},
          [line(args, rep["pi0_name"], rep["pi1_name"])], args)
    return 0


def _cmd_snf(ws: Workspace, args) -> int:
    a = ws.get(args.matrix, Matrix)
    d, u, v = snf(a)
    _emit({"command": "snf", "matrix": args.matrix,
           "D": d.tolists(), "U": u.tolists(), "V": v.tolists()},
          [f"D = {d.tolists()}"], args)
    return 0


def _cokernel(ws: Workspace, args) -> TwoModule:
    """Coker(F): the cokernel of F relative to the zero map into F.src."""
    f = ws.get(args.F, OneMor)
    z = OneMor.zero(TwoModule.zero(ws.ring), f.src)
    return relative_cokernel(z, zero_null_homotopy(compose(z, f)), f).Q


def _cmd_resolve(ws: Workspace, args) -> int:
    m = ws.get(args.object, TwoModule)
    res = resolve(m, args.depth)
    ok, why = validate_resolution(res)
    rep = {"command": "resolve", "object": args.object, "depth": args.depth,
           "ranks": [p.M0.gens for p in res.modules],
           "differentials": [res.f(n).f0.mat.tolists()
                             for n in range(1, res.depth + 1)],
           "augmentation": {"f1": res.aug.f1.mat.tolists(),
                            "f0": res.aug.f0.mat.tolists()},
           "augmentation_cell": res.aug_cell_s.mat.tolists(),
           "witnesses": [w.f0.mat.tolists() for w in res.witnesses],
           "terminated": res.terminated,
           "valid": ok, "reason": why}
    _emit(rep, [f"ranks: {rep['ranks']} (terminated={res.terminated})"], args)
    return 0 if ok else 1


def _cmd_compare(ws: Workspace, args) -> int:
    h = ws.get(args.morphism, OneMor)
    res_p = ws.get(args.resP, Resolution)
    res_q = ws.get(args.resQ, Resolution)
    lift = compare(h, res_p, res_q)
    rep = {"command": "compare", "morphism": args.morphism,
           "lift": {str(n): lift.hs[n].f0.mat.tolists()
                    for n in sorted(lift.hs)},
           "eps0": lift.eps0.mat.tolists()}
    _emit(rep, [f"H_{n} = {m}" for n, m in rep["lift"].items()], args)
    return 0


def _cmd_derive(ws: Workspace, args) -> int:
    t = ws.get(args.functor, FunctorSpec)
    m = ws.get(args.object, TwoModule)
    lo, hi = args.degrees
    depth = args.depth if args.depth is not None else hi + 2
    _, tc = derived_complex(t, m, hi, depth)
    table = {str(i): _pi_report(tc.homology(i).module)
             for i in range(lo, hi + 1)}
    rep = {"command": "derive", "functor": args.functor, "object": args.object,
           "degrees": table}
    _emit(rep, [f"L_{i}: pi0 = {v['pi0_name']}, pi1 = {v['pi1_name']}"
                for i, v in table.items()], args)
    return 0


def _cmd_longseq(ws: Workspace, args) -> int:
    t = ws.get(args.functor, FunctorSpec)
    f, phi, g = ws.get(args.extension, tuple)
    seq = long_sequence(t, f, phi, g, args.depth)
    detail: List = []
    ok = check_long_sequence(seq, detail)
    records = []
    for k, e in enumerate(seq.entries):
        rec = {"spot": f"L_{e.degree}T({e.label})", "degree": e.degree,
               **_pi_report(e.homology.module)}
        if k < len(seq.maps):
            nm, mor = seq.maps[k]
            rec["map"] = {"name": nm,
                          "pi0": pi0_mor(mor).mat.tolists(),
                          "pi1": pi1_mor(mor).mat.tolists()}
        records.append(rec)
    rep = {"command": "longseq", "depth": args.depth, "exact": ok,
           "spots": [{"pair": pair, "ok": spot_ok} for pair, spot_ok in detail],
           "sequence": records,
           "endpoints_asserted": False}
    _emit(rep, [f"{r['spot']}: {r['pi0_name']}" for r in records]
          + [f"2-exact: {ok}"], args)
    return 0


def _cmd_check(ws: Workspace, args) -> int:
    what = args.what
    rep = {"command": "check", "what": what}
    if what == "exact":
        if args.phi is None or args.G is None:
            raise ValidationFailure("check exact needs <F> <phi> <G>")
        ok = check_relative_two_exact(ws.get(args.F, OneMor),
                                      ws.get(args.phi, TwoMor),
                                      ws.get(args.G, OneMor))
    elif what == "extension":
        ok = is_extension(*ws.get(args.F, tuple))
    elif what == "homotopy":
        h = ws.get(args.F, OneMor)
        res_src = resolve(h.src, args.depth)
        res_dst = resolve(h.dst, args.depth)
        base = compare(h, res_src, res_dst)
        # X_0: P_0(src) -> P_1(dst) with ones at (i, i), nonzero unless a
        # stage is; every map between free stages is a module map
        r, c = res_dst.module(1).M0.gens, res_src.module(0).M0.gens
        other = perturb_lift(base, {0: Matrix(
            ws.ring, r, c, [int(i == j) for i in range(r) for j in range(c)])})
        hom = homotopy_between_lifts(base, other)
        ok, rep["reason"] = validate_chain_homotopy(hom)
    elif what == "longseq":
        # check longseq <functor> <extension>
        t = ws.get(args.F, FunctorSpec)
        if args.phi is None:
            raise ValidationFailure("check longseq needs <functor> <extension>")
        f, phi, g = ws.get(args.phi, tuple)
        seq = long_sequence(t, f, phi, g, args.depth)
        ok = check_long_sequence(seq)
    else:
        raise ValidationFailure(f"unknown check {what!r}")
    rep["result"] = ok
    _emit(rep, [f"check {what}: {ok}"], args)
    return 0


def _cmd_oracle(ws: Workspace, args) -> int:
    if args.kind != "tor":
        raise ValidationFailure("only `oracle tor` is available")
    m0 = ws.get(args.M0, FPModule)
    n = ws.get(args.N, FPModule)
    inv = classical_tor_oracle(m0, n, args.i)
    rep = {"command": "oracle", "kind": "tor", "degree": args.i,
           "invariants": inv, "name": format_invariants(inv)}
    _emit(rep, [f"Tor_{args.i} = {rep['name']}"], args)
    return 0


def _cmd_selftest(args) -> int:
    results = selftest.run_all(args.seed)
    ok_all = all(ok for _, ok, _, _ in results)
    rep = {"command": "selftest", "seed": args.seed,
           "passed": ok_all,
           "suites": [{"name": n, "ok": ok, "detail": d}
                      for n, ok, d, _ in results]}
    sys.stdout.write(json.dumps(rep, sort_keys=True,
                                separators=(",", ":")) + "\n")
    for n, ok, d, secs in results:
        sys.stderr.write(f"{'PASS' if ok else 'FAIL'} {n}: {d} ({secs:.2f}s)\n")
    return 0 if ok_all else 1


def _degrees(text: str):
    """Parse ``a..b`` with 0 <= a <= b; argparse exits 2 otherwise."""
    try:
        lo, hi = (int(x) for x in text.split(".."))
        if 0 <= lo <= hi:
            return lo, hi
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bad degree range {text!r} (want a..b with 0 <= a <= b)")


@cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="twohom",
                                description="Exact 2-dimensional homological "
                                            "algebra over Z and Z/n")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, *positionals):
        """Subcommand ``name`` on a workspace document, run as ``run(ws,
        args)``, with the given string arguments."""
        sp = sub.add_parser(name)
        sp.add_argument("document", help="workspace JSON document")
        sp.add_argument("--pretty", action="store_true",
                        help="human-readable tables on stderr")
        for arg in positionals:
            sp.add_argument(arg)
        sp.set_defaults(run=run)
        return sp

    def pi_command(name, positionals, of, fields, line):
        return command(name, partial(_cmd_pi, of, fields, line), *positionals)

    pi_command("pi", ["object"], lambda ws, a: ws.get(a.object, TwoModule),
               lambda a: {"object": a.object},
               lambda a, p0, p1: f"pi0 = {p0}, pi1 = {p1}")
    command("snf", _cmd_snf, "matrix")
    pi_command("kernel", ["F"],
               lambda ws, a: plain_kernel(ws.get(a.F, OneMor)).K,
               lambda a: {"of": a.F},
               lambda a, p0, p1: f"Ker({a.F}): pi0 = {p0}, pi1 = {p1}")
    pi_command("cokernel", ["F"], _cokernel, lambda a: {"of": a.F},
               lambda a, p0, p1: f"Coker({a.F}): {p0}")
    pi_command("relkernel", ["F", "phi", "G"],
               lambda ws, a: relative_kernel(ws.get(a.F, OneMor),
                                             ws.get(a.phi, TwoMor),
                                             ws.get(a.G, OneMor)).K,
               lambda a: {}, lambda a, p0, p1: f"Ker({a.F}, {a.phi}): {p0}")
    pi_command("relcokernel", ["F", "phi", "G"],
               lambda ws, a: relative_cokernel(ws.get(a.F, OneMor),
                                               ws.get(a.phi, TwoMor),
                                               ws.get(a.G, OneMor)).Q,
               lambda a: {}, lambda a, p0, p1: f"Coker({a.phi}, {a.G}): {p0}")
    s = pi_command("homology", ["complex"],
                   lambda ws, a: ws.get(a.complex, Complex2).homology(a.n).module,
                   lambda a: {"complex": a.complex, "degree": a.n},
                   lambda a, p0, p1: f"H_{a.n}: pi0 = {p0}, pi1 = {p1}")
    s.add_argument("n", type=int)
    s = command("resolve", _cmd_resolve, "object")
    s.add_argument("--depth", type=int, default=2)
    command("compare", _cmd_compare, "morphism", "resP", "resQ")
    s = command("derive", _cmd_derive, "functor", "object")
    s.add_argument("--degrees", type=_degrees, default=(0, 1))
    s.add_argument("--depth", type=int, default=None)
    s = command("longseq", _cmd_longseq, "functor", "extension")
    s.add_argument("--depth", type=int, default=1)
    s = command("check", _cmd_check)
    s.add_argument("what", choices=["exact", "extension", "homotopy", "longseq"])
    s.add_argument("F"); s.add_argument("phi", nargs="?")
    s.add_argument("G", nargs="?")
    s.add_argument("--depth", type=int, default=2)
    s = command("oracle", _cmd_oracle)
    s.add_argument("kind", choices=["tor"])
    s.add_argument("M0"); s.add_argument("N"); s.add_argument("i", type=int)
    s = sub.add_parser("selftest")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--pretty", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return _cmd_selftest(args)
        return args.run(load(args.document), args)
    except ParseFailure as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except ValueError as exc:
        if "integer string conversion" in str(exc):  # Python's digit limit
            exc = (f"{args.command}: the report holds an integer over "
                   f"{_digit_limit()}")
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
