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
import sys
from functools import cache, partial
from typing import Dict, List, Optional, Union

from .exactlin import DimensionMismatch, Matrix, RingSpec, snf
from .fpmod import FPModule, FactorError, InvalidMorphism, ModMor
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
from .complex2 import Complex2, homology, validate_complex
from .resolution import (
    Resolution,
    ResolutionError,
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
    def __init__(self, ring: RingSpec, objects: Dict[str, WorkspaceObject],
                 raw: dict):
        self.ring = ring
        self.objects = objects
        self.raw = raw

    def get(self, name: str, kinds=None, where: str = "this command"):
        if name not in self.objects:
            raise ValidationFailure(f"unknown object {name!r}")
        obj = self.objects[name]
        if (isinstance(obj, partial) and kinds is not None
                and issubclass(Resolution, kinds)):
            obj = self.objects[name] = obj()    # a resolution, on first use
        if kinds is not None and not isinstance(obj, kinds):
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
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise ParseFailure(f"{where}: matrix must be a list of rows")
    r = len(data)
    c = len(data[0]) if r else 0
    if any(len(row) != c for row in data):
        raise ParseFailure(f"{where}: ragged matrix")
    if r * c == 0:
        # no entries: the declared shape wins (e.g. a 1x0 structure map)
        return Matrix.zeros(ring, rows if rows is not None else r,
                            cols if cols is not None else c)
    if rows is not None and r != rows:
        raise ParseFailure(f"{where}: expected {rows} rows, got {r}")
    if cols is not None and c != cols:
        raise ParseFailure(f"{where}: expected {cols} cols, got {c}")
    flat = [_as_int(x, where) for row in data for x in row]
    return Matrix(ring, r, c, flat)


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
            doc = json.load(fh, parse_int=lambda s: _as_int(s, "document"))
    except (OSError, json.JSONDecodeError) as exc:
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
    ws = Workspace(ring, {}, doc)
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
    if not isinstance(spec, dict):
        raise ParseFailure(f"{where}: expected a mapping, got "
                           f"{type(spec).__name__}")
    if key not in spec:
        raise ParseFailure(f"{where}: missing field {key!r}")
    return spec[key]


def _build_object(ring: RingSpec, name: str, spec, build):
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
        return TwoModule(m1, m0, ModMor(m1, m0, d))
    if t == "onemor":
        src = build(_field(spec, "src", where), TwoModule, where)
        dst = build(_field(spec, "dst", where), TwoModule, where)
        f1 = _parse_matrix(ring, _field(spec, "f1", where), rows=dst.M1.gens,
                           cols=src.M1.gens, where=f"{name}.f1")
        f0 = _parse_matrix(ring, _field(spec, "f0", where), rows=dst.M0.gens,
                           cols=src.M0.gens, where=f"{name}.f0")
        return OneMor(src, dst, ModMor(src.M1, dst.M1, f1),
                      ModMor(src.M0, dst.M0, f0))
    if t == "twomor":
        frm = build(_field(spec, "from", where), OneMor, where)
        if spec.get("to") == "zero":
            to = OneMor.zero(frm.src, frm.dst)
        else:
            to = build(_field(spec, "to", where), OneMor, where)
        s = _parse_matrix(ring, _field(spec, "s", where), rows=frm.dst.M1.gens,
                          cols=frm.src.M0.gens, where=f"{name}.s")
        return TwoMor(frm, to, ModMor(frm.src.M0, frm.dst.M1, s))
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
                alphas[n] = ModMor(m.M0, mods[n - 2].M1, s)
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
# serialization (round-trip)
# ---------------------------------------------------------------------------

def _ser_ring(ring: RingSpec):
    return {"kind": "Z"} if not ring.is_modular else {"kind": "Zmod",
                                                      "n": ring.n}


def serialize(ws: Workspace) -> dict:
    objects = {}
    for name, obj in ws.objects.items():
        objects[name] = _ser_object(ws, name, obj)
    return {"format": 1, "ring": _ser_ring(ws.ring), "objects": objects}


def _ser_object(ws: Workspace, name: str, obj):
    raw = ws.raw.get("objects", {}).get(name, {})
    if isinstance(obj, Matrix):
        return {"type": "matrix", "rows": obj.rows, "cols": obj.cols,
                "entries": obj.tolists()}
    if isinstance(obj, FPModule):
        return {"type": "module", "gens": obj.gens,
                "relation_count": obj.rel.cols,
                "relations": obj.rel.tolists()}
    if isinstance(obj, TwoModule):
        return {"type": "twomodule",
                "M1": {"gens": obj.M1.gens, "relations": obj.M1.rel.tolists()},
                "M0": {"gens": obj.M0.gens, "relations": obj.M0.rel.tolists()},
                "d": obj.d.mat.tolists()}
    if isinstance(obj, OneMor):
        return {"type": "onemor", "src": raw.get("src"), "dst": raw.get("dst"),
                "f1": obj.f1.mat.tolists(), "f0": obj.f0.mat.tolists()}
    if isinstance(obj, TwoMor):
        return {"type": "twomor", "from": raw.get("from"),
                "to": raw.get("to"), "s": obj.s.mat.tolists()}
    if isinstance(obj, (Complex2, FunctorSpec, Resolution, partial, tuple)):
        return dict(raw)
    raise ValidationFailure(f"cannot serialize {name!r}")


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


def _cmd_pi(ws: Workspace, args) -> int:
    m = ws.get(args.object, TwoModule)
    rep = _pi_report(m)
    _emit({"command": "pi", "object": args.object, **rep},
          [f"pi0 = {rep['pi0_name']}, pi1 = {rep['pi1_name']}"], args)
    return 0


def _cmd_snf(ws: Workspace, args) -> int:
    a = ws.get(args.matrix, Matrix)
    d, u, v = snf(a)
    _emit({"command": "snf", "matrix": args.matrix,
           "D": d.tolists(), "U": u.tolists(), "V": v.tolists()},
          [f"D = {d.tolists()}"], args)
    return 0


def _cmd_kernel(ws: Workspace, args) -> int:
    rep = _pi_report(plain_kernel(ws.get(args.F, OneMor)).K)
    _emit({"command": "kernel", "of": args.F, **rep},
          [f"Ker({args.F}): pi0 = {rep['pi0_name']}, pi1 = {rep['pi1_name']}"],
          args)
    return 0


def _cmd_cokernel(ws: Workspace, args) -> int:
    f = ws.get(args.F, OneMor)
    zero = TwoModule.zero(ws.ring)
    z = OneMor.zero(zero, f.src)
    phi = zero_null_homotopy(compose(z, f))
    rep = _pi_report(relative_cokernel(z, phi, f).Q)
    _emit({"command": "cokernel", "of": args.F, **rep},
          [f"Coker({args.F}): {rep['pi0_name']}"], args)
    return 0


def _rel_triple(ws, args):
    f = ws.get(args.F, OneMor)
    phi = ws.get(args.phi, TwoMor)
    g = ws.get(args.G, OneMor)
    return f, phi, g


def _cmd_relkernel(ws: Workspace, args) -> int:
    f, phi, g = _rel_triple(ws, args)
    rep = _pi_report(relative_kernel(f, phi, g).K)
    _emit({"command": "relkernel", **rep},
          [f"Ker({args.F}, {args.phi}): {rep['pi0_name']}"], args)
    return 0


def _cmd_relcokernel(ws: Workspace, args) -> int:
    f, phi, g = _rel_triple(ws, args)
    rep = _pi_report(relative_cokernel(f, phi, g).Q)
    _emit({"command": "relcokernel", **rep},
          [f"Coker({args.phi}, {args.G}): {rep['pi0_name']}"], args)
    return 0


def _cmd_homology(ws: Workspace, args) -> int:
    c = ws.get(args.complex, Complex2)
    rep = _pi_report(homology(c, args.n).module)
    _emit({"command": "homology", "complex": args.complex, "degree": args.n,
           **rep},
          [f"H_{args.n}: pi0 = {rep['pi0_name']}, pi1 = {rep['pi1_name']}"],
          args)
    return 0


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
           "eps0": lift.eps_s[0].mat.tolists()}
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
           "spots": [{"pair": d[0], "ok": d[1]} for d in detail],
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
        ok = check_relative_two_exact(*_rel_triple(ws, args))
    elif what == "extension":
        ok = is_extension(*ws.get(args.F, tuple))
    elif what == "homotopy":
        h = ws.get(args.F, OneMor)
        res_src = resolve(h.src, args.depth)
        res_dst = resolve(h.dst, args.depth)
        base = compare(h, res_src, res_dst)
        other = perturb_lift(base, {0: Matrix.identity(
            ws.ring, res_dst.module(1).M0.gens)
            if res_dst.module(1).M0.gens == res_src.module(0).M0.gens
            else Matrix.zeros(ws.ring, res_dst.module(1).M0.gens,
                              res_src.module(0).M0.gens)})
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

    def with_doc(sp):
        sp.add_argument("document", help="workspace JSON document")
        sp.add_argument("--pretty", action="store_true",
                        help="human-readable tables on stderr")
        return sp

    s = with_doc(sub.add_parser("pi")); s.add_argument("object")
    s = with_doc(sub.add_parser("snf")); s.add_argument("matrix")
    s = with_doc(sub.add_parser("kernel")); s.add_argument("F")
    s = with_doc(sub.add_parser("cokernel")); s.add_argument("F")
    for nm in ("relkernel", "relcokernel"):
        s = with_doc(sub.add_parser(nm))
        s.add_argument("F"); s.add_argument("phi"); s.add_argument("G")
    s = with_doc(sub.add_parser("homology"))
    s.add_argument("complex"); s.add_argument("n", type=int)
    s = with_doc(sub.add_parser("resolve"))
    s.add_argument("object"); s.add_argument("--depth", type=int, default=2)
    s = with_doc(sub.add_parser("compare"))
    s.add_argument("morphism"); s.add_argument("resP"); s.add_argument("resQ")
    s = with_doc(sub.add_parser("derive"))
    s.add_argument("functor"); s.add_argument("object")
    s.add_argument("--degrees", type=_degrees, default=(0, 1))
    s.add_argument("--depth", type=int, default=None)
    s = with_doc(sub.add_parser("longseq"))
    s.add_argument("functor"); s.add_argument("extension")
    s.add_argument("--depth", type=int, default=1)
    s = with_doc(sub.add_parser("check"))
    s.add_argument("what", choices=["exact", "extension", "homotopy", "longseq"])
    s.add_argument("F"); s.add_argument("phi", nargs="?")
    s.add_argument("G", nargs="?")
    s.add_argument("--depth", type=int, default=2)
    s = with_doc(sub.add_parser("oracle"))
    s.add_argument("kind", choices=["tor"])
    s.add_argument("M0"); s.add_argument("N"); s.add_argument("i", type=int)
    s = sub.add_parser("selftest")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--pretty", action="store_true")
    return p


COMMANDS = {
    "pi": _cmd_pi,
    "snf": _cmd_snf,
    "kernel": _cmd_kernel,
    "cokernel": _cmd_cokernel,
    "relkernel": _cmd_relkernel,
    "relcokernel": _cmd_relcokernel,
    "homology": _cmd_homology,
    "resolve": _cmd_resolve,
    "compare": _cmd_compare,
    "derive": _cmd_derive,
    "longseq": _cmd_longseq,
    "check": _cmd_check,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return _cmd_selftest(args)
        ws = load(args.document)
        return COMMANDS[args.command](ws, args)
    except ParseFailure as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (ValidationFailure, InvalidMorphism, CompatibilityError,
            FactorError, ResolutionError, DimensionMismatch,
            ValueError) as exc:
        if "integer string conversion" in str(exc):  # Python's digit limit
            exc = (f"{args.command}: the report holds an integer over "
                   f"{_digit_limit()}")
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
