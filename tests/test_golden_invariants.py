"""Pinned invariants: what a report states that no choice of basis or of
generating set can change must stay as it was when ``golden_invariants.json``
was written.

``golden_z.json`` and ``golden_engine.json`` pin bytes, so they see every
change of presentation.  This file pins only the invariants:

* every pi-profile (``pi0``, ``pi1`` and their names), every ``derive``
  L_i table, ``oracle tor`` invariants and ``snf``'s D (the Smith form is
  unique);
* every verdict (``valid``, ``exact``, ``result``, ``terminated``, the
  ``ok`` of each long-sequence spot) and every exit code.

They are read off the reports of a fixed command set on ``catalog.json``
over Z and over Z/12 (the same document with its ring replaced), kept
here so that a command added to ``tests/test_golden.py`` leaves this gate
alone, and of a fixed command set on ``cli_small_workspace.json`` (the
bench's cli-small workspace for seed 601, ``bench/workloads.py``
``cli_workspace(random.Random("cli:601"))``, kept here so that a change of
the bench leaves this gate alone).  For the elimination engine they are
read off every ``tests/test_golden_engine.py`` input: the Smith diagonal,
whether ``solve_many`` solves the system, and the invariant factors of the
kernel and the cokernel of the input as a map from a free module into the
module that the right-hand side presents.

``golden_invariants.json`` holds, for each of the four sections, the
number of records and one sha256 over them.  Regenerate it from the
repository root with

    PYTHONPATH=src python tests/test_golden_invariants.py

only when a mathematical answer is meant to change (a fixed bug), and say
in the change description which section changed and why.  A change of
presentation bytes regenerates ``golden_z.json`` or ``golden_engine.json``
instead, and only while this file stays unchanged (README, "Goldens").
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from test_golden_engine import cases
from twohom.cli import main
from twohom.exactlin import snf, solve_many
from twohom.fpmod import FPModule, ModMor, cokernel, invariant_factors, kernel

CATALOG = Path(__file__).resolve().parents[1] / "catalog.json"
GOLDEN = Path(__file__).with_name("golden_invariants.json")
WORKSPACE = Path(__file__).with_name("cli_small_workspace.json")

# report keys whose values do not depend on a chosen basis; a long
# sequence's ``map`` holds matrices in the homology's generators, so the
# walk does not enter it
INVARIANT_KEYS = {"pi0", "pi1", "pi0_name", "pi1_name", "invariants", "D",
                  "valid", "exact", "result", "terminated", "ok"}


def invariants(report):
    """{path: value} for every invariant key anywhere in a report."""
    out = {}

    def walk(x, path):
        items = x.items() if isinstance(x, dict) else (
            enumerate(x) if isinstance(x, list) else ())
        for k, v in items:
            if k in INVARIANT_KEYS:
                out[f"{path}{k}"] = v
            elif k != "map":
                walk(v, f"{path}{k}.")

    walk(report, "")
    return out


def run(doc, argv):
    """The exit code and the invariants of ``twohom <cmd> doc ...``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], str(doc), *argv[1:]])
    text = buf.getvalue()
    return {"exit": code, "inv": invariants(json.loads(text)) if text else None}


def catalog_commands():
    """The catalog command lines whose invariants ``golden_invariants.json``
    holds: every command that applies to the catalog's objects."""
    objs = json.loads(CATALOG.read_text())["objects"]

    def of(kind):
        return sorted(k for k, v in objs.items() if v["type"] == kind)

    out = []
    for m in of("twomodule"):
        out.append(["pi", m])
        out += [["resolve", m, "--depth", str(d)] for d in range(4)]
    out += [["snf", a] for a in of("matrix")]
    for f in of("onemor"):
        out += [["kernel", f], ["cokernel", f], ["check", "homotopy", f]]
        out += [["compare", f, p, q]
                for p in of("resolution") for q in of("resolution")]
    for e in of("extension"):
        triple = [objs[e]["F"], objs[e]["phi"], objs[e]["G"]]
        out += [["relkernel", *triple], ["relcokernel", *triple],
                ["check", "exact", *triple], ["check", "extension", e]]
        for t in of("functor"):
            out.append(["check", "longseq", t, e])
            out += [["longseq", t, e, "--depth", str(d)] for d in (1, 2, 3)]
    out += [["homology", c, str(n)] for c in of("complex") for n in range(3)]
    for t in of("functor"):
        for m in of("twomodule"):
            out += [["derive", t, m, "--degrees", r]
                    for r in ("0..1", "0..2", "1..2", "0..4")]
            out += [["derive", t, m, "--degrees", "0..1", "--depth", str(d)]
                    for d in range(4)]
    out += [["oracle", "tor", a, b, str(i)]
            for a in of("module") for b in of("module") for i in range(3)]
    return out


def cli_small_commands():
    """Every command kind of the cli-small mix, on every extension."""
    out = []
    for e in (f"e{j}" for j in range(5)):
        triple = [f"{e}_F", f"{e}_phi", f"{e}_G"]
        out += [["check", "extension", e], ["relkernel", *triple],
                ["relcokernel", *triple]]
        out += [["pi", f"{e}_{x}"] for x in "ABC"]
        for k in (3, 4, 6):
            out += [["longseq", f"T{k}", e, "--depth", "2"],
                    ["check", "longseq", f"T{k}", e, "--depth", "1"],
                    ["derive", f"T{k}", f"{e}_B", "--degrees", "0..2"]]
        out += [["oracle", "tor", f"{e}_B0", "N6", str(i)] for i in range(3)]
    out += [["homology", f"K{j}", str(n)] for j in range(3) for n in range(2)]
    return out


def engine_records():
    """Per engine input A (with right-hand side B): the Smith diagonal,
    solvability of A X = B, and the invariant factors of the kernel and
    the cokernel of A as a map from a free module into coker B."""
    out = []
    for a, b in cases():
        D, = snf(a, "D")
        f = ModMor(FPModule.free(a.ring, a.cols), FPModule(a.ring, a.rows, b), a,
                   check=False)
        out.append([str(a.ring), [D.entry(i, i) for i in range(min(a.shape))],
                    solve_many(a, b) is not None,
                    invariant_factors(kernel(f)[0]),
                    invariant_factors(cokernel(f))])
    return out


def _digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return {"records": len(records),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def sections(tmp: Path):
    """{section: {"records": n, "sha256": ...}}, writing the Z/12 catalog
    into the directory tmp."""
    z12 = json.loads(CATALOG.read_text())
    z12["ring"] = {"kind": "Zmod", "n": 12}
    z12_doc = tmp / "catalog_z12.json"
    z12_doc.write_text(json.dumps(z12))
    table = {}
    for name, doc, argvs in [("catalog Z", CATALOG, catalog_commands()),
                             ("catalog Z/12", z12_doc, catalog_commands()),
                             ("cli-small", WORKSPACE, cli_small_commands())]:
        table[name] = _digest([[" ".join(argv), run(doc, argv)] for argv in argvs])
    table["engine"] = _digest(engine_records())
    return table


def test_invariants_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = sections(tmp_path)
    assert sorted(got) == sorted(golden)
    changed = sorted(k for k in got if got[k] != golden[k])
    assert not changed, f"invariants changed in {changed}"


def test_only_invariants_are_read():
    rep = {"command": "longseq", "exact": True, "spots": [{"pair": 1, "ok": True}],
           "sequence": [{"pi0": [2], "pi1": [], "map": {"pi0": [[1]]}}],
           "differentials": [[[2]]], "ranks": [1, 2], "witnesses": [[[0]]]}
    assert invariants(rep) == {"exact": True, "spots.0.ok": True,
                               "sequence.0.pi0": [2], "sequence.0.pi1": []}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = sections(Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    counts = ", ".join(f"{k}: {v['records']}" for k, v in table.items())
    print(f"wrote the digests of {counts} records to {GOLDEN}")
