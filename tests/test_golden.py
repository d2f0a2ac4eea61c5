"""Pinned CLI reports over Z: every command on every applicable object of
``catalog.json`` must print the same stdout bytes and exit with the same
code as when ``golden_z.json`` was written.

``golden_z.json`` maps each command line (argv joined by spaces, without
the document argument) to the sha256 of its stdout and its exit code.
Regenerate it, only when a report is meant to change, from the repository
root with

    PYTHONPATH=src python tests/test_golden.py

and say in the change description which reports changed and why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from twohom.cli import main

ROOT = Path(__file__).resolve().parents[1]
CATALOG = ROOT / "catalog.json"
GOLDEN = Path(__file__).with_name("golden_z.json")


def commands():
    """Every CLI command line that applies to the catalog's objects."""
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


def digest(argv):
    """(sha256 of stdout, exit code) of ``twohom <cmd> catalog.json ...``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], str(CATALOG), *argv[1:]])
    return {"sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
            "exit": code}


def test_catalog_reports_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = {" ".join(argv): digest(argv) for argv in commands()}
    assert sorted(got) == sorted(golden)
    changed = sorted(k for k in got if got[k] != golden[k])
    assert not changed, f"{len(changed)} reports changed: {changed[:10]}"


if __name__ == "__main__":
    table = {" ".join(argv): digest(argv) for argv in commands()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
