import json
import subprocess
import sys
from pathlib import Path

import pytest

from twohom.cli import (
    ParseFailure,
    ValidationFailure,
    load,
    load_doc,
    main,
    serialize,
)

ROOT = Path(__file__).resolve().parents[1]
CATALOG = str(ROOT / "catalog.json")


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "twohom.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestLoad:
    def test_catalog_loads(self):
        ws = load(CATALOG)
        assert "mul2" in ws.objects
        assert "ext" in ws.objects

    def test_empty_document(self):
        ws = load_doc({"format": 1, "ring": {"kind": "Z"}, "objects": {}})
        assert ws.objects == {}

    def test_missing_format_rejected(self):
        with pytest.raises(ParseFailure):
            load_doc({"ring": {"kind": "Z"}, "objects": {}})

    def test_noncommuting_square_named(self, tmp_path):
        doc = json.load(open(CATALOG))
        doc["objects"]["badmor"] = {"type": "onemor", "src": "mul2",
                                    "dst": "mul2", "f1": [[1]], "f0": [[2]]}
        with pytest.raises(ValidationFailure) as err:
            load_doc(doc)
        assert "badmor" in str(err.value)

    def test_decimal_strings_accepted(self):
        big = str(10 ** 40 + 1)
        ws = load_doc({"format": 1, "ring": {"kind": "Z"},
                       "objects": {"m": {"type": "module", "gens": 1,
                                         "relations": [[big]]}}})
        assert ws.objects["m"].rel.entry(0, 0) == 10 ** 40 + 1

    def test_round_trip(self):
        ws = load(CATALOG)
        doc2 = serialize(ws)
        ws2 = load_doc(doc2)
        assert set(ws.objects) == set(ws2.objects)
        doc3 = serialize(ws2)
        assert json.dumps(doc2, sort_keys=True) == json.dumps(doc3, sort_keys=True)

    def test_zmod_ring_document(self):
        ws = load_doc({"format": 1, "ring": {"kind": "Zmod", "n": 6},
                       "objects": {"m": {"type": "module", "gens": 1,
                                         "relations": [[2]]}}})
        assert ws.ring.n == 6


class TestCommands:
    def test_pi(self):
        code, out, _ = run_cli("pi", CATALOG, "mul2")
        assert code == 0
        rep = json.loads(out)
        assert rep["pi0_name"] == "Z/2" and rep["pi1_name"] == "0"

    def test_pi_pretty(self):
        code, out, err = run_cli("pi", CATALOG, "mul2", "--pretty")
        assert code == 0
        assert "pi0 = Z/2" in err

    def test_snf(self):
        code, out, _ = run_cli("snf", CATALOG, "A24")
        rep = json.loads(out)
        assert rep["D"] == [[1, 0], [0, 6]]

    def test_kernel_cokernel(self):
        code, out, _ = run_cli("kernel", CATALOG, "proj")
        assert json.loads(out)["pi0_name"] == "Z"
        code, out, _ = run_cli("cokernel", CATALOG, "two")
        assert json.loads(out)["pi0_name"] == "Z/2"

    def test_relkernel(self):
        code, out, _ = run_cli("relkernel", CATALOG, "two", "phi", "proj")
        assert code == 0
        assert json.loads(out)["pi0_name"] == "0"

    def test_relcokernel(self):
        code, out, _ = run_cli("relcokernel", CATALOG, "two", "phi", "proj")
        assert code == 0
        assert json.loads(out)["pi0_name"] == "0"

    def test_homology(self):
        code, out, _ = run_cli("homology", CATALOG, "C1", "0")
        rep = json.loads(out)
        assert rep["pi0"] == [2] and rep["pi1"] == []

    def test_homology_of_complex_with_nonzero_cell(self):
        # C3 glues zero differentials with a nonzero coherence cell; it is
        # exact everywhere
        for n in ("0", "1", "2"):
            code, out, _ = run_cli("homology", CATALOG, "C3", n)
            rep = json.loads(out)
            assert code == 0
            assert rep["pi0"] == [] and rep["pi1"] == []

    def test_incoherent_complex_rejected_at_load(self, tmp_path):
        bad = json.load(open(CATALOG))
        bad["objects"]["identity_mor"] = {
            "type": "onemor", "src": "Zfree", "dst": "Zfree",
            "f1": [], "f0": [[1]]}
        bad["objects"]["Cbad"] = {
            "type": "complex",
            "items": [{"module": "Zfree"},
                      {"module": "Zfree", "diff": "identity_mor"},
                      {"module": "Zfree", "diff": "identity_mor"}]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, _, err = run_cli("homology", str(p), "Cbad", "0")
        assert code == 1
        assert "alpha[2]" in err

    def test_resolve(self):
        code, out, _ = run_cli("resolve", CATALOG, "Zmod2", "--depth", "3")
        rep = json.loads(out)
        assert code == 0
        assert rep["ranks"] == [1, 1, 0, 0] and rep["valid"]

    def test_compare(self):
        code, out, _ = run_cli("compare", CATALOG, "proj", "resZ", "resZ2")
        assert code == 0
        assert "0" in json.loads(out)["lift"]

    def test_derive(self):
        code, out, _ = run_cli("derive", CATALOG, "T2", "Zmod2",
                               "--degrees", "0..1", "--depth", "2")
        rep = json.loads(out)
        assert rep["degrees"]["0"]["pi0"] == [2]
        assert rep["degrees"]["1"]["pi0"] == [2]

    def test_longseq(self):
        code, out, _ = run_cli("longseq", CATALOG, "T2", "ext", "--depth", "1")
        rep = json.loads(out)
        assert code == 0 and rep["exact"]
        assert len(rep["sequence"]) == 6

    def test_checks(self):
        for argv, want in [
            (("check", CATALOG, "extension", "ext"), True),
            (("check", CATALOG, "exact", "two", "phi", "proj"), True),
            (("check", CATALOG, "homotopy", "proj", "--depth", "2"), True),
            (("check", CATALOG, "longseq", "T2", "ext", "--depth", "1"), True),
        ]:
            code, out, _ = run_cli(*argv)
            assert code == 0, argv
            assert json.loads(out)["result"] is want

    def test_oracle(self):
        code, out, _ = run_cli("oracle", CATALOG, "tor", "Z4", "Z6", "1")
        assert json.loads(out)["invariants"] == [2]


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("this is not json")
        code, _, err = run_cli("pi", str(bad), "x")
        assert code == 2

    def test_validation_error_is_1(self, tmp_path):
        doc = json.load(open(CATALOG))
        doc["objects"]["badmor"] = {"type": "onemor", "src": "mul2",
                                    "dst": "mul2", "f1": [[1]], "f0": [[2]]}
        p = tmp_path / "bad2.json"
        p.write_text(json.dumps(doc))
        code, _, err = run_cli("pi", str(p), "mul2")
        assert code == 1
        assert "badmor" in err

    def test_unknown_name_is_1(self):
        code, _, err = run_cli("pi", CATALOG, "nonexistent")
        assert code == 1
        assert "nonexistent" in err

    @pytest.mark.parametrize("degrees", ["3..1", "-1..2", "1..x", "0..1..2"])
    def test_bad_degree_range_is_2(self, degrees, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["derive", CATALOG, "T2", "Zmod2", f"--degrees={degrees}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "bad degree range" in err


class TestDeterminism:
    def test_derive_byte_identical(self):
        a = run_cli("derive", CATALOG, "T2", "Zmod2", "--degrees", "0..2",
                    "--depth", "3")
        b = run_cli("derive", CATALOG, "T2", "Zmod2", "--degrees", "0..2",
                    "--depth", "3")
        assert a == b

    def test_longseq_byte_identical(self):
        a = run_cli("longseq", CATALOG, "T2", "ext", "--depth", "1")
        b = run_cli("longseq", CATALOG, "T2", "ext", "--depth", "1")
        assert a == b


def test_main_entrypoint_in_process(capsys):
    code = main(["pi", CATALOG, "mul2"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["pi0"] == [2]
