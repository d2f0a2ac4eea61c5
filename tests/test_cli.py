import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import twohom.cli
from twohom.cli import (
    ParseFailure,
    ValidationFailure,
    build_parser,
    load,
    load_doc,
    main,
    serialize,
)
from twohom.resolution import Resolution
from twohom.twomod import TwoModule

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

    def test_matrix_shape_is_an_integer(self):
        doc = {"format": 1, "ring": {"kind": "Z"},
               "objects": {"A": {"type": "matrix", "entries": [], "rows": "x"}}}
        with pytest.raises(ParseFailure, match="bad integer 'x'"):
            load_doc(doc)
        doc["objects"]["A"]["rows"] = "2"   # a decimal string is an integer
        assert load_doc(doc).objects["A"].shape == (2, 0)

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


class TestDeferredResolutions:
    """A `resolution` object is checked at load and computed the first time
    a command asks the workspace for it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = twohom.cli.resolve

        def counting(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(twohom.cli, "resolve", counting)
        return seen

    def test_resolved_on_first_get_only(self, calls):
        ws = load_doc(json.load(open(CATALOG)))
        assert len(calls) == 0
        res = ws.get("resZ", Resolution)
        assert isinstance(res, Resolution) and len(calls) == 1
        assert ws.get("resZ", Resolution) is res
        assert len(calls) == 1

    def test_serialize_resolves_nothing(self, calls):
        doc = json.load(open(CATALOG))
        out = serialize(load_doc(doc))
        assert out["objects"]["resZ"] == doc["objects"]["resZ"]
        assert serialize(load_doc(out)) == out
        assert len(calls) == 0

    def test_wrong_type_is_not_resolved(self, calls):
        ws = load(CATALOG)
        with pytest.raises(ValidationFailure, match="wrong type"):
            ws.get("resZ", TwoModule)
        assert len(calls) == 0

    @pytest.mark.parametrize("spec", [
        {"type": "resolution", "of": "Zfree", "depth": -1},
        {"type": "resolution", "of": "proj", "depth": 2},
    ], ids=["negative-depth", "of-a-onemor"])
    def test_bad_resolution_fails_the_load(self, tmp_path, spec):
        doc = json.load(open(CATALOG))
        doc["objects"]["badres"] = spec
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli("pi", str(p), "mul2")
        assert (code, out) == (1, "")
        assert "badres" in err


class TestOversizedIntegers:
    """An integer over Python's int/str digit limit is refused by its digit
    count, never echoed: exit 2 in the document, exit 1 in a report."""

    LIMIT = str(sys.get_int_max_str_digits())

    def doc(self, tmp_path, entries):
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"format": 1, "ring": {"kind": "Z"},
                                 "objects": {"A": {"type": "matrix",
                                                   "entries": entries}}}))
        return str(p)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_json_number_is_2(self, tmp_path, sign):
        p = tmp_path / "big.json"
        p.write_text('{"format": 1, "ring": {"kind": "Z"}, "objects": {"A": '
                     f'{{"type": "matrix", "entries": [[{sign}{"9" * 5000}]]}}}}}}')
        code, out, err = run_cli("snf", str(p), "A")
        assert (code, out) == (2, "")
        assert err.startswith("parse error:")
        assert "5000 digits" in err and self.LIMIT in err
        assert "9" * 20 not in err

    def test_decimal_string_is_2(self, tmp_path):
        code, out, err = run_cli("snf", self.doc(tmp_path, [["9" * 5000]]), "A")
        assert (code, out) == (2, "")
        assert err.startswith("parse error: A:")
        assert "5000 digits" in err and self.LIMIT in err
        assert "9" * 20 not in err

    def test_oversized_report_is_1_with_no_output(self, tmp_path):
        x = 10 ** 2200   # D holds x (x + 1), of 4401 digits
        p = self.doc(tmp_path, [[str(x), "0"], ["0", str(x + 1)]])
        code, out, err = run_cli("snf", p, "A", "--pretty")
        assert (code, out) == (1, "")
        assert err.startswith("error: snf:") and self.LIMIT in err
        assert "D =" not in err and len(err) < 200

    def test_under_the_limit_is_read(self, tmp_path):
        code, out, _ = run_cli("snf", self.doc(tmp_path, [["9" * 4000]]), "A")
        assert code == 0 and json.loads(out)["D"] == [[int("9" * 4000)]]


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

    def test_derive_default_depth_reads_far_enough(self, tmp_path):
        # over Z/4 the resolution of Z/2 never terminates; L_1 = 0
        doc = {"format": 1, "ring": {"kind": "Zmod", "n": 4}, "objects": {
            "M": {"type": "twomodule", "M1": {"gens": 0, "relations": []},
                  "M0": {"gens": 1, "relations": [[2]]}, "d": []},
            "Tid": {"type": "functor", "kind": "identity"}}}
        p = tmp_path / "z4.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run_cli("derive", str(p), "Tid", "M", "--degrees", "0..1")
        assert code == 0
        rep = json.loads(out)["degrees"]
        assert (rep["0"]["pi0"], rep["0"]["pi1"]) == ([2], [])
        assert (rep["1"]["pi0"], rep["1"]["pi1"]) == ([], [])

    def test_derive_too_shallow_is_1(self):
        code, out, err = run_cli("derive", CATALOG, "T2", "Zmod2",
                                 "--degrees", "0..2", "--depth", "0")
        assert code == 1 and out == ""
        assert "L_2 needs a resolution of depth 4" in err

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

    @pytest.mark.parametrize("name, obj", [
        ("A", {"type": "matrix"}),
        ("T", {"type": "twomodule", "M1": {"gens": 0}, "M0": 5, "d": []}),
        ("F", {"type": "onemor", "src": ["x"], "dst": "Z",
               "f1": [], "f0": [[1]]}),
        ("C", {"type": "complex", "items": 3}),
        ("C", {"type": "complex", "items": [5]}),
        ("R", {"type": "module", "gens": 1, "relation_count": [1]}),
    ], ids=["no-entries", "M0-not-a-module", "src-not-a-name",
            "items-not-a-list", "item-not-a-mapping",
            "relation-count-not-an-integer"])
    def test_malformed_object_is_2(self, tmp_path, name, obj):
        """A missing or mistyped field is a parse failure naming the object,
        not a crash."""
        doc = {"format": 1, "ring": {"kind": "Z"},
               "objects": {"Z": {"type": "twomodule", "M1": {"gens": 0},
                                 "M0": {"gens": 1}, "d": [[]]},
                           name: obj}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli("pi", str(bad), "Z")
        assert (code, out) == (2, "")
        assert err.startswith("parse error:") and name in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", [1, 0, -3, "x", None])
    def test_bad_modulus_is_2(self, tmp_path, n):
        """A Zmod ring without a modulus >= 2 is a parse failure that names
        the ring."""
        ring = {"kind": "Zmod"} if n is None else {"kind": "Zmod", "n": n}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": 1, "ring": ring, "objects": {}}))
        code, out, err = run_cli("pi", str(bad), "x")
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ring:")
        assert "Traceback" not in err

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


def test_parser_is_built_once_and_reused(capsys):
    """main parses every argv with one parser; a rejected argv leaves no
    state behind in it."""
    golden = json.loads((ROOT / "tests" / "golden_z.json").read_text())
    with pytest.raises(SystemExit) as exc:
        main(["derive", CATALOG, "T2", "Zmod2", "--degrees=3..1"])
    assert exc.value.code == 2
    capsys.readouterr()
    for _ in range(2):
        assert main(["pi", CATALOG, "mul2"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            golden["pi mul2"]["sha256"]
    assert build_parser() is build_parser()


def test_main_entrypoint_in_process(capsys):
    code = main(["pi", CATALOG, "mul2"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["pi0"] == [2]
