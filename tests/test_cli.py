import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import twohom.cli
from twohom import complex2, fpmod, twomod
from twohom.cli import (
    ParseFailure,
    ValidationFailure,
    build_parser,
    load,
    load_doc,
    main,
)
from twohom.resolution import Resolution
from twohom.twomod import TwoModule

ROOT = Path(__file__).resolve().parents[1]
CATALOG = str(ROOT / "catalog.json")


def catalog_doc():
    """A fresh copy of the catalog document, read through a closed file."""
    return json.loads(Path(CATALOG).read_text(encoding="utf-8"))


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
        doc = catalog_doc()
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
        ws = load_doc(catalog_doc())
        assert len(calls) == 0
        res = ws.get("resZ", Resolution)
        assert isinstance(res, Resolution) and len(calls) == 1
        assert ws.get("resZ", Resolution) is res
        assert len(calls) == 1

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
        doc = catalog_doc()
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

    @pytest.mark.parametrize("argv, line", [
        (["pi", "mul2"], "pi0 = Z/2, pi1 = 0"),
        (["kernel", "proj"], "Ker(proj): pi0 = Z, pi1 = 0"),
        (["cokernel", "proj"], "Coker(proj): 0"),
        (["relkernel", "two", "phi", "proj"], "Ker(two, phi): 0"),
        (["relcokernel", "two", "phi", "proj"], "Coker(phi, proj): 0"),
        (["homology", "C1", "0"], "H_0: pi0 = Z/2, pi1 = 0"),
    ], ids=["pi", "kernel", "cokernel", "relkernel", "relcokernel",
            "homology"])
    def test_pi_pretty(self, argv, line):
        """The --pretty line of each pi-profile report; golden_z.json pins
        their stdout only."""
        code, out, err = run_cli(argv[0], CATALOG, *argv[1:], "--pretty")
        assert code == 0
        assert err == line + "\n"

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
        bad = catalog_doc()
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

    def test_compare_resolutions_of_unequal_depths(self, tmp_path):
        # over Z/12 the resolution of Z/12/(4) never terminates, so the
        # depth-2 side is resolved further to meet the depth-3 side
        doc = {"format": 1, "ring": {"kind": "Zmod", "n": 12}, "objects": {
            "M": {"type": "twomodule", "M1": {"gens": 0, "relations": []},
                  "M0": {"gens": 1, "relations": [[4]]}, "d": []},
            "id": {"type": "onemor", "src": "M", "dst": "M",
                   "f1": [], "f0": [[1]]},
            "R3": {"type": "resolution", "of": "M", "depth": 3},
            "R2": {"type": "resolution", "of": "M", "depth": 2}}}
        p = tmp_path / "z12.json"
        p.write_text(json.dumps(doc))
        for src, dst in (("R3", "R2"), ("R2", "R3")):
            code, out, err = run_cli("compare", str(p), "id", src, dst)
            assert code == 0, err
            assert sorted(json.loads(out)["lift"]) == ["0", "1", "2", "3"]

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
    @pytest.mark.parametrize("data", [b"this is not json", b"\xff{}"],
                             ids=["not-json", "not-utf8"])
    def test_parse_error_is_2(self, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        code, out, err = run_cli("pi", str(bad), "x")
        assert (code, out) == (2, "")
        assert err.startswith("parse error:")

    @pytest.mark.parametrize("argv", [
        ["longseq", "T2", "ext"], ["check", "longseq", "T2", "ext"]],
        ids=["longseq", "check-longseq"])
    def test_negative_longseq_depth_is_1(self, argv):
        """A negative depth is refused, as resolve refuses it, instead of
        certifying an empty sequence exact."""
        code, out, err = run_cli(argv[0], CATALOG, *argv[1:], "--depth", "-1")
        assert (code, out) == (1, "")
        assert err == "error: depth must be >= 0\n"

    @pytest.mark.parametrize("argv", [["longseq", "T2", "notext"],
                                      ["check", "longseq", "T2", "notext"]],
                             ids=["longseq", "check-longseq"])
    def test_longseq_of_a_non_extension_is_1(self, tmp_path, argv):
        """Zero maps Z -> Z -> Z are no extension; horseshoe says so."""
        doc = catalog_doc()
        doc["objects"].update({
            "z0": {"type": "onemor", "src": "Zfree", "dst": "Zfree",
                   "f1": [], "f0": [[0]]},
            "zphi": {"type": "twomor", "from": "z0", "to": "zero", "s": []},
            "notext": {"type": "extension", "F": "z0", "phi": "zphi",
                       "G": "z0"}})
        path = tmp_path / "notext.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli("check", str(path), "extension", "notext")
        assert code == 0 and json.loads(out)["result"] is False
        code, out, err = run_cli(argv[0], str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err == "error: horseshoe requires an extension\n"

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
        doc = catalog_doc()
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


class TestLoadChecks:
    """Each map of a document is checked once, by the object that holds it,
    and a failing check names the object, the map and the condition."""

    # a twomodule, onemor, twomor and complex over the catalog, each with one
    # map that fails: (object, the expected message after "object 'bad': ")
    BAD = {
        "d": ({"type": "twomodule", "M1": {"gens": 1, "relations": [[2]]},
               "M0": {"gens": 1}, "d": [[1]]},
              "d does not respect relations"),
        "f1": ({"type": "onemor", "src": "t2", "dst": "mul2",
                "f1": [[1]], "f0": [[0]]},
               "f1 does not respect relations"),
        "f0": ({"type": "onemor", "src": "Zmod2", "dst": "Zfree",
                "f1": [], "f0": [[1]]},
               "f0 does not respect relations"),
        "square": ({"type": "onemor", "src": "mul2", "dst": "mul2",
                    "f1": [[1]], "f0": [[2]]},
                   "the square of f1 and f0 does not commute"),
        "s": ({"type": "twomor", "from": "z2", "to": "zero", "s": [[1]]},
              "s does not respect relations"),
        "degree-0": ({"type": "twomor", "from": "two", "to": "zero", "s": []},
                     "s fails the degree-0 identity"),
        "degree-1": ({"type": "twomor", "from": "z_mul2", "to": "z_mul2",
                      "s": [[1]]},
                     "s fails the degree-1 identity"),
        "alpha": ({"type": "complex", "items": [
                      {"module": "mul2"},
                      {"module": "zeromod", "diff": "z_into_mul2"},
                      {"module": "Zmod2", "diff": "z_out_of_z2", "alpha": [[1]]}]},
                  "alpha[2]: s does not respect relations"),
    }
    # valid objects the bad ones refer to
    HELPERS = {
        "t2": {"type": "twomodule", "M1": {"gens": 1, "relations": [[2]]},
               "M0": {"gens": 1, "relations": [[2]]}, "d": [[1]]},
        "z2": {"type": "onemor", "src": "Zmod2", "dst": "mul2",
               "f1": [], "f0": [[0]]},
        "z_mul2": {"type": "onemor", "src": "mul2", "dst": "zeromap",
                   "f1": [[0]], "f0": [[0]]},
        "z_into_mul2": {"type": "onemor", "src": "zeromod", "dst": "mul2",
                        "f1": [], "f0": []},
        "z_out_of_z2": {"type": "onemor", "src": "Zmod2", "dst": "zeromod",
                        "f1": [], "f0": []},
    }

    @pytest.mark.parametrize("which", sorted(BAD))
    def test_failing_map_is_named(self, tmp_path, which, capsys):
        obj, why = self.BAD[which]
        doc = catalog_doc()
        doc["objects"].update(self.HELPERS)
        doc["objects"]["bad"] = obj
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code = main(["pi", str(p), "mul2"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == f"error: object 'bad': {why}\n"

    def test_helpers_are_valid(self, tmp_path, capsys):
        doc = catalog_doc()
        doc["objects"].update(self.HELPERS)
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(doc))
        assert main(["pi", str(p), "mul2"]) == 0

    def test_each_map_is_checked_once(self, monkeypatch):
        """One `is_valid_mor` call per map of the cli-small workspace (57),
        where the ModMor and then its holder each made one, and one
        `equal_mor` call per square or homotopy identity that is not
        vacuous (5 of 28)."""
        calls = Counter()
        for name in ("is_valid_mor", "equal_mor"):
            real = getattr(fpmod, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            for mod in (fpmod, twomod, complex2):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counting)
        path = ROOT / "tests" / "cli_small_workspace.json"
        objects = json.loads(path.read_text())["objects"].values()
        maps = sum({"twomodule": 1, "onemor": 2, "twomor": 1}.get(o["type"], 0)
                   + sum("alpha" in item for item in o.get("items", []))
                   for o in objects)
        load(str(path))
        assert maps == 57
        assert calls == {"is_valid_mor": 57, "equal_mor": 5}


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
