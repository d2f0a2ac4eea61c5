"""Caller-supplied cells are rejected at the public entry points.

A cell phi that is a valid 2-morphism but no null homotopy of G∘F makes
every construction on (F, phi, G) raise CompatibilityError, ``is_extension``
answer False, and the CLI commands on it keep their exit codes.  A complex
built by hand with valid but incoherent cells has no homology.

The data: F = 2: Z -> Z and G: Z -> [Z -2-> Z] the identity on objects, so
G∘F is 2 on objects, with the null homotopy s = -1.  ``not_of_gf`` is the
null homotopy s = -2 of the map 4, and ``not_null`` the cell s = 1 from G∘F
to the map 4.
"""

import json

import pytest

from twohom.cli import main
from twohom.complex2 import Complex2, validate_complex
from twohom.exactlin import Matrix, ZZ
from twohom.fpmod import FPModule, ModMor
from twohom.twomod import (
    CompatibilityError,
    OneMor,
    TwoModule,
    TwoMor,
    check_relative_two_exact,
    compose,
    is_extension,
    null_homotopy,
    plain_kernel,
    relative_cokernel,
    relative_kernel,
    rk_factorize,
)


def _mor(src, dst, f0):
    return OneMor(src, dst, ModMor.zero(src.M1, dst.M1),
                  ModMor(src.M0, dst.M0, Matrix.from_rows(ZZ, [[f0]])))


def _cell(frm, to, s):
    return TwoMor(frm, to, ModMor(frm.src.M0, frm.dst.M1,
                                  Matrix.from_rows(ZZ, [[s]])))


def _data():
    zf = TwoModule.free(ZZ, 1)
    z = FPModule.free(ZZ, 1)
    mul2 = TwoModule(z, z, ModMor(z, z, Matrix.from_rows(ZZ, [[2]])))
    f, g, four = _mor(zf, zf, 2), _mor(zf, mul2, 1), _mor(zf, mul2, 4)
    good = null_homotopy(compose(f, g), ModMor(
        zf.M0, mul2.M1, Matrix.from_rows(ZZ, [[-1]])))
    return f, g, good, {"not_of_gf": null_homotopy(four, ModMor(
        zf.M0, mul2.M1, Matrix.from_rows(ZZ, [[-2]]))),
                        "not_null": _cell(compose(f, g), four, 1)}


BAD = ["not_of_gf", "not_null"]


@pytest.mark.parametrize("bad", BAD)
def test_constructions_reject_the_cell(bad):
    f, g, good, cells = _data()
    relative_kernel(f, good, g)
    relative_cokernel(f, good, g)
    rk_factorize(plain_kernel(g), f, good)
    check_relative_two_exact(f, good, g)
    phi = cells[bad]
    for build in (relative_kernel, relative_cokernel, check_relative_two_exact):
        with pytest.raises(CompatibilityError):
            build(f, phi, g)
    with pytest.raises(CompatibilityError):
        rk_factorize(plain_kernel(g), f, phi)


@pytest.mark.parametrize("bad", BAD)
def test_is_extension_is_false(bad):
    f, g, _, cells = _data()
    assert is_extension(f, cells[bad], g) is False


def _document(tmp_path):
    onemor = {"type": "onemor", "f1": []}
    doc = {"format": 1, "ring": {"kind": "Z"}, "objects": {
        "Zfree": {"type": "twomodule", "M1": {"gens": 0}, "M0": {"gens": 1},
                  "d": []},
        "mul2": {"type": "twomodule", "M1": {"gens": 1}, "M0": {"gens": 1},
                 "d": [[2]]},
        "F": {**onemor, "src": "Zfree", "dst": "Zfree", "f0": [[2]]},
        "G": {**onemor, "src": "Zfree", "dst": "mul2", "f0": [[1]]},
        "GF": {**onemor, "src": "Zfree", "dst": "mul2", "f0": [[2]]},
        "four": {**onemor, "src": "Zfree", "dst": "mul2", "f0": [[4]]},
        "good": {"type": "twomor", "from": "GF", "to": "zero", "s": [[-1]]},
        "not_of_gf": {"type": "twomor", "from": "four", "to": "zero",
                      "s": [[-2]]},
        "not_null": {"type": "twomor", "from": "GF", "to": "four", "s": [[1]]},
    }}
    for name in ["good"] + BAD:
        doc["objects"][f"ext_{name}"] = {"type": "extension", "F": "F",
                                         "phi": name, "G": "G"}
    p = tmp_path / "cells.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("bad", BAD)
def test_cli_exit_codes(tmp_path, capsys, bad):
    doc = _document(tmp_path)
    for cmd in ("relkernel", "relcokernel"):
        assert main([cmd, doc, "F", "good", "G"]) == 0
        capsys.readouterr()
        assert main([cmd, doc, "F", bad, "G"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert "not a" in err
    assert main(["check", doc, "extension", f"ext_{bad}"]) == 0
    out, _ = capsys.readouterr()
    assert json.loads(out)["result"] is False


def test_homology_of_an_incoherent_complex_raises():
    """[Z -> 0] <- 0 <- Z <-1- Z with alpha_2 = 1 and alpha_3 = 0: each cell
    is a null homotopy, but L_1∘alpha_3 = 0 while alpha_2∘L_3 = 1."""
    shift = TwoModule(FPModule.free(ZZ, 1), FPModule.zero(ZZ),
                      ModMor.zero(FPModule.free(ZZ, 1), FPModule.zero(ZZ)))
    zero, zf = TwoModule.zero(ZZ), TwoModule.free(ZZ, 1)
    c = Complex2(ZZ, [shift, zero, zf, zf],
                 [OneMor.zero(zero, shift), OneMor.zero(zf, zero),
                  OneMor.identity(zf)],
                 {2: ModMor(zf.M0, shift.M1, Matrix.from_rows(ZZ, [[1]]))})
    assert validate_complex(c) == (False, "coherence at n=3")
    with pytest.raises(CompatibilityError):
        c.homology(2)
