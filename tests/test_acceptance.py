"""Acceptance criteria, one test per criterion.

Every expected value here is exact (integer invariant factors); there are
no numeric tolerances to tune.  Each test prints a single PASS line so a
full run reads as a checklist; timing bounds are asserted where stated.
"""

import json
import subprocess
import sys
import time
from pathlib import Path


from twohom import catalog
from twohom.exactlin import ZZ
from twohom.fpmod import FPModule, is_iso
from twohom.twomod import (
    TwoModule,
    pi0_mor,
    pi_profile,
)
from twohom.complex2 import homology
from twohom.resolution import (
    resolve,
)
from twohom.derived import (
    FunctorSpec,
    apply,
    check_long_sequence,
    classical_tor_oracle,
    long_sequence,
)
from twohom import selftest

ROOT = Path(__file__).resolve().parents[1]
CATALOG_DOC = str(ROOT / "catalog.json")


def _report(n, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_normal_forms():
    t0 = time.time()
    name, ok, detail = selftest.suite_normal_forms(seed=0, cases=200)
    dt = time.time() - t0
    _report(1, ok and dt < 5.0, f"{detail} (wall {dt:.2f}s < 5s)")


def test_criterion_2_universal_properties():
    name, ok, detail = selftest.suite_universal_properties(seed=0, cases=100)
    _report(2, ok, detail)


def test_criterion_3_catalog_exact_values():
    # pi-invariants of the six catalog 2-modules (hand-derived expecteds)
    expected_pi = {
        "mul2": ([2], []), "zeromap": ([0], [0]), "identity": ([], []),
        "Z/2": ([2], []), "Z": ([0], []), "shift": ([], [0]),
    }
    ok = True
    for nm, mod, exp in catalog.pi_catalog():
        ok = ok and (pi_profile(mod) == exp == expected_pi[nm])
    # H_0, H_1 of the two catalog complexes (hand-derived)
    ok = ok and homology(catalog.complex_mul2(), 0).pi == ([2], [])
    ok = ok and homology(catalog.complex_mul2(), 1).pi == ([], [])
    ok = ok and homology(catalog.complex_to_zero(), 0).pi == ([], [0])
    ok = ok and homology(catalog.complex_to_zero(), 1).pi == ([0], [])
    # resolution shapes
    ok = ok and [p.M0.gens for p in resolve(catalog.z_mod(2), 3).modules] \
        == [1, 1, 0, 0]
    ok = ok and [p.M0.gens for p in resolve(catalog.z_free(), 3).modules] \
        == [1, 0, 0, 0]
    ok = ok and [p.M0.gens for p in resolve(catalog.shift_mod(), 3).modules] \
        == [0, 1, 0, 0]
    _report(3, ok, "six pi profiles, four homology values, three shapes")


def test_criterion_4_window_law():
    name, ok, detail = selftest.suite_window_law(seed=0, cases=100)
    _report(4, ok, detail + ", zero mismatches")


def test_criterion_5_derived_vs_tor():
    ok = True
    checked = 0
    for a in (2, 3, 4, 6):
        for b in (2, 3, 4, 6):
            m0 = FPModule.cyclic(ZZ, a)
            n = FPModule.cyclic(ZZ, b)
            res = resolve(TwoModule.discrete(m0), 4)
            tc = apply(FunctorSpec.tensor_with(n), res.complex())
            for i in range(3):
                got = tc.homology(i).pi
                want = (classical_tor_oracle(m0, n, i),
                        classical_tor_oracle(m0, n, i + 1))
                ok = ok and got == want
                checked += 1
    _report(5, ok, f"{checked} exact invariant-factor comparisons")


def test_criterion_6_projective_vanishing():
    name, ok, detail = selftest.suite_projective_vanishing(seed=0, cases=20)
    _report(6, ok, detail)


def test_criterion_7_comparison_homotopy():
    name, ok, detail = selftest.suite_comparison_homotopy(seed=0, cases=25)
    _report(7, ok, detail)


def test_criterion_8_long_sequence():
    f, phi, g = catalog.catalog_extension()
    t = FunctorSpec.tensor_with(FPModule.cyclic(ZZ, 2))
    seq = long_sequence(t, f, phi, g, 1)
    ok = check_long_sequence(seq)
    pis = [(e.label, e.degree, e.homology.pi) for e in seq.entries]
    ok = ok and pis == [("A", 1, ([], [])), ("B", 1, ([], [])),
                        ("C", 1, ([2], [])), ("A", 0, ([2], [])),
                        ("B", 0, ([2], [])), ("C", 0, ([2], [2]))]
    by_name = dict(seq.maps)
    ladder_ok = (is_iso(pi0_mor(by_name["delta_1"]))
                 and pi0_mor(by_name["u_0"]).is_zero_mor()
                 and is_iso(pi0_mor(by_name["v_0"])))
    # classical oracle for the same ladder
    oracle = (classical_tor_oracle(FPModule.cyclic(ZZ, 2),
                                   FPModule.cyclic(ZZ, 2), 1),
              classical_tor_oracle(FPModule.free(ZZ, 1),
                                   FPModule.cyclic(ZZ, 2), 0))
    ok = ok and ladder_ok and oracle == ([2], [2])
    _report(8, ok, "long sequence 2-exact; pi0 ladder = classical Tor ladder"
                   " (delta iso, zero, iso)")


def test_criterion_9_exactness_implies_vanishing():
    name, ok, detail = selftest.suite_exactness_vanishing()
    _report(9, ok, detail)


def test_criterion_10_cli_selftest_and_determinism():
    selftests = [subprocess.run([sys.executable, "-m", "twohom.cli", "selftest",
                                 "--seed", "0"], capture_output=True)
                 for _ in range(2)]
    proc = selftests[0]
    ok = proc.returncode == 0
    rep = json.loads(proc.stdout) if proc.stdout else {}
    ok = ok and rep.get("passed") is True
    ok = ok and selftests[0].stdout == selftests[1].stdout

    def run(args):
        return subprocess.run([sys.executable, "-m", "twohom.cli", *args],
                              capture_output=True, text=True).stdout

    d1 = run(["derive", CATALOG_DOC, "T2", "Zmod2", "--degrees", "0..2",
              "--depth", "3"])
    d2 = run(["derive", CATALOG_DOC, "T2", "Zmod2", "--degrees", "0..2",
              "--depth", "3"])
    l1 = run(["longseq", CATALOG_DOC, "T2", "ext", "--depth", "1"])
    l2 = run(["longseq", CATALOG_DOC, "T2", "ext", "--depth", "1"])
    ok = ok and d1 == d2 and l1 == l2 and d1 and l1
    _report(10, ok, "selftest exit 0; selftest/derive/longseq byte-identical"
                    " reruns")
