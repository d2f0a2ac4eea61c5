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
from twohom.fpmod import FPModule
from twohom.derived import classical_tor_oracle
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


def _same_complex(c, d) -> bool:
    return c.modules == d.modules and [
        (f.f1.mat, f.f0.mat) for f in c.diffs] == [
        (f.f1.mat, f.f0.mat) for f in d.diffs]


def test_criterion_3_catalog_exact_values():
    # the suite compares every catalog value below with what the library
    # computes, and checks and validates the resolutions of Z/2, Z and shift
    # (ranks [1, 1, 0, 0], [1, 0, 0, 0] and [0, 1, 0, 0])
    name, ok, detail = selftest.suite_catalog_values()
    # pi-invariants of the six catalog 2-modules (hand-derived expecteds)
    expected_pi = {
        "mul2": ([2], []), "zeromap": ([0], [0]), "identity": ([], []),
        "Z/2": ([2], []), "Z": ([0], []), "shift": ([], [0]),
    }
    ok = ok and {nm: exp for nm, _, exp in catalog.pi_catalog()} == expected_pi
    # H_0, H_1 of the two catalog complexes (hand-derived)
    expected_h = [(catalog.complex_mul2, 0, ([2], [])),
                  (catalog.complex_mul2, 1, ([], [])),
                  (catalog.complex_to_zero, 0, ([], [0])),
                  (catalog.complex_to_zero, 1, ([0], []))]
    for (c, n, exp), (make, n_hand, exp_hand) in zip(
            catalog.homology_catalog(), expected_h, strict=True):
        ok = ok and (n, exp) == (n_hand, exp_hand) and _same_complex(c, make())
    _report(3, ok, f"{detail}: six pi profiles, four homology values, "
                   "three shapes")


def test_criterion_4_window_law():
    name, ok, detail = selftest.suite_window_law(seed=0, cases=100)
    _report(4, ok, detail + ", zero mismatches")


def test_criterion_5_derived_vs_tor():
    # 16 cyclic pairs (Z/a, Z/b), a, b in {2, 3, 4, 6}, degrees 0..2 against
    # the classical Tor window
    name, ok, detail = selftest.suite_derived_oracle()
    _report(5, ok, detail)


def test_criterion_6_projective_vanishing():
    name, ok, detail = selftest.suite_projective_vanishing(seed=0, cases=20)
    _report(6, ok, detail)


def test_criterion_7_comparison_homotopy():
    name, ok, detail = selftest.suite_comparison_homotopy(seed=0, cases=25)
    _report(7, ok, detail)


def test_criterion_8_long_sequence():
    # the suite runs the catalog extension with - (x) Z/2 at depth 1: the
    # sequence is 2-exact, its six spots have the expected pi-profiles, and
    # its pi0 ladder is delta_1 iso, u_0 zero, v_0 iso
    name, ok, detail = selftest.suite_long_sequence()
    # classical oracle for the same ladder
    oracle = (classical_tor_oracle(FPModule.cyclic(ZZ, 2),
                                   FPModule.cyclic(ZZ, 2), 1),
              classical_tor_oracle(FPModule.free(ZZ, 1),
                                   FPModule.cyclic(ZZ, 2), 0))
    ok = ok and oracle == ([2], [2])
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
