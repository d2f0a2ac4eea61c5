"""Dense inputs on which the Smith elimination stalls, and the entry points
that already finish on them.

``stall_corpus`` rebuilds each input from a named ``random.Random`` seed,
row by row, so no data is stored: the 40x40 and 38x38 ``Random(1)``
matrices and the 38x38 ``Random("stall:38:6")`` and
``Random("stall:38:9")`` matrices, entries in [-9, 9], and the 32x65
``Random(0)`` matrix, entries in [-4, 4].  On these, ``invariant_factors``,
``snf(A, "D")``, ``solve_many`` and ``kernel_basis`` over Z run for seconds
(3.7 s and 13.2 s for D of the 38x38 and 40x40 ``Random(1)`` inputs on a
2 vCPU VM), so their cases are not here; each lands with the change that
ends its stall.  What is here passes today, each case under the
``signal.alarm`` ceiling it states: membership, which reduces against an
echelon basis and builds no Smith form, the Z/12 invariant factors, and
``twohom snf`` on a 34x34 input, which refuses a report whose transforms
pass the int/str digit limit.
"""

import json
import random
import signal
import sys

import pytest

from twohom import FPModule, Matrix, RingSpec, ZZ, cli, invariant_factors


def _dense(seed, rows, cols, bound):
    rng = random.Random(seed)
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def stall_corpus():
    """name -> rows of each dense input, rebuilt from its seed."""
    return {"40x40": _dense(1, 40, 40, 9), "38x38": _dense(1, 38, 38, 9),
            "stall:38:6": _dense("stall:38:6", 38, 38, 9),
            "stall:38:9": _dense("stall:38:9", 38, 38, 9),
            "32x65": _dense(0, 32, 65, 4)}


def under_alarm(seconds, what, run):
    """run(), which fails with a TimeoutError after the given seconds."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        return run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _left_null_mod(rows, p):
    """A vector y != 0 with y A = 0 mod p, or None if A's rows are
    independent mod p: the reduced row echelon form of A^T mod p, by plain
    elimination independent of the library, read at a free position."""
    m = len(rows)
    t = [[row[j] % p for row in rows] for j in range(len(rows[0]))]
    piv = []              # row r of t has its leading 1 at piv[r]
    for k in range(m):
        r = len(piv)
        i = next((i for i in range(r, len(t)) if t[i][k]), None)
        if i is None:
            continue
        t[r], t[i] = t[i], t[r]
        inv = pow(t[r][k], -1, p)
        t[r] = [x * inv % p for x in t[r]]
        for i, row in enumerate(t):
            if i != r and row[k]:
                t[i] = [(x - row[k] * y) % p for x, y in zip(row, t[r])]
        piv.append(k)
    free = next((k for k in range(m) if k not in piv), None)
    if free is None:
        return None
    y = [0] * m
    y[free] = 1
    for row, k in zip(t, piv):
        y[k] = -row[free] % p
    return y


def _in_span(name):
    """The module Z^rows / A of a corpus input and a column in A's span."""
    rows = stall_corpus()[name]
    a = Matrix.from_rows(ZZ, rows)
    rng = random.Random(f"span {name}")
    x = Matrix(ZZ, a.cols, 1, [rng.randint(-3, 3) for _ in range(a.cols)])
    return rows, FPModule(ZZ, a.rows, a), a @ x


@pytest.mark.parametrize("name", ["40x40", "38x38", "stall:38:6", "stall:38:9"])
def test_membership_finishes_on_the_square_inputs(name):
    """One column in the span and one outside it, 2 s ceiling (about
    0.012 s for both on a 2 vCPU VM).  The outside column is the inside
    one plus e_j, certified by a prime p and a y with y A = 0 mod p and
    y_j != 0, so that y v = y_j != 0 mod p."""
    rows, m, inside = _in_span(name)
    p, y = next((p, y) for p in PRIMES
                if (y := _left_null_mod(rows, p)) is not None)
    assert all(sum(yi * row[k] for yi, row in zip(y, rows)) % p == 0
               for k in range(len(rows[0])))
    j = next(j for j, yj in enumerate(y) if yj)
    outside = Matrix(ZZ, len(rows), 1, [
        r[0] + (i == j) for i, r in enumerate(inside.tolists())])
    assert under_alarm(2, f"membership on {name}",
                       lambda: (m.contains(inside), m.contains(outside))
                       ) == (True, False)


def test_membership_finishes_on_the_wide_input():
    """The 32x65 input's rows stay independent mod every prime below 50,
    so no column is certified outside; 2 s ceiling (about 0.005 s)."""
    rows, m, inside = _in_span("32x65")
    assert all(_left_null_mod(rows, p) is None for p in PRIMES)
    assert under_alarm(2, "membership on 32x65", lambda: m.contains(inside))


def test_left_null_vector_reference():
    assert _left_null_mod([[1, 2], [2, 4], [0, 1]], 5) == [3, 1, 0]
    assert _left_null_mod([[1, 0], [0, 1]], 3) is None


def test_z12_invariant_factors_control():
    """Over Z/12 no input stalls; 2 s ceiling (about 0.004 s)."""
    r12 = RingSpec.Zmod(12)
    m = FPModule(r12, 40, Matrix.from_rows(r12, stall_corpus()["40x40"]))
    assert under_alarm(2, "Z/12 invariant factors",
                       lambda: invariant_factors(m)) == [2]


def test_twohom_snf_of_a_34x34_input_exits_with_the_digit_limit(
        tmp_path, capsys):
    """U and V pass the int/str digit limit although D is small, so the
    command exits 1 with its documented message; 5 s ceiling (about
    0.22 s).  A D-only report would let it exit 0."""
    p = tmp_path / "d34.json"
    p.write_text(json.dumps({"format": 1, "ring": {"kind": "Z"}, "objects": {
        "A": {"type": "matrix", "entries": _dense(34, 34, 34, 9)}}}))
    code = under_alarm(5, "twohom snf on 34x34",
                       lambda: cli.main(["snf", str(p), "A"]))
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == ("error: snf: the report holds an integer over the limit "
                   f"of {sys.get_int_max_str_digits()} digits\n")
