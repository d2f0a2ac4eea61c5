"""Every Z/n answer splits by the Chinese remainder theorem.

Z/n is the product of the rings Z/p^k over the prime powers p^k || n, and
a Z/n-module is the sum of its reductions.  So each invariant factor d of
an answer over Z/n becomes gcd(d, p^k) over Z/p^k, with the 1s dropped,
and the Z/n answer is the merge of the prime-power answers.  The inputs are
derive inputs in the benchmark's shapes (g = 8..19, one of each) and the
discrete Z/6, over Z/12, Z/36 and Z/30, with the same integer data over
every ring; the functor's module reduces the same way, so (Z/12)/4 is Z/4
over Z/4 and 0 over Z/3.  Each answer is pi(M) and the pi-profiles of L_0..L_2, read through
``derived_complex(t, m, 2, 4)``, the depth the library guards.  The
Howell rows of the Z/n echelon pass carry this: without them the Z/12
answers stop matching the Z/4 and Z/3 ones.
"""

import random
import signal
from math import prod

import pytest

from twohom import FPModule, FunctorSpec, Matrix, ModMor, RingSpec, TwoModule
from twohom import pi_profile
from twohom.derived import derived_complex

QUERY_LIMIT_S = 2
SIZES = range(8, 20)
# (n, its prime powers, the order of the cyclic module N in - (x) N)
RINGS = [(12, (4, 3), 4), (36, (4, 9), 6), (30, (2, 3, 5), 6)]


def raw_inputs(n):
    """(g, r, h, rel, d) per size, drawn as the derive workloads draw
    theirs: about g/2 relations and M1 of rank about g/2, entries in
    [-4, 4].  Their L_2 is zero, so the discrete Z/6 closes the list: over
    Z/36 its L_2 is Tor_2(Z/6, Z/6), with a part over Z/4 and one over
    Z/9 (Z/12's N = Z/4 and every Z/30-module are projective)."""
    rng = random.Random(f"crt split {n}")
    out = []
    for g in SIZES:
        r, h = g // 2 + rng.randint(-1, 1), g // 2 + rng.randint(-1, 1)
        rel = [rng.randint(-4, 4) for _ in range(g * r)]
        d = [rng.randint(-4, 4) for _ in range(g * h)]
        out.append((g, r, h, rel, d))
    return out + [(1, 1, 0, [6], [])]


def answer(modulus, coeff, raw):
    """pi(M) and the pi-profiles of L_0..L_2 of - (x) Z/coeff over
    Z/modulus, under an alarm."""
    g, r, h, rel, d = raw
    ring = RingSpec.Zmod(modulus)
    m0, m1 = FPModule(ring, g, Matrix(ring, g, r, rel)), FPModule.free(ring, h)
    m = TwoModule(m1, m0, ModMor(m1, m0, Matrix(ring, g, h, d)))
    t = FunctorSpec.tensor_with(FPModule.cyclic(ring, coeff))

    def too_slow(signum, frame):
        raise TimeoutError(f"a derive query over Z/{modulus} at g = {g} "
                           f"took over {QUERY_LIMIT_S} s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(QUERY_LIMIT_S)
    try:
        _, tc = derived_complex(t, m, 2, 4)
        return [pi_profile(m)] + [tc.homology(i).pi for i in range(3)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def merge(parts):
    """The invariant factors whose prime-power parts are the given lists:
    the largest factors of each part multiply together, and so on down."""
    desc = [sorted(p, reverse=True) for p in parts]
    return sorted(prod(p[i] for p in desc if i < len(p))
                  for i in range(max(map(len, desc), default=0)))


def test_merge():
    assert merge([[2, 4], [3]]) == [2, 12]
    assert merge([[], [3, 9]]) == [3, 9]
    assert merge([[], []]) == []


@pytest.mark.parametrize("n, powers, coeff", RINGS,
                         ids=[f"Z/{n}" for n, _, _ in RINGS])
def test_answers_split_over_the_prime_powers(n, powers, coeff):
    for raw in raw_inputs(n):
        whole = answer(n, coeff, raw)
        parts = [answer(q, coeff, raw) for q in powers]
        for k, profile in enumerate(whole):
            assert profile == tuple(merge([p[k][deg] for p in parts])
                                    for deg in range(2)), (
                f"g = {raw[0]}", ["pi(M)", "L_0", "L_1", "L_2"][k])
