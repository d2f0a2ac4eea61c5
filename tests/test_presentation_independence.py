"""Derived answers do not depend on the presentation of their input.

A seeded re-presentation multiplies M0's generators by a unimodular P, the
relations by a unimodular Q and M1's generators by a unimodular R, so that
rel' = P rel Q and d' = P d R, and appends one relation that is a
combination of the others.  The result is isomorphic to the input (an
integer unimodular matrix is invertible mod n too), so the pi-profiles of
L_0..L_2 must be equal.  ``free_cover`` keeps the generators that no unit
pivot of pi0's relations solves for, so which generators it keeps depends
on their order and on the relations; this test guards that the answers do
not.  Each query runs under an alarm, so a presentation that stalls an
elimination fails the test instead of hanging it.
"""

import random
import signal

import pytest

from test_complex2 import derive_input
from twohom.derived import FunctorSpec, derived_complex
from twohom.exactlin import Matrix, RingSpec, ZZ, det, hstack
from twohom.fpmod import FPModule, ModMor
from twohom.twomod import TwoModule

QUERY_LIMIT_S = 10
CASES = [(ZZ, 6), (RingSpec.Zmod(12), 4)]


def unimodular(rng, size):
    """A seeded integer size x size matrix of determinant +-1: the identity
    under row additions with multipliers in [-2, 2], then shuffled rows
    and sign changes."""
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(2 * size if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        k = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in rows]


def represent(m, rng):
    """m re-presented by d' = P d R and rel' = P rel Q, with one redundant
    relation appended."""
    ring, g, r, h = m.ring, m.M0.gens, m.M0.rel.cols, m.M1.gens
    P, Q, R = (Matrix(ring, k, k, sum(unimodular(rng, k), []))
               for k in (g, r, h))
    rel = P @ m.M0.rel @ Q
    extra = rel @ Matrix(ring, r, 1, [rng.randint(-2, 2) for _ in range(r)])
    m0, m1 = FPModule(ring, g, hstack([rel, extra])), FPModule.free(ring, h)
    return TwoModule(m1, m0, ModMor(m1, m0, P @ m.d.mat @ R))


def profiles(t, m):
    """The pi-profiles of L_0..L_2 at depth 4, under the alarm."""
    def too_slow(signum, frame):
        raise TimeoutError(f"a derive query took over {QUERY_LIMIT_S} s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(QUERY_LIMIT_S)
    try:
        _, tc = derived_complex(t, m, 2, 4)
        return [tc.homology(i).pi for i in range(3)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_unimodular_has_determinant_plus_or_minus_one():
    rng = random.Random("unimodular")
    for size in range(5):
        u = Matrix(ZZ, size, size, sum(unimodular(rng, size), []))
        assert det(u) in (1, -1)


@pytest.mark.parametrize("ring, k", CASES, ids=[str(c[0]) for c in CASES])
def test_derived_profiles_do_not_depend_on_the_presentation(ring, k):
    rng = random.Random(f"re-present {ring}")
    t = FunctorSpec.tensor_with(FPModule.cyclic(ring, k))
    for g in range(5, 15):
        m = derive_input(rng, ring, g)
        want = profiles(t, m)
        for _ in range(3):
            assert profiles(t, represent(m, rng)) == want, g
