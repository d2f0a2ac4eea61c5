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

Over a prime p of n the ring is a field, so every answer is a vector space
read off ranks, which a Gaussian elimination mod p in this file computes
with no code of the library's.
"""

import random
import signal
from math import prod
from operator import mul

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


def rank_mod(p, rows):
    """The rank over Z/p of a list of integer rows, by Gaussian elimination
    on copies reduced mod p."""
    rows, rank = [[x % p for x in row] for row in rows], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_mod():
    assert rank_mod(2, [[1, 1], [1, 1]]) == 1
    assert rank_mod(3, [[3, 6], [0, 0]]) == 0
    assert rank_mod(5, [[1, 2], [3, 4]]) == 2
    assert rank_mod(2, [[1, 2], [3, 4]]) == 1
    assert rank_mod(7, []) == 0


PRIMES = [(p, n, coeff) for n, _, coeff in RINGS
          for p in (2, 3, 5) if n % p == 0]


@pytest.mark.parametrize("p, n, coeff", PRIMES,
                         ids=[f"Z/{p} of Z/{n}" for p, n, _ in PRIMES])
def test_answers_over_a_prime_are_dimensions(p, n, coeff):
    """Over Z/p, M is d: (Z/p)^h -> (Z/p)^g / rel, so pi_0(M) has dimension
    a = g - rank[rel | d] and pi_1(M), the y with d y in the span of rel,
    b = h - rank[rel | d] + rank(rel).  N = Z/coeff is Z/p when p divides
    coeff, and then - (x) N is the identity: L_0 = pi(M), L_1 has pi_0 of
    dimension b and L_2 = 0.  Otherwise N = 0 and every L_i = 0."""
    zero = ([], [])
    for raw in raw_inputs(n):
        g, r, h, rel, d = raw
        rel_rows = [rel[i * r:(i + 1) * r] for i in range(g)]
        both = rank_mod(p, [x + d[i * h:(i + 1) * h]
                            for i, x in enumerate(rel_rows)])
        a, b = g - both, h - both + rank_mod(p, rel_rows)
        pi = ([p] * a, [p] * b)
        want = ([pi, pi, ([p] * b, []), zero] if coeff % p == 0
                else [pi, zero, zero, zero])
        assert answer(p, coeff, raw) == want, f"g = {g}"


def inputs_with_relations(p):
    """(g0, rel0, g1, rel1, d) per size in the derive shapes, where M1 has
    up to g1/2 relations rel1 too; the columns d rel1 close rel0, so that
    d carries relations into relations."""
    rng = random.Random(f"rank oracle {p}")
    out = []
    for g0 in SIZES:
        r0, g1 = g0 // 2 + rng.randint(-1, 1), g0 // 2 + rng.randint(-1, 1)
        r1 = rng.randint(0, g1 // 2)
        rel1 = [[rng.randint(-4, 4) for _ in range(r1)] for _ in range(g1)]
        d = [[rng.randint(-4, 4) for _ in range(g1)] for _ in range(g0)]
        rel0 = [[rng.randint(-4, 4) for _ in range(r0)]
                + [sum(map(mul, row, col)) for col in zip(*rel1)]
                for row in d]
        out.append((g0, rel0, g1, rel1, d))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pi_over_a_prime_has_the_rank_dimensions(p):
    """Over Z/p, pi_0(M) is the cokernel of d: M1 -> M0 and pi_1(M) its
    kernel, vector spaces of dimensions g0 - rank[rel0 | d] and
    (g1 - rank rel1) - (rank[rel0 | d] - rank rel0), read off
    ``rank_mod``; here M1 has relations, which the derive inputs above
    leave out."""
    ring = RingSpec.Zmod(p)

    def module(g, rows):
        return FPModule(ring, g, Matrix(ring, g, len(rows[0]), sum(rows, [])))

    for g0, rel0, g1, rel1, d in inputs_with_relations(p):
        m0, m1 = module(g0, rel0), module(g1, rel1)
        m = TwoModule(m1, m0, ModMor(m1, m0, Matrix(ring, g0, g1, sum(d, []))))
        both = rank_mod(p, [x + y for x, y in zip(rel0, d)])
        a = g0 - both
        b = (g1 - rank_mod(p, rel1)) - (both - rank_mod(p, rel0))
        assert pi_profile(m) == ([p] * a, [p] * b), f"g0 = {g0}"
