"""Derived answers do not depend on the presentation of their input.

A seeded re-presentation multiplies M0's generators by a unimodular P, the
relations by a unimodular Q and M1's generators by a unimodular R, so that
rel' = P rel Q and d' = P d R, and appends one relation that is a
combination of the others.  The result is isomorphic to the input (an
integer unimodular matrix is invertible mod n too), so the pi-profiles of
L_0..L_2 must be equal.  ``resolve``'s cover keeps the generators that no
unit pivot of pi0's relations solves for, so which generators it keeps
depends on their order and on the relations; this test guards that the
answers do not.  The catalog's 2-modules, over Z and Z/12, are re-presented after a
redundant generator is added, killed by a relation, and the catalog's
extension over Z is carried along the isomorphisms, so that its long
sequence must keep its entries' pi-profiles and its exactness verdict.
Over both rings, the extensions of the catalog and of the cli-small
workspace are carried the same way, and must keep the pi-profiles of
their relative kernel and cokernel and their ``check extension`` verdict;
the catalog's complexes are carried module by module, and must keep the
pi-profiles of their homology.  Each query runs under an alarm, so a
presentation that stalls an elimination fails the test instead of hanging
it.
"""

import json
import random
import signal
from pathlib import Path

import pytest

from test_complex2 import derive_input
from twohom.cli import load_doc
from twohom.complex2 import Complex2, validate_complex
from twohom.derived import (FunctorSpec, check_long_sequence, derived_complex,
                            long_sequence)
from twohom.exactlin import (Matrix, RingSpec, ZZ, det, hstack, solve_many,
                             vstack)
from twohom.fpmod import FPModule, ModMor, equal_mor
from twohom.twomod import (OneMor, TwoModule, compose, is_extension,
                            null_homotopy, pi_profile, relative_cokernel,
                            relative_kernel)

QUERY_LIMIT_S = 10
CASES = [(ZZ, 6), (RingSpec.Zmod(12), 4)]
CATALOG = Path(__file__).resolve().parents[1] / "catalog.json"
CLI_SMALL = Path(__file__).with_name("cli_small_workspace.json")
CATALOG_RINGS = [None, {"kind": "Zmod", "n": 12}]


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


def represent_iso(m, rng):
    """m with a redundant generator g' = c . gens, killed by the relation
    (c, -1), then re-presented as by ``represent``; with the strict
    isomorphism f: m -> m' and its inverse g, each as its pair (f1, f0)."""
    ring, g, r, h = m.ring, m.M0.gens, m.M0.rel.cols, m.M1.gens
    c = [rng.randint(-2, 2) for _ in range(g)]
    rel = hstack([vstack([m.M0.rel, Matrix.zeros(ring, 1, r)]),
                  Matrix(ring, g + 1, 1, c + [-1])])
    d = vstack([m.d.mat, Matrix.zeros(ring, 1, h)])
    P, Q, R = (unimodular(rng, k) for k in (g + 1, r + 1, h))
    Pm, Qm, Rm = (Matrix(ring, len(u), len(u), sum(u, [])) for u in (P, Q, R))
    rel = Pm @ rel @ Qm
    extra = rel @ Matrix(ring, r + 1, 1, [rng.randint(-2, 2) for _ in range(r + 1)])
    m0, m1 = FPModule(ring, g + 1, hstack([rel, extra])), FPModule.free(ring, h)
    rep = TwoModule(m1, m0, ModMor(m1, m0, Pm @ d @ Rm))
    up = vstack([Matrix.identity(ring, g), Matrix.zeros(ring, 1, g)])
    down = hstack([Matrix.identity(ring, g), Matrix(ring, g, 1, c)])
    return rep, (inverse(ring, R), Pm @ up), (Rm, down @ inverse(ring, P))


def inverse(ring, rows):
    """The inverse over ring of the integer unimodular matrix rows."""
    k = len(rows)
    inv = solve_many(Matrix(ZZ, k, k, sum(rows, [])), Matrix.identity(ZZ, k))
    return Matrix(ring, k, k, sum(inv.tolists(), []))


def carry_extension(ext, isos):
    """The extension (F, phi, G) of A -> B -> C carried along the
    isomorphisms of isos, keyed by the objects: F' = f_B F g_A, G' = f_C G
    g_B and phi' = f_C.f1 phi g_A.f0, each checked."""
    F, phi, G = ext

    def carry(h):
        (a, _, g), (b, f, _) = isos[id(h.src)], isos[id(h.dst)]
        return OneMor(a, b, ModMor(a.M1, b.M1, f[0] @ h.f1.mat @ g[0]),
                      ModMor(a.M0, b.M0, f[1] @ h.f0.mat @ g[1]))

    F2, G2 = carry(F), carry(G)
    (a, _, g_a), (c, f_c, _) = isos[id(F.src)], isos[id(G.dst)]
    return F2, null_homotopy(compose(F2, G2), ModMor(
        a.M0, c.M1, f_c[0] @ phi.s.mat @ g_a[1])), G2


def carry_complex(c, rng):
    """The complex c with each module re-presented by ``represent_iso``,
    its differentials L'_n = f_{n-1} L_n g_n and its cells' maps
    f_{n-2}.f1 alpha_n g_n.f0 carried along."""
    isos = [represent_iso(m, rng) for m in c.modules]
    diffs = []
    for n, L in enumerate(c.diffs, start=1):
        (a, _, g), (b, f, _) = isos[n], isos[n - 1]
        diffs.append(OneMor(a, b, ModMor(a.M1, b.M1, f[0] @ L.f1.mat @ g[0]),
                            ModMor(a.M0, b.M0, f[1] @ L.f0.mat @ g[1])))
    alphas = {n: ModMor(isos[n][0].M0, isos[n - 2][0].M1,
                        isos[n - 2][1][0] @ s.mat @ isos[n][2][1])
              for n, s in c.alphas.items()}
    return Complex2(c.ring, [rep for rep, _, _ in isos], diffs, alphas)


def under_alarm(what, run):
    """run(), which fails with a TimeoutError after QUERY_LIMIT_S."""
    def too_slow(signum, frame):
        raise TimeoutError(f"a {what} query took over {QUERY_LIMIT_S} s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(QUERY_LIMIT_S)
    try:
        return run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def profiles(t, m):
    """The pi-profiles of L_0..L_2 at depth 4, the guarded depth of a
    ``derive`` table of those degrees, under the alarm."""
    def run():
        _, tc = derived_complex(t, m, 2, 4)
        return [tc.homology(i).pi for i in range(3)]
    return under_alarm("derive", run)


def longseq(t, ext, depth):
    """The entries' pi-profiles and the exactness verdict of the long
    sequence of ext at depth, under the alarm."""
    def run():
        seq = long_sequence(t, *ext, depth)
        return ([(e.label, e.degree, e.homology.pi) for e in seq.entries],
                check_long_sequence(seq))
    return under_alarm("longseq", run)


def relative_profiles(ext):
    """The pi-profiles of the relative kernel and the relative cokernel of
    the extension ext, and its ``check extension`` verdict, under the
    alarm."""
    def run():
        return (pi_profile(relative_kernel(*ext).K),
                pi_profile(relative_cokernel(*ext).Q), is_extension(*ext))
    return under_alarm("relative (co)kernel", run)


def homology_profiles(c):
    """The pi-profiles of the homology of c in degrees 0..length + 1,
    under the alarm."""
    return under_alarm("homology", lambda: [
        c.homology(n).pi for n in range(c.length + 2)])


def catalog(ring_doc, path=CATALOG):
    """The document at path (the catalog) loaded over its ring or the ring
    of ring_doc, and the names of its objects of a kind."""
    doc = json.loads(path.read_text())
    if ring_doc is not None:
        doc["ring"] = ring_doc
    objs = doc["objects"]
    return load_doc(doc), lambda kind: sorted(
        k for k, v in objs.items() if v["type"] == kind)


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


@pytest.mark.parametrize("ring_doc", CATALOG_RINGS, ids=["Z", "Z/12"])
def test_represent_iso_gives_strict_inverse_isomorphisms(ring_doc):
    ws, of = catalog(ring_doc)
    rng = random.Random(f"isomorphisms {ring_doc}")
    for m in map(ws.get, of("twomodule")):
        rep, f, g = represent_iso(m, rng)
        there = OneMor(m, rep, ModMor(m.M1, rep.M1, f[0]),
                       ModMor(m.M0, rep.M0, f[1]))
        back = OneMor(rep, m, ModMor(rep.M1, m.M1, g[0]),
                      ModMor(rep.M0, m.M0, g[1]))
        for h in (compose(there, back), compose(back, there)):
            assert equal_mor(h.f1, ModMor.identity(h.src.M1))
            assert equal_mor(h.f0, ModMor.identity(h.src.M0))


@pytest.mark.parametrize("ring_doc", CATALOG_RINGS, ids=["Z", "Z/12"])
def test_catalog_derive_tables_do_not_depend_on_the_presentation(ring_doc):
    ws, of = catalog(ring_doc)
    rng = random.Random(f"re-present the catalog {ring_doc}")
    for name in of("twomodule"):
        m = ws.get(name)
        reps = [represent_iso(m, rng)[0] for _ in range(3)]
        for t in map(ws.get, of("functor")):
            want = profiles(t, m)
            for rep in reps:
                assert profiles(t, rep) == want, name


def test_catalog_long_sequence_does_not_depend_on_the_presentation():
    """Over Z: over Z/12 the catalog's F = 2 is no extension's first map."""
    ws, of = catalog(None)
    rng = random.Random("re-present the catalog extension")
    for name in of("extension"):
        ext = ws.get(name)
        ends = {id(m): m for h in (ext[0], ext[2]) for m in (h.src, h.dst)}
        for _ in range(3):
            isos = {k: represent_iso(m, rng) for k, m in ends.items()}
            carried = carry_extension(ext, isos)
            for t in map(ws.get, of("functor")):
                for depth in (1, 2):
                    want = longseq(t, ext, depth)
                    assert want[1]
                    assert longseq(t, carried, depth) == want, (name, depth)


@pytest.mark.parametrize("ring_doc", CATALOG_RINGS, ids=["Z", "Z/12"])
@pytest.mark.parametrize("path", [CATALOG, CLI_SMALL], ids=["catalog", "cli-small"])
def test_relative_kernels_and_cokernels_do_not_depend_on_the_presentation(
        path, ring_doc):
    """Also the ``check extension`` verdict: over Z/12 the catalog's is
    false, as its F = 2 is no longer faithful."""
    ws, of = catalog(ring_doc, path)
    rng = random.Random(f"re-present the extensions of {path.name} {ring_doc}")
    verdicts = set()
    for name in of("extension"):
        ext = ws.get(name)
        want = relative_profiles(ext)
        verdicts.add(want[2])
        ends = {id(m): m for h in (ext[0], ext[2]) for m in (h.src, h.dst)}
        for _ in range(3):
            isos = {k: represent_iso(m, rng) for k, m in ends.items()}
            assert relative_profiles(carry_extension(ext, isos)) == want, name
    assert verdicts == ({False} if path == CATALOG and ring_doc else {True})


@pytest.mark.parametrize("ring_doc", CATALOG_RINGS, ids=["Z", "Z/12"])
def test_catalog_homology_does_not_depend_on_the_presentation(ring_doc):
    ws, of = catalog(ring_doc)
    rng = random.Random(f"re-present the catalog complexes {ring_doc}")
    for name in of("complex"):
        c = ws.get(name)
        want = homology_profiles(c)
        for _ in range(3):
            carried = carry_complex(c, rng)
            assert validate_complex(carried)[0], name
            assert homology_profiles(carried) == want, name
