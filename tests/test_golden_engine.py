"""Pinned elimination engine: ``snf`` (D, U, V), ``hnf`` (H),
``kernel_basis`` and ``solve_many`` on seeded matrices over Z, Z/6, Z/8,
Z/9 and Z/12 must give the same entries, in the same order, as when
``golden_engine.json`` was written.

``golden_engine.json`` holds the number of cases and one sha256 over every
output.  Shapes run up to 9x9 and include 0x0, 0xk, kx0 and all-zero
inputs.  A second sha256, ``kernel_sha256``, covers the Hermite bases of
the untransformed echelon pass on the same cases: ``preimage_basis(A, B)``,
which runs the remainder steps over Z and the Howell rows over Z/n before
its Hermite pass, and ``column_basis(A)``.  Regenerate it, only when an engine output is meant to change,
from the repository root with

    PYTHONPATH=src python tests/test_golden_engine.py

and say in the change description which outputs changed and why.

The same inputs also check the memo: every ``want`` of ``snf`` returns the full call's matrices in any order of requests, a wider
request replays the logged elimination instead of eliminating again, and
solving and kernels build neither transform.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from twohom import exactlin
from twohom.exactlin import (ZZ, Matrix, RingSpec, column_basis, hnf,
                             kernel_basis, preimage_basis, snf, solve_many)

GOLDEN = Path(__file__).with_name("golden_engine.json")
RINGS = [ZZ, *(RingSpec.Zmod(n) for n in (6, 8, 9, 12))]
EMPTY_SHAPES = [(0, 0), (0, 1), (0, 5), (1, 0), (5, 0), (9, 0), (0, 9)]


def _entry(rng, ring):
    """Small entries over Z; over Z/n a multiple of a divisor of n, so
    that torsion in the Smith form is common."""
    if not ring.is_modular:
        return rng.randint(-9, 9)
    n = ring.n
    return rng.randrange(0, n, rng.choice([g for g in range(1, n) if n % g == 0]))


def cases(seed=20261018, per_ring=200):
    """(A, B) pairs: every empty shape and an all-zero matrix per ring,
    then random matrices, sparse ones and products of a thin pair
    (low rank).  B is A times a random matrix or random, so both
    solvable and unsolvable systems occur."""
    rng = random.Random(seed)
    out = []
    for ring in RINGS:
        shapes = EMPTY_SHAPES + [(rng.randint(1, 9), rng.randint(1, 9))]
        mats = [Matrix.zeros(ring, r, c) for r, c in shapes]
        for k in range(per_ring):
            r, c = rng.randint(1, 9), rng.randint(1, 9)
            kind = k % 3
            if kind == 0:
                vals = [_entry(rng, ring) for _ in range(r * c)]
            elif kind == 1:
                vals = [_entry(rng, ring) if rng.random() < 0.3 else 0
                        for _ in range(r * c)]
            else:
                w = rng.randint(1, 3)
                left = Matrix(ring, r, w, [_entry(rng, ring) for _ in range(r * w)])
                right = Matrix(ring, w, c, [_entry(rng, ring) for _ in range(w * c)])
                vals = (left @ right).arr.flat
            mats.append(Matrix(ring, r, c, list(vals)))
        for a in mats:
            k = rng.randint(0, 3)
            if rng.random() < 0.5:
                x = Matrix(ring, a.cols, k, [_entry(rng, ring)
                                             for _ in range(a.cols * k)])
                b = a @ x
            else:
                b = Matrix(ring, a.rows, k, [_entry(rng, ring)
                                             for _ in range(a.rows * k)])
            out.append((a, b))
    return out


def _feed(h, m):
    h.update(f"{m.rows}x{m.cols}:{m.tolists()};".encode())


def engine_digest():
    """(number of cases, sha256 of every engine output in case order)."""
    h = hashlib.sha256()
    todo = cases()
    for a, b in todo:
        h.update(f"{a.ring}|".encode())
        for m in (*snf(a), hnf(a), kernel_basis(a)):
            _feed(h, m)
        x = solve_many(a, b)
        if x is None:
            h.update(b"none;")
        else:
            _feed(h, x)
    return len(todo), h.hexdigest()


def kernel_digest():
    """sha256 of ``preimage_basis(a, b)`` and ``column_basis(a)`` on every
    case, in case order."""
    h = hashlib.sha256()
    for a, b in cases():
        h.update(f"{a.ring}|".encode())
        _feed(h, preimage_basis(a, b))
        _feed(h, column_basis(a))
    return h.hexdigest()


def test_engine_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    count, sha = engine_digest()
    assert count == golden["cases"]
    assert sha == golden["sha256"]


def test_kernel_bases_match_golden():
    assert kernel_digest() == json.loads(GOLDEN.read_text())["kernel_sha256"]


def _fresh(a):
    """A copy of a with an empty memo, so that it is eliminated anew."""
    return Matrix(a.ring, a.rows, a.cols, a.arr)


FORMS = [(snf, "DUV", ["D", "DV", "DUV"])]


@pytest.mark.parametrize("fn, full, wants", FORMS, ids=["snf"])
def test_every_want_returns_the_full_call_matrices(fn, full, wants):
    """Each want, asked alone, narrow first then wide, or wide first then
    narrow, each time on a fresh copy, returns the matrices of the full
    call, in the order that want names them."""
    for a, _ in cases():
        named = dict(zip(full, fn(_fresh(a))))
        for seq in [[w] for w in wants] + [wants, wants[::-1]]:
            b = _fresh(a)
            for want in seq:
                assert fn(b, want) == tuple(named[k] for k in want)


@pytest.mark.parametrize("fn, full, wants", FORMS, ids=["snf"])
def test_a_wider_request_replays_and_never_eliminates_again(
        fn, full, wants, monkeypatch):
    """Narrow then wide runs the pivot search exactly as often as one full
    call, and keeps the memo object: the wider result is replayed from the
    log, not eliminated a second time."""
    calls = []
    pivot = exactlin._pivot
    monkeypatch.setattr(exactlin, "_pivot",
                        lambda *args: calls.append(1) or pivot(*args))
    for a, _ in cases():
        fn(_fresh(a))
        once = len(calls)
        b = _fresh(a)
        fn(b, wants[0])
        kept = b._snf
        for want in wants[1:]:
            fn(b, want)
        assert len(calls) == 2 * once
        assert b._snf is kept
        calls.clear()


def test_solving_and_kernels_build_no_transform(monkeypatch):
    """solve_many and kernel_basis apply the logs and leave U and V unbuilt.
    A later request for both builds them from the same log, equal to a full
    call on a fresh copy, without running the pivot search again."""
    calls = []
    pivot = exactlin._pivot
    monkeypatch.setattr(exactlin, "_pivot",
                        lambda *args: calls.append(1) or pivot(*args))
    for a, b in cases():
        full = snf(_fresh(a))
        once = len(calls)
        c = _fresh(a)
        solve_many(c, b)
        kernel_basis(c)
        assert "U" not in c._snf and "V" not in c._snf
        assert snf(c, "UV") == full[1:]
        assert len(calls) == 2 * once
        calls.clear()


def test_want_names_only_the_forms():
    a = Matrix.from_rows(ZZ, [[2, 4], [6, 8]])
    assert len(snf(a, "D")) == 1 and snf(a, "") == ()
    for bad in ("H", "d", "DW"):
        with pytest.raises(ValueError):
            snf(a, bad)


if __name__ == "__main__":
    count, sha = engine_digest()
    GOLDEN.write_text(json.dumps({"cases": count, "sha256": sha,
                                  "kernel_sha256": kernel_digest()},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote the digest of {count} cases to {GOLDEN}")
