"""The endpoint, ring and shape checks of the value layer.

Each check tests identity before structural equality, so these tests pin
both of its branches: a wrong endpoint, ring or shape still raises, and
endpoints that are distinct objects but equal are still accepted.  The
catalog builds fresh objects on every call, so two calls give such twins.
Row slices share their row tuples, as matrices are immutable, a stack of
one block equals that block, and an hstack of one block is that block.
"""

import pytest

from twohom import catalog
from twohom.complex2 import Complex2
from twohom.exactlin import (
    DimensionMismatch,
    Matrix,
    RingSpec,
    ZZ,
    hstack,
    kron,
    preimage_basis,
    solve_many,
    vstack,
)
from twohom.fpmod import (
    FPModule,
    ModMor,
    compose as mcompose,
    equal_mor,
    factor_through,
    is_exact_at,
    sum_module,
    tensor,
)
from twohom.resolution import (ResolutionError, compare, horseshoe,
                               lift_through, resolve)
from twohom.twomod import (
    OneMor,
    TwoModule,
    TwoMor,
    biproduct,
    compose,
    one_mor_equal,
    rc_factorize,
    relative_cokernel,
    relative_kernel,
    rk_factorize,
    whisker_left,
    whisker_right,
)

Z4 = RingSpec.Zmod(4)


def m(rows, ring=ZZ):
    return Matrix.from_rows(ring, rows)


def z(rank=1, ring=ZZ):
    return FPModule.free(ring, rank)


def z2():
    return FPModule.cyclic(ZZ, 2)


def test_twins_are_equal_and_distinct():
    assert RingSpec.Z() == ZZ and RingSpec.Z() is not ZZ
    assert z2() == z2() and z2() is not z2()
    a, b = catalog.z_free(), catalog.z_free()
    assert a == b and a is not b


# ---------------------------------------------------------------------------
# one-block stacks and row slices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stack", [hstack, vstack])
def test_a_stack_of_one_block_equals_that_block(stack):
    a = m([[1, 2], [3, 4]])
    assert stack([a]) == a
    assert stack(iter([a])) == a
    if stack is hstack:     # and keeps the block's memos
        assert hstack([a]) is a and hstack(iter([a])) is a


@pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(6)], ids=str)
def test_a_row_slice_equals_its_copied_form(ring):
    a = Matrix(ring, 4, 3, range(-5, 7))
    for lo in range(5):
        for hi in range(lo, 5):
            s = a[lo:hi]
            copy = Matrix(ring, hi - lo, 3, [x for r in a.tolists()[lo:hi] for x in r])
            assert s == copy and hash(s) == hash(copy)
            assert s.shape == (hi - lo, 3)
    # a slice of a matrix with no columns keeps its rows
    e = Matrix.zeros(ring, 3, 0)
    assert e[1:3] == Matrix.zeros(ring, 2, 0)
    # a slice shares the rows; the matrix and the slice keep their own memo
    assert a[1:3].entry(0, 2) == a.entry(1, 2)


def test_stacks_equal_their_copied_forms():
    a, b = m([[1, 2], [3, 4]]), m([[5], [6]])
    assert hstack([a, b]) == m([[1, 2, 5], [3, 4, 6]])
    assert vstack([a, m([[7, 8]])]) == m([[1, 2], [3, 4], [7, 8]])
    zeros = Matrix.zeros
    assert hstack([zeros(ZZ, 0, 2), zeros(ZZ, 0, 3)]) == zeros(ZZ, 0, 5)
    assert vstack([zeros(ZZ, 2, 0), zeros(ZZ, 1, 0)]) == zeros(ZZ, 3, 0)


# ---------------------------------------------------------------------------
# the checks: (accept with equal twins, reject a wrong endpoint/ring/shape)
# ---------------------------------------------------------------------------

def _ext():
    return catalog.catalog_extension()


def _twomod_accept():
    a, b = catalog.z_mod(2), catalog.z_mod(2)
    return TwoModule(a.M1, a.M0, ModMor(b.M1, b.M0, b.d.mat))


def _twomod_reject():
    a = catalog.z_mod(2)
    return TwoModule(a.M0, a.M0, a.d)


def _onemor(f1_from, f0_from):
    x = catalog.z_mod(2)
    return OneMor(x, x, ModMor.identity(f1_from(x)), ModMor.identity(f0_from(x)))


def _onemor_accept():
    x, y = catalog.z_mod(2), catalog.z_mod(2)
    return OneMor(x, x, ModMor.identity(y.M1), ModMor.identity(y.M0))


def _twomor_accept():
    f, g = catalog.times_two(), catalog.times_two()
    return TwoMor(f, f, ModMor.zero(g.src.M0, g.dst.M1))


def _twomor_reject():
    f = catalog.times_two()
    return TwoMor(f, f, ModMor.zero(f.dst.M1, f.src.M0))


def _rk(twin):
    res = relative_kernel(*_ext())
    if twin:
        other = relative_kernel(*_ext())
        return rk_factorize(res, other.e, other.eps)
    return rk_factorize(res, OneMor.identity(catalog.z_mod(2)), None)


def _rc(twin):
    res = relative_cokernel(*_ext())
    if twin:
        other = relative_cokernel(*_ext())
        return rc_factorize(res, other.p, other.pi)
    return rc_factorize(res, OneMor.identity(catalog.z_free()), None)


def _complex(modules):
    f = catalog.times_two()
    return Complex2(ZZ, modules(f), [f])


def _lift(twin):
    r1 = resolve(catalog.z_mod(2), 1)
    r2 = resolve(catalog.z_mod(2), 1)
    if twin:
        return lift_through(r1.module(0), r2.aug, r1.aug)
    return lift_through(r1.module(0), OneMor.zero(r1.module(0), catalog.z_mod(3)),
                        r1.aug)


def _compare(twin):
    res = resolve(catalog.z_mod(2), 1)
    h = OneMor.identity(catalog.z_mod(2) if twin else catalog.z_mod(3))
    return compare(h, res, res)


def _horseshoe(twin):
    f, phi, g = _ext()
    a, c = (catalog.z_free(), catalog.z_mod(2)) if twin else (catalog.z_mod(2),) * 2
    return horseshoe(f, phi, g, resolve(a, 1), resolve(c, 1))


CHECKS = {
    # exactlin
    "matmul ring": (lambda: m([[1]]) @ m([[2]], RingSpec.Z()),
                    lambda: m([[1]]) @ m([[2]], Z4)),
    "add ring": (lambda: m([[1]]) + m([[2]], RingSpec.Z()),
                 lambda: m([[1]]) + m([[2]], Z4)),
    "sub shape": (lambda: m([[1, 2]]) - m([[3, 4]]),
                  lambda: m([[1, 2]]) - m([[3], [4]])),
    "kron ring": (lambda: kron(m([[1, 2]]), m([[3]], RingSpec.Z())),
                  lambda: kron(m([[1, 2]]), m([[3]], Z4))),
    "preimage_basis ring": (lambda: preimage_basis(m([[2]]), m([[3]], RingSpec.Z())),
                            lambda: preimage_basis(m([[2]]), m([[3]], Z4))),
    "solve_many ring": (lambda: solve_many(m([[2]]), m([[4]], RingSpec.Z())),
                        lambda: solve_many(m([[2]]), m([[3]], Z4))),
    "hstack ring": (lambda: hstack([m([[1]]), m([[2]], RingSpec.Z())]),
                    lambda: hstack([m([[1]]), m([[2]], Z4)])),
    "hstack rows": (lambda: hstack([m([[1]]), m([[2]])]),
                    lambda: hstack([m([[1]]), m([[2], [3]])])),
    "vstack ring": (lambda: vstack([m([[1]]), m([[2]], RingSpec.Z())]),
                    lambda: vstack([m([[1]]), m([[2]], Z4)])),
    "vstack cols": (lambda: vstack([m([[1]]), m([[2]])]),
                    lambda: vstack([m([[1]]), m([[2, 3]])])),
    # fpmod
    "FPModule ring": (lambda: FPModule(RingSpec.Z(), 1, m([[2]])),
                      lambda: FPModule(Z4, 1, m([[2]]))),
    "ModMor shape": (lambda: ModMor(z(2), z(1), m([[1, 1]])),
                     lambda: ModMor(z(2), z(1), m([[1], [1]]))),
    "ModMor matrix ring": (lambda: ModMor(z(), z(), m([[1]], RingSpec.Z())),
                           lambda: ModMor(z(), z(), m([[1]], Z4))),
    "ModMor target ring": (lambda: ModMor(z(), z(ring=RingSpec.Z()), m([[1]])),
                           lambda: ModMor(z(), z(ring=Z4), m([[1]]))),
    "ModMor endpoints": (
        lambda: equal_mor(ModMor.identity(z2()), ModMor.identity(z2())),
        lambda: equal_mor(ModMor.identity(z2()), ModMor.zero(z2(), z()))),
    "compose": (lambda: mcompose(ModMor.identity(z2()), ModMor.identity(z2())),
                lambda: mcompose(ModMor.identity(z2()), ModMor.identity(z()))),
    "factor_through": (
        lambda: factor_through(ModMor.identity(z2()), ModMor.identity(z2())),
        lambda: factor_through(ModMor.identity(z2()), ModMor.identity(z()))),
    "sum_module ring": (lambda: sum_module(z(), z(ring=RingSpec.Z())),
                        lambda: sum_module(z(), z(ring=Z4))),
    "tensor ring": (lambda: tensor(z(), z(ring=RingSpec.Z())),
                    lambda: tensor(z(), z(ring=Z4))),
    "is_exact_at": (lambda: is_exact_at(ModMor.zero(z(), z2()), ModMor.identity(z2())),
                    lambda: is_exact_at(ModMor.zero(z(), z2()), ModMor.identity(z()))),
    # twomod
    "TwoModule": (_twomod_accept, _twomod_reject),
    "OneMor f1": (_onemor_accept, lambda: _onemor(lambda x: x.M0, lambda x: x.M0)),
    "OneMor f0": (_onemor_accept, lambda: _onemor(lambda x: x.M1, lambda x: x.M1)),
    "hom-set": (lambda: one_mor_equal(catalog.times_two(), catalog.times_two()),
                lambda: one_mor_equal(catalog.times_two(), catalog.projection())),
    "compose 1-morphisms": (lambda: compose(catalog.times_two(), catalog.projection()),
                            lambda: compose(catalog.projection(), catalog.times_two())),
    "TwoMor": (_twomor_accept, _twomor_reject),
    "whisker_left": (
        lambda: whisker_left(OneMor.identity(catalog.z_mod(2)), _ext()[1]),
        lambda: whisker_left(OneMor.identity(catalog.z_free()), _ext()[1])),
    "whisker_right": (
        lambda: whisker_right(_ext()[1], OneMor.identity(catalog.z_free())),
        lambda: whisker_right(_ext()[1], OneMor.identity(catalog.z_mod(2)))),
    "biproduct ring": (
        lambda: biproduct(catalog.z_free(), TwoModule.free(RingSpec.Z(), 1)),
        lambda: biproduct(catalog.z_free(), TwoModule.free(Z4, 1))),
    "relative_kernel": (lambda: relative_kernel(_ext()[0], _ext()[1], _ext()[2]),
                        lambda: relative_kernel(_ext()[2], _ext()[1], _ext()[0])),
    "relative_cokernel": (lambda: relative_cokernel(_ext()[0], _ext()[1], _ext()[2]),
                          lambda: relative_cokernel(_ext()[2], _ext()[1], _ext()[0])),
    "rk_factorize": (lambda: _rk(True), lambda: _rk(False)),
    "rc_factorize": (lambda: _rc(True), lambda: _rc(False)),
    # complex2
    "Complex2": (lambda: _complex(lambda f: [catalog.z_free(), catalog.z_free()]),
                 lambda: _complex(lambda f: [f.dst, catalog.z_mod(2)])),
}

# the resolution checks raise their own error
RESOLUTION_CHECKS = {
    "lift_through": (lambda: _lift(True), lambda: _lift(False)),
    "compare": (lambda: _compare(True), lambda: _compare(False)),
    "horseshoe": (lambda: _horseshoe(True), lambda: _horseshoe(False)),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_a_check_accepts_equal_twins_and_rejects_a_mismatch(name):
    accept, reject = CHECKS[name]
    accept()
    with pytest.raises(DimensionMismatch):
        reject()


@pytest.mark.parametrize("name", sorted(RESOLUTION_CHECKS))
def test_a_resolution_check_accepts_equal_twins_and_rejects_a_mismatch(name):
    accept, reject = RESOLUTION_CHECKS[name]
    accept()
    with pytest.raises(ResolutionError, match="mismatch|do not"):
        reject()
