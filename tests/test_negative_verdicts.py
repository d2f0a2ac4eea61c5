"""The negative verdicts of the validators and the refusals of the cell
algebra, each with its reason, over Z and over Z/12.

Each case is the smallest input that fails exactly one condition, built
from the free module [0 -> R] and the module [R --0--> R], whose zero
structure map lets any cell into or out of its M1 pass the identities of
a 2-morphism.  So every other condition the validator reads holds, and the
reason string names the one that fails."""

import pytest

from twohom import fpmod
from twohom.complex2 import (
    ChainHomotopy,
    ChainMor,
    Complex2,
    TotalAssemblyError,
    total,
    validate_chain_homotopy,
    validate_chain_mor,
    validate_complex,
)
from twohom.exactlin import DimensionMismatch, Matrix, RingSpec, ZZ
from twohom.fpmod import (FactorError, FPModule, ModMor, factor_through,
                          is_exact_at)
from twohom.resolution import Resolution, validate_resolution
from twohom.twomod import (
    CompatibilityError,
    OneMor,
    TwoModule,
    TwoMor,
    compose,
    null_homotopy,
    rc_factorize,
    relative_cokernel,
    relative_kernel,
    rk_factorize,
    vcomp,
)

RINGS = pytest.mark.parametrize("ring", [ZZ, RingSpec.Zmod(12)], ids=str)


def scalar(ring, src, dst, x):
    """The 1 x 1 map x between rank-1 modules."""
    return ModMor(src, dst, Matrix(ring, 1, 1, [x]))


def free(ring):
    """[0 -> R]"""
    return TwoModule.free(ring, 1)


def zeromap(ring):
    """[R --0--> R]"""
    f = FPModule.free(ring, 1)
    return TwoModule(f, f, ModMor.zero(f, f))


def one(src, dst, f0=0, f1=0):
    """The 1-morphism with 1 x 1 components f1 and f0 (zero where a module
    has no generators)."""
    ring = src.ring

    def part(a, b, x):
        return scalar(ring, a, b, x) if a.gens and b.gens else ModMor.zero(
            a, b)

    return OneMor(src, dst, part(src.M1, dst.M1, f1), part(src.M0, dst.M0, f0))


@RINGS
def test_a_chain_map_whose_square_fails_names_lambda(ring):
    """The identity levelwise from [P <-id- P] to itself, but with F_1 = 0:
    lambda_1, the zero cell, is no 2-morphism F_0∘L_1 => M_1∘F_1."""
    p = free(ring)
    c = Complex2(ring, [p, p], [OneMor.identity(p)])
    assert validate_chain_mor(ChainMor.identity(c)) == (True, "ok")
    ok, why = validate_chain_mor(ChainMor(c, c, {0: OneMor.identity(p)}))
    assert (ok, why) == (False, "lambda[1]: s fails the degree-0 identity")


@RINGS
def test_a_chain_map_that_drops_a_cell_names_the_square(ring):
    """[Z0 <-0- 0 <-0- P] is a complex with alpha_2 = 1 and with
    alpha_2 = 0, Z0 = [R --0--> R].  The identity levelwise from the first
    to the second has valid cells lambda_n, but not the lambda/alpha
    square at n = 2: alpha_2 is carried to 0."""
    z0, p, zero = zeromap(ring), free(ring), TwoModule.zero(ring)
    diffs = [OneMor.zero(zero, z0), OneMor.zero(p, zero)]
    cell = {2: scalar(ring, p.M0, z0.M1, 1)}
    c, c0 = Complex2(ring, [z0, zero, p], diffs, cell), Complex2(
        ring, [z0, zero, p], diffs)
    assert validate_complex(c) == validate_complex(c0) == (True, "ok")
    ids = {n: OneMor.identity(m) for n, m in enumerate(c.modules)}
    assert validate_chain_mor(ChainMor(c, c, ids)) == (True, "ok")
    assert validate_chain_mor(ChainMor(c, c0, ids)) == (
        False, "lambda/alpha square at n=2")


@RINGS
def test_a_homotopy_without_its_cell_names_tau(ring):
    """No H and no tau make a homotopy from the identity of [P] to 0."""
    p = free(ring)
    c = Complex2(ring, [p], [])
    h = ChainHomotopy(ChainMor.identity(c), ChainMor.zero(c, c), {})
    assert validate_chain_homotopy(h) == (
        False, "tau[0]: s fails the degree-0 identity")


@RINGS
def test_a_homotopy_whose_cell_breaks_lambda_names_the_compatibility(ring):
    """On [Z0 <-L_1- P] with L_1.f0 = 1, tau_0 = 1 is a valid cell of the
    identity on Z0 = [R --0--> R], but with H = 0 it breaks the
    compatibility with lambda at n = 1, where it meets L_1."""
    z0, p = zeromap(ring), free(ring)
    c = Complex2(ring, [z0, p], [one(p, z0, f0=1)])
    m = ChainMor.identity(c)
    assert validate_chain_homotopy(ChainHomotopy(m, m, {})) == (True, "ok")
    h = ChainHomotopy(m, m, {}, {0: scalar(ring, z0.M0, z0.M1, 1)})
    assert validate_chain_homotopy(h) == (
        False, "tau/lambda compatibility at n=1")


@RINGS
def test_a_resolution_with_a_stage_that_is_not_free(ring):
    """P_0 = [R --1--> R] has generators in degree 1."""
    f = FPModule.free(ring, 1)
    q = TwoModule(f, f, ModMor.identity(f))
    p = free(ring)
    res = Resolution(Complex2(ring, [p, q], [OneMor.zero(q, p)]), [], [], True)
    assert validate_resolution(res) == (False, "P_0 is not free")


@RINGS
def test_a_resolution_whose_augmented_complex_fails(ring):
    """P_1 --1--> P_0 --1--> P with the zero cell: the composite is 1."""
    p = free(ring)
    idp = OneMor.identity(p)
    res = Resolution(Complex2(ring, [p, p, p], [idp, idp]), [], [], False)
    assert validate_resolution(res) == (
        False, "augmented complex: alpha[2]: s fails the degree-0 identity")


@RINGS
def test_a_resolution_whose_augmentation_misses_a_class(ring):
    """P_0 --2--> P leaves pi0 = R/2 uncovered, over Z and over Z/12."""
    p = free(ring)
    res = Resolution(Complex2(ring, [p, p], [one(p, p, f0=2)]), [], [], False)
    assert validate_resolution(res) == (
        False, "augmentation is not essentially surjective")


@RINGS
def test_factor_through_refuses_what_the_inclusion_misses(ring):
    """1 is no multiple of 2, over Z and over Z/12."""
    r = FPModule.free(ring, 1)
    with pytest.raises(FactorError,
                       match="^no factorization through the given inclusion$"):
        factor_through(scalar(ring, r, r, 2), ModMor.identity(r))
    assert factor_through(scalar(ring, r, r, 2), scalar(ring, r, r, 4)).mat \
        == Matrix(ring, 1, 1, [2])


@RINGS
def test_a_nonzero_composite_is_not_exact(ring, monkeypatch):
    """R --2--> R --3--> R composes to 6, nonzero over Z and over Z/12, so
    it is not exact there, decided before any kernel is taken."""
    r = FPModule.free(ring, 1)
    assert is_exact_at(ModMor.zero(FPModule.zero(ring), r), ModMor.identity(r))

    def no_kernel(f):
        raise AssertionError("kernel taken")

    monkeypatch.setattr(fpmod, "kernel", no_kernel)
    assert is_exact_at(scalar(ring, r, r, 2), scalar(ring, r, r, 3)) is False


@RINGS
def test_vcomp_refuses_cells_that_do_not_meet(ring):
    """a: 1 => 1 and b: 2 => 2 on [0 -> R]; a ends at 1, b starts at 2."""
    p = free(ring)
    a, b = TwoMor.identity(one(p, p, f0=1)), TwoMor.identity(one(p, p, f0=2))
    with pytest.raises(DimensionMismatch,
                       match="^non-composable 2-morphisms$"):
        vcomp(a, b)
    assert vcomp(a, a).s.is_zero_mor()


@RINGS
def test_rk_factorize_refuses_an_incompatible_cell(ring):
    """Z0 --0--> Z0 --G--> Z0, Z0 = [R --0--> R], G.f1 = 1, G.f0 = 0, phi = 0.
    E: [0 -> R] -> Z0 with E.f0 = 1 and psi: F∘E => 0 with psi.s = 1 is a
    null homotopy, but G.f1∘psi.s = 1 and phi.s∘E.f0 = 0."""
    z0, p = zeromap(ring), free(ring)
    F, G = OneMor.zero(z0, z0), one(z0, z0, f1=1)
    res = relative_kernel(F, null_homotopy(compose(F, G), ModMor.zero(
        z0.M0, z0.M1)), G)
    E = one(p, z0, f0=1)

    def psi(s):
        return null_homotopy(compose(E, F), scalar(ring, p.M0, z0.M1, s))

    rk_factorize(res, E, psi(0))
    with pytest.raises(CompatibilityError, match=(
            "^cell incompatible with the kernel's defining cell$")):
        rk_factorize(res, E, psi(1))


@RINGS
def test_rc_factorize_refuses_an_incompatible_cell(ring):
    """Z0 --F--> Z0 --0--> Z0, F.f0 = 1, F.f1 = 0, phi = 0.  E = 0 out of
    Z0 and psi: E∘G => 0 with psi.s = 1 is a null homotopy, but
    E.f1∘phi.s = 0 and psi.s∘F.f0 = 1."""
    z0 = zeromap(ring)
    F, G = one(z0, z0, f0=1), OneMor.zero(z0, z0)
    res = relative_cokernel(F, null_homotopy(compose(F, G), ModMor.zero(
        z0.M0, z0.M1)), G)
    E = OneMor.zero(z0, z0)

    def psi(s):
        return null_homotopy(compose(G, E), scalar(ring, z0.M0, z0.M1, s))

    rc_factorize(res, E, psi(0))
    with pytest.raises(CompatibilityError, match=(
            "^cell incompatible with the cokernel's defining cell$")):
        rc_factorize(res, E, psi(1))


@RINGS
def test_total_refuses_a_complex_whose_square_is_not_zero(ring):
    """P <-1- P <-1- P with the zero cell: the total differential squares
    to 1 at 2."""
    p = free(ring)
    idp = OneMor.identity(p)
    with pytest.raises(TotalAssemblyError,
                       match="^total differential fails d∘d=0 at 2$"):
        total(Complex2(ring, [p, p, p], [idp, idp]))
    assert total(Complex2(ring, [p, p], [idp])).d(1).mat == Matrix(
        ring, 1, 1, [1])
