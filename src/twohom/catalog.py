"""The standard catalog of small objects used by the test suites and the
CLI examples: six 2-modules with known pi-invariants, two complexes with
known homology, the Z/2 extension, and the tensor functors."""

from __future__ import annotations

from .exactlin import Matrix, ZZ
from .fpmod import FPModule, ModMor
from .twomod import OneMor, TwoModule, compose, zero_null_homotopy
from .complex2 import Complex2


def free_module(rank: int) -> FPModule:
    return FPModule.free(ZZ, rank)


def cyclic(n: int) -> FPModule:
    return FPModule.cyclic(ZZ, n)


def z_free() -> TwoModule:
    """[0 -> Z]"""
    return TwoModule.free(ZZ, 1)


def z_mod(n: int) -> TwoModule:
    """[0 -> Z/n]"""
    return TwoModule.discrete(cyclic(n))


def mul_two() -> TwoModule:
    """[Z --2--> Z]"""
    f = free_module(1)
    return TwoModule(f, f, ModMor(f, f, Matrix.from_rows(ZZ, [[2]])))


def zero_map_mod() -> TwoModule:
    """[Z --0--> Z]"""
    f = free_module(1)
    return TwoModule(f, f, ModMor.zero(f, f))


def identity_mod() -> TwoModule:
    """[Z --id--> Z]"""
    f = free_module(1)
    return TwoModule(f, f, ModMor.identity(f))


def shift_mod() -> TwoModule:
    """[Z -> 0]"""
    return TwoModule(free_module(1), FPModule.zero(ZZ),
                     ModMor.zero(free_module(1), FPModule.zero(ZZ)))


def pi_catalog():
    """The six catalog 2-modules with their expected (pi0, pi1)."""
    return [
        ("mul2", mul_two(), ([2], [])),
        ("zeromap", zero_map_mod(), ([0], [0])),
        ("identity", identity_mod(), ([], [])),
        ("Z/2", z_mod(2), ([2], [])),
        ("Z", z_free(), ([0], [])),
        ("shift", shift_mod(), ([], [0])),
    ]


def times_two() -> OneMor:
    """(*2): [0->Z] -> [0->Z]"""
    a = z_free()
    b = z_free()
    return OneMor(a, b, ModMor.zero(a.M1, b.M1),
                  ModMor(a.M0, b.M0, Matrix.from_rows(ZZ, [[2]])))


def projection() -> OneMor:
    """proj: [0->Z] -> [0->Z/2]"""
    a = z_free()
    c = z_mod(2)
    return OneMor(a, c, ModMor.zero(a.M1, c.M1),
                  ModMor(a.M0, c.M0, Matrix.from_rows(ZZ, [[1]])))


def catalog_extension():
    """[0->Z] --*2--> [0->Z] --proj--> [0->Z/2] with the zero homotopy."""
    f = times_two()
    c = z_mod(2)
    g = OneMor(f.dst, c, ModMor.zero(f.dst.M1, c.M1),
               ModMor(f.dst.M0, c.M0, Matrix.from_rows(ZZ, [[1]])))
    phi = zero_null_homotopy(compose(f, g))
    return f, phi, g


def complex_mul2() -> Complex2:
    """([0->Z] --*2--> [0->Z]) in degrees 1, 0."""
    f = times_two()
    return Complex2.strict(ZZ, [f.dst, f.src], [f])


def complex_to_zero() -> Complex2:
    """([0->Z] --> 0) in degrees 1, 0."""
    z = TwoModule.zero(ZZ)
    a = z_free()
    return Complex2.strict(ZZ, [z, a], [OneMor.zero(a, z)])


def homology_catalog():
    """(complex, degree, expected (pi0, pi1)) triples."""
    return [
        (complex_mul2(), 0, ([2], [])),
        (complex_mul2(), 1, ([], [])),
        (complex_to_zero(), 0, ([], [0])),
        (complex_to_zero(), 1, ([0], [])),
    ]
