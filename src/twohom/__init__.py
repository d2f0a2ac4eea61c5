"""Exact 2-dimensional homological algebra over Z and Z/n.

2-modules are modeled as 2-term complexes of finitely presented modules;
everything above them (relative kernels and cokernels, homology of
complexes of 2-modules, projective resolutions, derived 2-functors, the
long 2-exact sequence of an extension) reduces to exact integer linear
algebra and is cross-checked against independent matrix-level oracles.
"""

from .exactlin import Matrix, RingSpec, ZZ, hnf, kernel_basis, snf, solve_many
from .fpmod import (
    FPModule,
    ModMor,
    cokernel,
    direct_sum,
    equal_mor,
    hom_basis,
    invariant_factors,
    is_valid_mor,
    kernel,
    sum_module,
    tensor,
    tensor_mor,
)
from .twomod import (
    OneMor,
    RelCokernelResult,
    RelKernelResult,
    TwoModule,
    TwoMor,
    biproduct,
    check_relative_two_exact,
    compose,
    is_essentially_surjective,
    is_extension,
    is_faithful,
    is_full,
    pi0,
    pi1,
    pi_profile,
    relative_cokernel,
    relative_kernel,
    rk_factorize,
    rc_factorize,
    vcomp,
    whisker_left,
    whisker_right,
)
from .complex2 import (
    ChainHomotopy,
    ChainMor,
    Complex2,
    HomologyData,
    homology,
    homotopy_equiv_witness,
    hyper,
    induced,
    total,
    validate_chain_homotopy,
    validate_chain_mor,
    validate_complex,
)
from .resolution import (
    ComparisonLift,
    Resolution,
    compare,
    free_cover,
    homotopy_between_lifts,
    horseshoe,
    lift_through,
    product_resolution,
    resolve,
    validate_resolution,
)
from .derived import (
    DerivedResult,
    FunctorSpec,
    LongSeq,
    apply,
    check_long_sequence,
    check_projective_vanishing,
    classical_tor_oracle,
    derive,
    derive_mor,
    is_right_relative_two_exact,
    long_sequence,
    resolution_independence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
