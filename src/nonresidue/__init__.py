"""Least-prime searches and explicit-bound verification.

Library plus CLI for: least quadratic and k-th power non-residues, least
primes outside subgroups / in cosets / in arithmetic progressions,
explicit L(1, chi) and class-number bounds, weighted prime-sum identity
residuals, and the Mellin-kernel optimization behind the asymptotic
constants 0.42 / 0.49 / 0.51.
"""

from .arith import (
    Factorization,
    UnitGroupStructure,
    euler_phi,
    factorize,
    is_prime,
    primes_up_to,
    unit_group_structure,
)
from .characters import (
    DirichletCharacter,
    SubgroupSpec,
    character_group,
    is_fundamental_discriminant,
    kth_power_subgroup,
    primitive_characters,
    subgroup_from_generators,
    trivial_subgroup,
)
from .lfunctions import (
    EULER_GAMMA,
    HADAMARD_B,
    class_number_bqf,
    class_number_via_formula,
    l_at_1,
    re_b,
)
from .search import (
    SearchResult,
    least_prime_outside_subgroup,
    least_qnr,
)
from .kernels import (
    Kernel,
    alpha_table,
    fejer_kernel,
    gamma_kernel,
    largeh_constant,
    limit_constant,
    line_l1,
    mellin_numeric_check,
    optimize_lambda,
    prop62_constant,
    weighted_integral,
)

__version__ = "0.1.0"
