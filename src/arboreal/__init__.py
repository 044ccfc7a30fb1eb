"""Exact-arithmetic toolkit for dynamical Galois data of quadratic pairs
(f, alpha) over Q: orbits, square-class linear algebra, finite tree-group
truncations, maximal-subgroup containment, abelian classification with
machine-checkable certificates, index-set combinatorics, and orbit curves.
"""

from .dynamics import (
    AdjustedOrbit,
    DegeneracyError,
    PCF,
    PCI,
    QuadPair,
    adjusted_orbit,
    in_post_critical_orbit,
    is_exceptional,
    is_pcf,
    orbit_valuations,
)
from .f2 import SIGN, F2Vector, Label, base_label, in_span, index_label, prime_label, rank
from .galois import (
    AbelianVerdict,
    GroupId,
    ab_dimension,
    classify_abelian,
    contained_in_Mv,
    frobenius_sample,
    good_primes,
    level2_galois,
    nonabelian_prime_search,
    poonen_check,
    replay_certificate,
)
from .indexsets import (
    BertrandFamily,
    IndexFamily,
    IndexVector,
    bertrand_family,
    is_progression,
    m_coprime_witness,
    progressing_witness,
)
from .curves import CurveSpec, construct_point, naive_point_search, rhs_eval
from .primes import BudgetExceeded, factorize
from .squares import (
    DegenerateSquareWarning,
    QuadElement,
    SquareClass,
    all_valuations_even,
    is_perfect_square,
    is_square_in_quad,
    quad_independent,
    span_dimension,
    square_class,
)
from .treegroup import (
    CapExceeded,
    SubgroupGens,
    TreeAut,
    abelianization,
    act,
    closure,
    compose,
    faithful_nodes,
    in_Mv,
    inverse,
    level,
    phi,
    restrict,
    tilde_phi,
    verify_noncommutation,
)

__version__ = "0.1.0"
