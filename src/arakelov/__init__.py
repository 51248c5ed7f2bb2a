"""Potential-theory calculus on the Berkovich projective line over Q.

Exact ultrametric tree geometry and segment energies, Lattes equilibrium
data, archimedean closed forms and quadratures, and adelic pairings and heights,
with independent oracles for every closed form.
"""

from .errors import ArakelovError
from .places import (
    ARCH,
    INFINITY,
    Place,
    TRIVIAL,
    affine_height,
    finite,
    log_abs,
    padic_valuation,
    product_formula_residual,
    projective_height,
    submax,
    support_primes,
)
from .tree import (
    GAUSS,
    POINT_AT_INFINITY,
    Segment,
    TreePoint,
    classify_pair,
    eta,
    hsia_log_kernel,
    join,
    path_length,
    segment_between,
    type1,
)
from .energy_ua import (
    SegmentMeasure,
    energy_closed_form,
    energy_oracle,
    energy_union_check,
    lower_bound_report,
    segment_measure,
    sigma_potential,
)
from .lattes import (
    MobiusMap,
    Quadruple,
    as_side,
    cross_ratio,
    equilibrium_measure_ua,
    lattes_segment,
    legendre_lattes_eval,
    local_discrepancy,
    normalize_to_legendre,
    torsion_images,
)
from .energy_arch import (
    Circle,
    Cloud,
    DiracAt,
    circle_potential,
    escape_rate,
    lattes_sq_energy_arch,
    pair_energy_arch,
    sample_lattes_equilibrium,
    sq_energy_arch,
)
from .adelic import (
    AdelicEnergyReport,
    FiniteSet,
    LattesFamily,
    PairConfig,
    SmoothedSetFamily,
    StandardFamily,
    bft_scan,
    family_sq_energy,
    finite_set,
    gap_scan,
    global_energy,
    h_ab,
    h_rho_F,
    inequality_suite,
    pair_config,
    pair_energy_global,
    pair_with_smoothed_set,
    relevant_places,
    triangle_inequality_check,
)

__version__ = "0.1.0"
