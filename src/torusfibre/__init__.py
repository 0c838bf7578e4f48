"""Exact quantum-invariant data for mapping tori of finite order surface
diffeomorphisms."""

from .exact import Cyclotomic, PhaseQ, PhaseSeries
from .orbit import OrbitData, SeifertData, seifert_invariants, total_genus, validate_orbit
from .spectrum import (
    EigenSpectrum,
    eigen_dimensions,
    lefschetz_trace,
    mu_bruteforce,
    mu_value,
    wall_signature,
)
from .framing import (
    FramingPhase,
    GroupData,
    framing_evaluate,
    framing_phase,
    framing_series,
)
from .strata import (
    ConjClassSU,
    StratumDescriptor,
    classes_with_power_central,
    count_strata_burnside,
    enumerate_strata,
    root_eigendata,
    stratum_ranks,
)
from .localization import (
    CohomologyOracle,
    ContributionPolynomial,
    lambda_inverse_expansion,
    point_contribution,
    smooth_contribution,
)
from .expansion import (
    FitResult,
    InvariantModel,
    assemble_invariant,
    evaluate_invariant,
    fit_expansion,
)

__version__ = "0.1.0"
