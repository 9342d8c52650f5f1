"""ruinflow: simulation and asymptotics for multivariate renewal risk models
with stochastic investment returns.

The package simulates discounted aggregate claim vectors and ruin events,
evaluates first-order asymptotic approximations for entrance and ruin
probabilities, and verifies that the two agree at desk scale.
"""

from .dependence import (
    ClaimModel,
    CubicPair,
    EmpiricalRatio,
    FgmChain,
    IID,
    NoExceedanceError,
    UnsupportedModelError,
    fgm_joint_survival,
    qai_ratio,
    rd_violation_ratio,
    scalarized_survival,
)
from .estimators import (
    HorizonEstimate,
    HypothesisError,
    ModelSpec,
    asymptotic_entrance_finite,
    asymptotic_entrance_infinite,
    mrv_closed_form,
    mrv_mu,
    resolve_finite_mode,
    resolve_infinite_mode,
    single_claim_entrance,
)
from .heavy_tails import (
    ClassTags,
    CubicSurvival,
    HarmonicSurvival,
    HeavyWeibull,
    Lognormal,
    Pareto,
    SurvivalUnderflowError,
    TailDistribution,
    matuszewska_bounds,
)
from .montecarlo import (
    ResultTable,
    SimConfig,
    empirical_entrance,
    empirical_entrance_time,
    single_big_jump_check,
    wilson_interval,
)
from .processes import (
    BrownianDrift,
    CompoundPoissonDrift,
    Deterministic,
    Erlang,
    ExponentialJumps,
    FixedJumps,
    LevyReturns,
    Poisson,
    RenewalIID,
)
from .rare_sets import (
    AnyLineNegative,
    HalfSpace,
    MaxExceed,
    PolyhedralUnion,
    Ray,
    WeightedSumNegative,
    contains,
    from_ruin_set,
    z_index,
)
from .ruin import (
    PremiumSchedule,
    RuinModel,
    asymptotic_ruin,
    empirical_ruin,
)

__version__ = "0.1.0"
