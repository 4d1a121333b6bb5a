"""Certification toolkit for finite transport problems with extended-real
costs: exact solving, cyclical-monotonicity witnesses, dual potentials,
robustness defenses, and multi-marginal coupling bounds."""

from .core import (
    FLOAT,
    INFINITY,
    Instance,
    InstanceError,
    NEG_INFINITY,
    Policy,
    RATIONAL,
    SupportSet,
    TransportPlan,
    float_policy,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    make_instance,
    make_plan,
    marginals,
    support,
    total_cost,
    validate_instance,
    validate_plan,
)
from .solver import OptimalResult, brute_force_optimal, is_optimal, solve_exact
from .monotonicity import (
    ResidualGraph,
    ViolatingCycle,
    check_c_monotone,
    improve_plan,
    improve_to_monotone,
    residual_graph,
)
from .connectivity import (
    ConnectivityDecomposition,
    check_class_confinement,
    decompose,
    is_connecting,
)
from .potentials import (
    CertifyResult,
    PotentialPair,
    c_transform,
    certify_strong,
    chain_potential,
    verify_strong_monotonicity,
)
from .robustness import (
    ExtendedInstance,
    adversarial_search,
    build_extension,
    check_robust_defense,
    extended_plan,
)
from .multimarginal import (
    MultiMarginalInstance,
    check_dichotomy,
    l_value,
    l_value_relaxed,
    make_mmi,
    p_value,
)

__version__ = "0.1.0"
