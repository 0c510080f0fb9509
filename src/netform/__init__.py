"""Network-formation games with additive coalition payoffs.

Networks form from offer/acceptance matrices, coalitions earn income
when their members are linked, and every number is an exact rational.
"""

from .compromise import (
    CompromiseReport,
    PayoffMatrix,
    compromise_solution,
    ideal_vector,
    regret_vectors,
)
from .datasets import (
    intersecting_example,
    intersecting_example_network,
    random_instance,
    worked_example,
)
from .formation import (
    Arc,
    Network,
    OfferProfile,
    complete_network,
    empty_network,
    form_network,
    remove_arcs,
)
from .instance_io import (
    SCHEMA,
    DocumentError,
    instance_from_document,
    instance_to_document,
    load_instance,
    load_instance_file,
    save_instance,
    save_instance_file,
)
from .model import (
    ActivationRule,
    CoalitionSpec,
    GameInstance,
    ValidationReport,
    validate_instance,
)
from .payoffs import (
    PayoffVector,
    active_coalitions,
    is_active,
    payoff_vector,
    profile_payoffs,
)
from .stability import (
    Deviation,
    OverlappingCoalitionsError,
    ReachableDeviation,
    RestrictedEquilibriaReport,
    StabilityReport,
    check_disjoint_stability,
    find_overlapping_pair,
    is_stable,
    restricted_equilibria,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationRule",
    "Arc",
    "CoalitionSpec",
    "CompromiseReport",
    "Deviation",
    "DocumentError",
    "GameInstance",
    "Network",
    "OfferProfile",
    "OverlappingCoalitionsError",
    "PayoffMatrix",
    "PayoffVector",
    "ReachableDeviation",
    "RestrictedEquilibriaReport",
    "SCHEMA",
    "StabilityReport",
    "ValidationReport",
    "active_coalitions",
    "check_disjoint_stability",
    "complete_network",
    "compromise_solution",
    "empty_network",
    "find_overlapping_pair",
    "form_network",
    "ideal_vector",
    "instance_from_document",
    "instance_to_document",
    "intersecting_example",
    "intersecting_example_network",
    "is_active",
    "is_stable",
    "load_instance",
    "load_instance_file",
    "payoff_vector",
    "profile_payoffs",
    "random_instance",
    "regret_vectors",
    "remove_arcs",
    "restricted_equilibria",
    "save_instance",
    "save_instance_file",
    "validate_instance",
    "worked_example",
    "__version__",
]
