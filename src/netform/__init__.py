"""Network-formation games with additive coalition payoffs.

Networks form from offer/acceptance matrices, coalitions earn income
when their members are linked, and every number is an exact rational.
The package exports the entry points the README documents; everything
else is imported from its own module.
"""

from .compromise import PayoffMatrix, compromise_solution, ideal_vector, regret_vectors
from .datasets import random_instance, worked_example
from .formation import Network, form_network
from .instance_io import DocumentError, load_instance, save_instance
from .model import ActivationRule, CoalitionSpec, GameInstance
from .payoffs import payoff_vector
from .stability import (
    OverlappingCoalitionsError,
    check_disjoint_stability,
    is_stable,
    restricted_equilibria,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationRule",
    "CoalitionSpec",
    "DocumentError",
    "GameInstance",
    "Network",
    "OverlappingCoalitionsError",
    "PayoffMatrix",
    "check_disjoint_stability",
    "compromise_solution",
    "form_network",
    "ideal_vector",
    "is_stable",
    "load_instance",
    "payoff_vector",
    "random_instance",
    "regret_vectors",
    "restricted_equilibria",
    "save_instance",
    "worked_example",
]
