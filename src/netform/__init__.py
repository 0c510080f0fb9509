"""Network-formation games with additive coalition payoffs.

Networks form from offer/acceptance matrices, coalitions earn income
when their members are linked, and every number is an exact rational.
The package exports the entry points the README documents; everything
else is imported from its own module.

The exports and the submodules are imported on first access (PEP 562),
so `import netform` loads no submodule and a command loads only the
modules it runs.
"""

__version__ = "0.1.0"

# each export, by the submodule that defines it
_HOMES = {
    "ActivationRule": "model",
    "CoalitionSpec": "model",
    "DocumentError": "instance_io",
    "GameInstance": "model",
    "Network": "formation",
    "OverlappingCoalitionsError": "stability",
    "PayoffMatrix": "compromise",
    "check_disjoint_stability": "stability",
    "compromise_solution": "compromise",
    "form_network": "formation",
    "ideal_vector": "compromise",
    "is_stable": "stability",
    "load_instance": "instance_io",
    "payoff_vector": "payoffs",
    "random_instance": "datasets",
    "regret_vectors": "compromise",
    "restricted_equilibria": "stability",
    "save_instance": "instance_io",
    "worked_example": "datasets",
}
_SUBMODULES = (
    "cli", "compromise", "datasets", "formation", "instance_io",
    "model", "payoffs", "record", "stability",
)

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name, name if name in _SUBMODULES else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import sys

    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
