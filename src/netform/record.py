"""Frozen value records.

`record` gives a class what `dataclasses.dataclass(frozen=True)` used to
give the package's value classes, without importing `dataclasses`:
with the `inspect` chain it loads, that module took about 12 ms of the
40 ms that importing `netform.cli` took (CPython 3.11, 2-vCPU VM).  Only
`__init__` is compiled from source, once per class, so that building a
record costs what a hand-written `__init__` costs.  `__eq__`, `__hash__`
and `__repr__` are closures over one `operator.attrgetter` of the fields,
which reads them all in one C call.  Compiling those three as well made
defining eleven 4-field classes take 1.8 ms instead of 0.7 ms; the
closures cost about 0.1 µs more per comparison or hash, which no command
does in a loop.
"""

from operator import attrgetter

_INIT = """
def __init__(self, {names}):
{stores}
"""


class FrozenInstanceError(AttributeError):
    """Raised when a field of a record is assigned or deleted."""


def _assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _methods(names: tuple) -> dict:
    """`__eq__`, `__hash__` and `__repr__` over the tuple of the fields."""
    get = attrgetter(*names)
    if len(names) == 1:  # one name: attrgetter returns the bare value
        one = get

        def get(self):
            return (one(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(get(self))

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, get(self)))
        return f"{self.__class__.__qualname__}({shown})"

    return {"__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__}


def record(cls):
    """Make cls a frozen record whose fields are its annotated names, in
    order; a field given a value in the class body takes it as its
    default.  Construction takes the fields by position or keyword and
    then calls `__post_init__`, if the class has one.  Records compare
    and hash as the tuple of their fields, only with records of the same
    class, and their repr is `Name(field=value, ...)`.  Assigning or
    deleting any attribute raises FrozenInstanceError; a
    `functools.cached_property` still works, because it writes the
    instance `__dict__`, and pickling restores that `__dict__` too."""
    names = tuple(cls.__annotations__)  # strings: never evaluated
    defaults = tuple(vars(cls)[n] for n in names if n in vars(cls))
    if any(n not in vars(cls) for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows a default")
    stores = [f"    _set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        stores.append("    self.__post_init__()")
    namespace = {}
    exec(
        _INIT.format(names=", ".join(names), stores="\n".join(stores)),
        {"__name__": cls.__module__, "_set": object.__setattr__},
        namespace,
    )
    namespace["__init__"].__defaults__ = defaults
    namespace.update(_methods(names))
    for name, method in namespace.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__ = _assign
    cls.__delattr__ = _delete
    cls.__match_args__ = names
    return cls
