"""Directed networks and how offer/acceptance profiles form them.

Players are indexed 0..n-1 internally.  An arc (i, j) means i maintains a
link toward j; self-arcs are never allowed in a formed network.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

Arc = tuple[int, int]
Matrix = tuple[tuple[int, ...], ...]


def _as_matrix(rows) -> Matrix:
    return tuple(tuple(int(v) for v in row) for row in rows)


@dataclass(frozen=True)
class OfferProfile:
    """A pair of square 0/1 matrices: offers made and offers accepted.

    offers[i][j] == 1 means player i offers a link to player j;
    acceptances[i][j] == 1 means player i accepts a link offered by j.
    Diagonal entries are tolerated on input but can never yield an arc.
    """

    offers: Matrix
    acceptances: Matrix

    def __post_init__(self) -> None:
        n = len(self.offers)
        for name, m in (("offers", self.offers), ("acceptances", self.acceptances)):
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"{name} must be a square {n}x{n} matrix")
            for row in m:
                # one pass per row at C speed; count compares by equality,
                # as `in` does, so any cell the loop below refuses fails it
                if row.count(0) + row.count(1) == len(row):
                    continue
                for v in row:
                    if v not in (0, 1):
                        raise ValueError(f"{name} entries must be 0 or 1, got {v!r}")

    @classmethod
    def of(cls, offers, acceptances) -> OfferProfile:
        return cls(_as_matrix(offers), _as_matrix(acceptances))

    @property
    def n(self) -> int:
        return len(self.offers)


@dataclass(frozen=True)
class Network:
    """A loop-free directed network on players 0..n-1."""

    n: int
    arcs: frozenset[Arc]

    def __post_init__(self) -> None:
        for i, j in self.arcs:
            if i == j:
                raise ValueError(f"self-arc ({i}, {j}) not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"arc ({i}, {j}) out of range for n={self.n}")

    @classmethod
    def of(cls, n: int, arcs) -> Network:
        return cls(n, frozenset((int(i), int(j)) for i, j in arcs))

    @classmethod
    def from_matrix(cls, rows) -> Network:
        """Network of a square 0/1 adjacency matrix given as a list of
        rows; the diagonal is ignored.  Anything else, including cells
        such as True or "1", raises ValueError."""
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in rows
        ):
            raise ValueError("adjacency matrix must be a list of rows")
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("adjacency matrix must be square")
        arcs = set()
        for i in range(n):
            for j in range(n):
                v = rows[i][j]
                if type(v) is not int or v not in (0, 1):
                    raise ValueError(f"adjacency entries must be 0 or 1, got {v!r}")
                if v and i != j:
                    arcs.add((i, j))
        return cls(n, frozenset(arcs))

    def matrix(self) -> Matrix:
        return tuple(
            tuple(1 if (i, j) in self.arcs else 0 for j in range(self.n))
            for i in range(self.n)
        )


def form_network(profile: OfferProfile) -> Network:
    """Form the network that a profile induces: arc (i, j) exists exactly
    when i offers to j and j accepts from i.

    A mutual self-consent (both diagonals set at i) would create a loop;
    it is stripped with a warning instead.
    """
    n = profile.n
    arcs = set()
    stripped = []
    for i in range(n):
        for j in range(n):
            if profile.offers[i][j] and profile.acceptances[j][i]:
                if i == j:
                    stripped.append(i)
                else:
                    arcs.add((i, j))
    if stripped:
        warnings.warn(
            f"stripped self-arc(s) at player(s) {[p + 1 for p in stripped]}",
            stacklevel=2,
        )
    return Network(n, frozenset(arcs))


def remove_arcs(network: Network, arcs) -> Network:
    """Return the network with the given arcs removed.

    Every arc to remove must be present; removing an absent arc is an error.
    """
    to_remove = set((int(i), int(j)) for i, j in arcs)
    missing = to_remove - network.arcs
    if missing:
        raise ValueError(f"arcs not present: {sorted(missing)}")
    return Network(network.n, network.arcs - to_remove)
