"""Directed networks and how offer/acceptance profiles form them.

Players are indexed 0..n-1 internally.  An arc (i, j) means i maintains a
link toward j; self-arcs are never allowed in a formed network.

Whole matrices are packed, so that forming a network and comparing two
of them are a few operations on bytes and ints, not a loop over cells.
A profile matrix is a tuple of `bytes` rows, one byte 0 or 1 per cell,
so `offers[i][j]` is still an int.  A network is one int `mask` whose
bit i*n + j is arc (i, j); its arc set is built from the mask only when
something asks for it.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import chain, repeat

from .record import record

Arc = tuple[int, int]
Matrix = tuple[bytes, ...]

_ROW = (list, tuple, bytes)
_CELL_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_CELLS = bytes.maketrans(b"01", b"\x00\x01")


def _mask_of(digits) -> int:
    """The int whose bit k is digits[k], a "0" or "1" as str or bytes."""
    return int(digits[::-1] or "0", 2)


def _digits_of(mask: int, size: int) -> str:
    """The `size` lowest bits of mask as "0"/"1" characters, bit 0 first."""
    return bin(mask | 1 << size)[:2:-1]


def _transposed(cells, n: int):
    """The transpose of a flat row-major n×n cell string (str or bytes):
    row i of the result is column i, read by slicing."""
    return cells[:0].join(cells[i::n] for i in range(n))


def transposed(mask: int, n: int) -> int:
    """The mask of the network with every arc reversed."""
    return _mask_of(_transposed(_digits_of(mask, n * n), n))


@cache
def diagonal(n: int) -> int:
    """The mask of the n self-arcs (i, i)."""
    return _mask_of(("1" + "0" * n) * n)


@cache
def upper(n: int) -> int:
    """The mask of the arcs (i, j) with i < j: one bit per unordered pair."""
    return _mask_of("".join("0" * (i + 1) + "1" * (n - i - 1) for i in range(n)))


def common_ends(mask: int, n: int) -> list[int]:
    """The players, in order, that every arc of a nonempty mask touches:
    those ends of its lowest arc whose row and column hold the mask."""
    row = (1 << n) - 1
    column = ((1 << n * n) - 1) // row  # bit i*n for each i
    low = (mask & -mask).bit_length() - 1
    return [p for p in sorted(divmod(low, n)) if not mask & ~(row << p * n | column << p)]


def _bad_cell(rows, name: str) -> ValueError:
    """The refusal of the first cell of `rows`, in row-major order, that
    is not the int 0 or 1 (a bool is not).  It names the cell by its
    position, never by its value, which may be as long as the input."""
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if type(v) is not int or v not in (0, 1):
                return ValueError(f"{name}[{r}][{c}]: entries must be 0 or 1")


def _checked(m: Matrix, name: str, n: int) -> bytes:
    """The cells of `bytes` rows m, joined, once m is found to be a square
    n×n matrix of 0/1 cells: the one check of every matrix that enters
    the engine.  Raises ValueError, starting with `name`."""
    if len(m) != n or not set(map(len, m)) <= {n}:
        raise ValueError(f"{name} must be a square {n}x{n} matrix")
    cells = b"".join(m)
    if cells.translate(None, b"\x00\x01"):
        raise _bad_cell(m, name)
    return cells


def _int_cells(rows) -> bool:
    """Whether every cell of rows is an int, and so none is a bool: the
    one pass over the cells that `bit_rows` makes, for rows not all `bytes`."""
    return set(map(type, chain.from_iterable(rows))) <= {int}


def bit_rows(rows, name: str) -> Matrix:
    """The `bytes` rows, for `_checked` to check, of a list or tuple of
    rows (lists, tuples or `bytes`, as `instance_io` reads a document's
    matrices or `Network.matrix()` returns); rows it cannot convert raise
    ValueError.  Rows that are all `bytes` are returned as they are: a
    `bytes` cell is an int below 256, never a bool."""
    if not isinstance(rows, (list, tuple)) or not all(map(isinstance, rows, repeat(_ROW))):
        raise ValueError(f"{name} must be a list of rows")
    try:  # bytes() takes any int below 256, and a bool, whose type is not int
        m = tuple(map(bytes, rows))
        if all(map(isinstance, rows, repeat(bytes))) or _int_cells(rows):
            return m
    except (TypeError, ValueError):
        pass
    _checked(tuple(map(bytes, map(len, rows))), name, len(rows))  # the shape, zero-filled
    raise _bad_cell(rows, name)


@record
class OfferProfile:
    """A pair of square 0/1 matrices: offers made and offers accepted.

    offers[i][j] == 1 means player i offers a link to player j;
    acceptances[i][j] == 1 means player i accepts a link offered by j.
    Each matrix is a tuple of `bytes` rows.  Diagonal entries are
    tolerated on input but can never yield an arc.
    """

    offers: Matrix
    acceptances: Matrix

    def __post_init__(self) -> None:
        n = len(self.offers)
        _checked(self.offers, "offers", n)
        _checked(self.acceptances, "acceptances", n)

    @classmethod
    def of(cls, offers, acceptances) -> OfferProfile:
        """The profile of two lists of rows, converted by `bit_rows`.  A refusal
        names the offers' fault, the acceptances' own, then their size."""
        offers = bit_rows(offers, "offers")
        try:
            acceptances = bit_rows(acceptances, "acceptances")
            if len(acceptances) != len(offers):
                _checked(acceptances, "acceptances", len(acceptances))
        except ValueError:
            _checked(offers, "offers", len(offers))
            raise
        return cls(offers, acceptances)

    @property
    def n(self) -> int:
        return len(self.offers)


@record
class Network:
    """A loop-free directed network on players 0..n-1, packed into one
    int: bit i*n + j of `mask` is set exactly when arc (i, j) is present."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> (self.n * self.n):
            raise ValueError(f"mask {self.mask} out of range for n={self.n}")
        loops = self.mask & diagonal(self.n)
        if loops:
            i = (loops.bit_length() - 1) // (self.n + 1)
            raise ValueError(f"self-arc ({i}, {i}) not allowed")

    @cached_property
    def arcs(self) -> frozenset[Arc]:
        """The arcs as (i, j) pairs, built from the mask on first use."""
        digits = _digits_of(self.mask, self.n * self.n)
        return frozenset(divmod(k, self.n) for k, d in enumerate(digits) if d == "1")

    def has(self, i: int, j: int) -> bool:
        """Whether arc (i, j) is present."""
        return 0 <= i < self.n and 0 <= j < self.n and bool(self.mask >> (i * self.n + j) & 1)

    @classmethod
    def of(cls, n: int, arcs) -> Network:
        arcs = frozenset((int(i), int(j)) for i, j in arcs)
        mask = 0
        for i, j in arcs:
            if i == j:
                raise ValueError(f"self-arc ({i}, {j}) not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"arc ({i}, {j}) out of range for n={n}")
            mask |= 1 << (i * n + j)
        return cls(n, mask)

    @classmethod
    def from_matrix(cls, rows) -> Network:
        """Network of a square 0/1 adjacency matrix given as a list of
        rows, converted by `bit_rows`; the diagonal is ignored."""
        m = bit_rows(rows, "adjacency")
        n = len(m)
        cells = _checked(m, "adjacency", n)
        return cls(n, _mask_of(cells.translate(_CELL_DIGITS)) & ~diagonal(n))

    def matrix(self) -> Matrix:
        """The adjacency matrix, as `bytes` rows of 0/1 cells."""
        cells = _digits_of(self.mask, self.n * self.n).encode().translate(_DIGIT_CELLS)
        return tuple(cells[i * self.n:(i + 1) * self.n] for i in range(self.n))


def form_network(profile: OfferProfile) -> Network:
    """The network a profile forms: arc (i, j) exists exactly when i offers
    to j and j accepts from i.  The offers, and the acceptances read column
    by column, become two masks, and the network is their AND; a mutual
    self-consent (both diagonals set at i) would be a loop, so it is
    stripped, and `validate_instance` warns about it."""
    n = profile.n
    offered = _mask_of(b"".join(profile.offers).translate(_CELL_DIGITS))
    accepted = _mask_of(_transposed(b"".join(profile.acceptances), n).translate(_CELL_DIGITS))
    return Network(n, offered & accepted & ~diagonal(n))


def remove_arcs(network: Network, arcs) -> Network:
    """The network with the given arcs removed; every one must be present."""
    n = network.n
    to_remove = set((int(i), int(j)) for i, j in arcs)
    missing = [a for a in to_remove if not network.has(*a)]
    if missing:
        raise ValueError(f"arcs not present: {sorted(missing)}")
    return Network(n, network.mask & ~sum(1 << (i * n + j) for i, j in to_remove))
