"""Immutable uniform set systems: blocks, intersections, own-subsets, text format.

A set system is a ground set {0, ..., v-1} together with a collection of
distinct w-subsets (blocks).  Everything downstream (verifiers, bounds,
constructions, searches) consumes the ``SetSystem`` built here.  Blocks are
kept in canonical lexicographic order so all outputs are reproducible.

The bitmask primitives shared by the other modules live here too: a point
set is an int with bit p set for point p, each k-subset of a ground set is
computed as a mask from the one before it in colex order, and own-subsets are
generated lazily, so a caller that needs only the first pays only for it.
"""

from __future__ import annotations

from itertools import combinations, repeat
from operator import ge
from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_GROUND_SET = 4096
# The work budget of a decision when none is given; verify exports it.
DEFAULT_BUDGET = 10**9
# The node budget of the optimum search when none is given.
DEFAULT_SEARCH_BUDGET = 2_000_000


class SchemeError(Exception):
    """Base class for all errors raised by this package."""


class NonUniformBlocks(SchemeError):
    """Blocks of differing widths were supplied."""


class DuplicateBlock(SchemeError):
    """The same block was supplied more than once."""


class PointOutOfRange(SchemeError):
    """A point index falls outside [0, v)."""


class TauOutOfRange(SchemeError):
    """Subset size tau outside [1, w]."""


class ParamsInvalid(SchemeError):
    """Scheme parameters violate v >= w >= t >= 2 or another constraint."""


class FormatError(SchemeError):
    """Malformed set-system or witness text."""


class BudgetExceeded(SchemeError):
    """An enumeration outgrew its work budget."""


def _mask(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def _union(masks: Sequence[int], indices: Iterable[int]) -> int:
    u = 0
    for i in indices:
        u |= masks[i]
    return u


def _points(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    pts = []
    while mask:
        low = mask & -mask
        pts.append(low.bit_length() - 1)
        mask ^= low
    return pts


def _colex_next(mask: int) -> int:
    """The next k-subset after ``mask`` in colexicographic order (mask != 0).

    Colex order is numeric order of the masks, so this is the next larger
    mask with as many bits set: Gosper's successor (HAKMEM item 175).  The
    k-subsets of range(v) run from (1 << k) - 1 until the mask reaches 1 << v.
    """
    low = mask & -mask
    ripple = mask + low
    return ripple | ((ripple ^ mask) >> 2) // low


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _int_token(token: str) -> int | None:
    """The value of an ASCII decimal token with an optional leading '-', else None.

    ``str.isdigit`` alone also accepts non-ASCII digits such as '²', which
    ``int`` then rejects.
    """
    digits = token[1:] if token.startswith("-") else token
    if digits.isascii() and digits.isdigit():
        return int(token)
    return None


class SetSystem:
    """Uniform set system over ground set {0, ..., v-1}.

    Immutable after construction; safe to share across workers.  ``blocks``
    is lexicographically sorted, each block strictly ascending.  ``masks``
    holds one bitmask per block for fast intersection counting; it is
    derived from ``blocks``, so a system built directly has it too.
    Equality, hash and repr read ``v``, ``w`` and ``blocks`` only.  It is
    deliberately not a tuple: callers tell a system from a (system,
    certificate) pair by that.
    """

    __slots__ = ("v", "w", "blocks", "masks")
    v: int
    w: int
    blocks: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]

    def __init__(self, v: int, w: int, blocks: tuple[tuple[int, ...], ...]) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "v", v)
        setattr_(self, "w", w)
        setattr_(self, "blocks", blocks)
        setattr_(self, "masks", tuple(_mask(b) for b in blocks))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"SetSystem(v={self.v!r}, w={self.w!r}, blocks={self.blocks!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.v, self.w, self.blocks) == (other.v, other.w, other.blocks)

    def __hash__(self) -> int:
        return hash((self.v, self.w, self.blocks))

    def __reduce__(self):
        return SetSystem, (self.v, self.w, self.blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)

    def union_mask(self, indices: Iterable[int]) -> int:
        return _union(self.masks, indices)


def _check_ground_set(v: int) -> None:
    if not isinstance(v, int) or v < 0:
        raise ParamsInvalid(f"ground set size must be a nonnegative integer, got {v!r}")
    if v > MAX_GROUND_SET:
        raise ParamsInvalid(f"ground set size {v} exceeds cap {MAX_GROUND_SET}")


def new_set_system(v: int, blocks: Sequence[Sequence[int]], width: int | None = None) -> SetSystem:
    """Validate and canonicalize a set system.

    Blocks are sorted lexicographically; each block must be a strictly
    ascending sequence of in-range points, all of one width.  ``width`` is
    only consulted when ``blocks`` is empty.
    """
    _check_ground_set(v)
    canon: list[tuple[int, ...]] = []
    for raw in blocks:
        b = tuple(raw)
        if not all(map(isinstance, b, repeat(int))):
            raise PointOutOfRange(f"non-integer point in block {b!r}")
        if any(map(ge, b, b[1:])):
            raise FormatError(f"block {b!r} is not strictly ascending")
        if b and (b[0] < 0 or b[-1] >= v):
            raise PointOutOfRange(f"block {b!r} has a point outside [0, {v})")
        canon.append(b)
    if canon:
        w = len(canon[0])
        if any(len(b) != w for b in canon):
            raise NonUniformBlocks("blocks have differing widths")
        if w == 0:
            raise NonUniformBlocks("blocks must be nonempty")
    else:
        w = width or 0
    canon.sort()
    for i in range(len(canon) - 1):
        if canon[i] == canon[i + 1]:
            raise DuplicateBlock(f"block {canon[i]!r} appears more than once")
    return SetSystem(v=v, w=w, blocks=tuple(canon))


class _SchemeFields(NamedTuple):
    t: int
    w: int
    v: int


class SchemeParams(_SchemeFields):
    """Parameter triple (t, w, v) with v >= w >= t >= 2."""

    __slots__ = ()

    def __new__(cls, t: int, w: int, v: int) -> SchemeParams:
        if not (v >= w >= t >= 2):
            raise ParamsInvalid(f"need v >= w >= t >= 2, got t={t} w={w} v={v}")
        return super().__new__(cls, t, w, v)

    @classmethod
    def _make(cls, iterable) -> SchemeParams:
        """Build through ``__new__``, so ``_replace`` validates too."""
        return cls(*iterable)


class OwnSubsetReport(NamedTuple):
    """All tau-subsets of one block contained in no other block."""

    block_index: int
    size: int
    own_subsets: tuple[tuple[int, ...], ...]
    count: int


def _own_subsets(s: SetSystem, block_index: int, tau: int) -> Iterator[tuple[int, ...]]:
    """Each tau-subset of the given block lying in no other block, in
    lexicographic order, one at a time; the block index and tau are
    checked at the call."""
    if not 0 <= block_index < s.m:
        raise PointOutOfRange(f"block index {block_index} outside [0, {s.m})")
    if not 1 <= tau <= s.w:
        raise TauOutOfRange(f"tau={tau} outside [1, {s.w}]")
    # A subset lies in another block B' iff it misses B - B'; only the B'
    # meeting this block B in tau points or more can hold a tau-subset.
    mask = s.masks[block_index]
    gaps = [mask & ~r for i, r in enumerate(s.masks)
            if i != block_index and (r & mask).bit_count() >= tau]
    return (sub for sub in combinations(s.blocks[block_index], tau)
            if all(map(_mask(sub).__and__, gaps)))


def _has_own_subset(s: SetSystem, block_index: int, tau: int) -> bool:
    """Whether some tau-subset of the given block lies in no other block.

    Decided without listing subsets.  A point set inside block B lies in no
    other block B' iff it meets every B - B', and a set of at most tau such
    points extends inside B to a tau-subset that still meets them all.  So
    the question is whether the sets B - B' have a hitting set of at most
    tau points; only the B' meeting B in tau points or more matter.  The
    search branches on the smallest set not yet hit, one branch per point;
    a point tried in one branch is left out of the later branches.
    """
    mask = s.masks[block_index]
    sets = {mask & ~r for i, r in enumerate(s.masks)
            if i != block_index and (r & mask).bit_count() >= tau}
    stack = [(sets, tau)]
    while stack:
        sets, left = stack.pop()
        if not sets:
            return True
        if left == 0:
            continue
        smallest = min(sets, key=int.bit_count)
        tried = 0
        while smallest:
            bit = smallest & -smallest
            smallest ^= bit
            rest = [x & ~tried for x in sets if not x & bit]
            if all(rest):  # a set emptied by the points left out cannot be hit
                stack.append((rest, left - 1))
            tried |= bit
    return False


def enumerate_own_subsets(s: SetSystem, block_index: int, tau: int) -> OwnSubsetReport:
    """List every tau-subset of the given block lying in no other block."""
    own = tuple(_own_subsets(s, block_index, tau))
    return OwnSubsetReport(block_index=block_index, size=tau,
                           own_subsets=own, count=len(own))


def render_set_system(s: SetSystem) -> str:
    """Canonical text form: header line then one ascending block per line."""
    lines = [f"setsystem v={s.v} w={s.w} m={s.m}"]
    lines.extend(" ".join(str(p) for p in b) for b in s.blocks)
    return "\n".join(lines) + "\n"


def parse_set_system(text: str) -> SetSystem:
    """Parse the text format produced by :func:`render_set_system`.

    Rejects trailing garbage, out-of-range points, width mismatches, a
    header width outside [1, v] and a block count that disagrees with the
    header.  ``#`` lines and blank lines are ignored.
    """
    header: tuple[int, int, int] | None = None
    body: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            fields = line.split()
            if len(fields) != 4 or fields[0] != "setsystem":
                raise FormatError(f"line {lineno}: expected 'setsystem v=.. w=.. m=..'")
            vals = {}
            for f in fields[1:]:
                key, _, num = f.partition("=")
                val = _int_token(num)
                if key not in ("v", "w", "m") or val is None:
                    raise FormatError(f"line {lineno}: bad header field {f!r}")
                vals[key] = val
            if set(vals) != {"v", "w", "m"} or vals["m"] < 0 or not 1 <= vals["w"] <= vals["v"]:
                raise FormatError(f"line {lineno}: bad header {line!r}")
            header = (vals["v"], vals["w"], vals["m"])
            continue
        tokens = line.split()
        joined = "".join(tokens)
        if not (joined.isascii() and joined.isdigit()):  # exactly when every token is
            raise FormatError(f"line {lineno}: trailing garbage {line!r}")
        body.append(list(map(int, tokens)))
    if header is None:
        raise FormatError("missing 'setsystem' header line")
    v, w, m = header
    if len(body) != m:
        raise FormatError(f"header declares m={m} but found {len(body)} blocks")
    if any(len(b) != w for b in body):
        raise FormatError(f"block width disagrees with header w={w}")
    try:
        return new_set_system(v, body, width=w)
    except SchemeError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise FormatError(str(exc)) from exc
