"""Exact decision procedures for set-system properties, with checkable witnesses.

Five properties are decided: tau-design, tau-packing, strength-t cover-free
family (CFF), strength-t parent-identifying set system (IPPS, plus its
variant over pirate sets larger than one block width), and strength-t
traceability scheme (TS).  Exhaustive mode covers the full quantifier
space and is decisive.  For TS it walks the coalitions in lexicographic
order in one loop that carries, beside the member list, the packed state
of each of its prefixes.  It first drops every outsider of a coalition
that cannot overlap the union enough, all at once, by big-integer sums of
overlap counts packed one field per block; it then decides whether some
pirate set evades the coalition by counting overlaps, and builds the
witness's pirate set a point at a time by the same counting.
Certified mode, for TS only, proves the property from the pairwise
packing condition on the blocks less a core of points that lie in all of
them (the points a design-extension certificate says were appended), and
says "inconclusive" otherwise.  IPPS tries that condition first, with the
points common to all blocks as the core (a t-TS is a t-IPPS), and
otherwise extends ambiguous point sets depth first, a point at a time.
CFF tries the same condition with t in place of t^2 (a t-TS is a
t^2-CFF, and the condition for one is the condition for the other), and
otherwise searches each block's covers.

Every depth-first search here, over CFF covers, TS coalitions, TS cell
packings and IPPS point sets, is a loop over an explicit stack, so no input
is too deep for the recursion limit; each counts its nodes in a local and
adds them to the work counter when it ends.

Every violation is reported as a structured witness that re-validates
against the raw system by direct recomputation (see :func:`check_witness`),
independent of any verifier state.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import reduce
from itertools import chain, combinations, compress, repeat
from math import comb
from operator import and_, or_
from typing import NamedTuple

from .core import (
    DEFAULT_BUDGET,
    FormatError,
    ParamsInvalid,
    SetSystem,
    TauOutOfRange,
    _ceil_div,
    _int_token,
    _mask,
    _points,
    _union,
)

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

EXHAUSTIVE = "exhaustive"
CERTIFIED = "certified"

BUDGET_EXCEEDED = "BudgetExceeded"
# Exhaustive TS filters outsiders with packed tables only while their v + m
# integers of m * F bits (see _PackedCounts), and up to three such per
# coalition member for the walk's states, fit in this many bits, 32 MB.
_PACKED_TABLE_BITS = 1 << 28


class CffCover(NamedTuple):
    """A block contained in the union of at most ``strength`` others."""

    target: int
    cover: tuple[int, ...]
    strength: int


class TsEvasion(NamedTuple):
    """A pirate set tying-or-beating every coalition member from outside.

    ``pirate`` is a w-subset of the coalition's union such that the block
    ``outsider`` satisfies |pirate & outsider| >= |pirate & member| for
    every coalition member.
    """

    coalition: tuple[int, ...]
    pirate: tuple[int, ...]
    outsider: int


class IppsAmbiguity(NamedTuple):
    """A pirate set whose covers of size <= strength share no common block."""

    pirate: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    strength: int


Witness = CffCover | TsEvasion | IppsAmbiguity


class VerifyOutcome(NamedTuple):
    verdict: str
    mode: str
    witness: Witness | None = None
    detail: str = ""
    work: int = 0

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    @property
    def violated(self) -> bool:
        return self.verdict == VIOLATED

    @property
    def inconclusive(self) -> bool:
        return self.verdict == INCONCLUSIVE


class _BudgetStop(Exception):
    pass


class _Work:
    """Work done so far and its cap, by default none.

    Hot loops count in a local against ``budget - count`` and add the total
    when they end: a :meth:`tick` call per step would cost more than the step.
    """

    __slots__ = ("count", "budget")

    def __init__(self, budget: int = sys.maxsize) -> None:
        self.count = 0
        self.budget = budget

    def tick(self, n: int = 1) -> None:
        self.count += n
        if self.count > self.budget:
            raise _BudgetStop


def _point_blocks(s: SetSystem) -> list[list[int]]:
    pb: list[list[int]] = [[] for _ in range(s.v)]
    for i, b in enumerate(s.blocks):
        for p in b:
            pb[p].append(i)
    return pb


def _point_columns(s: SetSystem) -> list[int]:
    """``cols[p]`` has bit j set iff point p lies in block j."""
    cols = [0] * s.v
    for j, b in enumerate(s.blocks):
        bit = 1 << j
        for p in b:
            cols[p] |= bit
    return cols


def _overlaps(s: SetSystem, work: _Work, cols: list[int] | None = None):
    """For each block i in turn, |B_i & B_j| for every block j, bit-sliced.

    Yields a list of planes: bit j of ``planes[k]`` is bit k of
    |B_i & B_j|, and bit i is clear in every plane.  The planes are
    counters added to one point column of B_i at a time (``cols``, built
    here if not given), with a carry rippling up while it lasts, so the
    counts of all blocks move at once.  Block i costs the sum of its
    points' degrees, one work unit each, paid before its planes are built.
    Read them with :func:`_largest`, :func:`_least` and :func:`_at_least`.
    """
    cols = _point_columns(s) if cols is None else cols
    degrees = list(map(int.bit_count, cols))
    for i, b in enumerate(s.blocks):
        work.tick(sum(map(degrees.__getitem__, b)))
        others = ~(1 << i)
        planes: list[int] = []
        for p in b:
            carry = cols[p] & others
            k = 0
            while carry:
                if k == len(planes):
                    planes.append(carry)
                    break
                plane = planes[k]
                planes[k] = plane ^ carry
                carry &= plane
                k += 1
        yield planes


def _largest(planes: list[int]) -> int:
    """The largest count held in ``planes`` (0 if none)."""
    among, top = -1, 0
    for k in range(len(planes) - 1, -1, -1):
        rest = among & planes[k]
        if rest:
            among, top = rest, top | 1 << k
    return top


def _least(planes: list[int], among: int) -> int:
    """The least count held in ``planes`` by the blocks of the non-empty mask ``among``."""
    low = 0
    for k in range(len(planes) - 1, -1, -1):
        rest = among & ~planes[k]
        if rest:
            among = rest
        else:
            low |= 1 << k
    return low


def _at_least(planes: list[int], tau: int) -> int:
    """The blocks whose count in ``planes`` is >= tau >= 1, as a mask.

    Compared from the top bit down: ``equal`` holds the counts whose bits
    so far match tau's, ``above`` those already past it.
    """
    if tau >> len(planes):
        return 0
    above, equal = 0, -1
    for k in range(len(planes) - 1, -1, -1):
        if tau >> k & 1:
            equal &= planes[k]
        else:
            above |= equal & planes[k]
            equal &= ~planes[k]
    return above | equal


def _packing_pairs(s: SetSystem, tau: int, work: _Work):
    """For each block i in turn, the mask of the blocks j > i meeting B_i in >= tau points.

    Read off :func:`_overlaps`, at its cost.  A block meeting an earlier one
    was met by it first, so the first non-empty mask is at the first block
    meeting any other.
    """
    for i, planes in enumerate(_overlaps(s, work)):
        yield _at_least(planes, tau) >> (i + 1) << (i + 1)


# ---------------------------------------------------------------------------
# designs and packings


def verify_design(s: SetSystem, tau: int, lam: int, budget: int = DEFAULT_BUDGET) -> VerifyOutcome:
    """Holds iff every tau-subset of the ground set lies in exactly lam blocks."""
    if not 1 <= tau <= s.w:
        raise TauOutOfRange(f"tau={tau} outside [1, {s.w}]")
    if lam < 0:
        raise ParamsInvalid(f"index lambda={lam} must be >= 0")
    work = _Work(budget)
    try:
        counts: Counter[tuple[int, ...]] = Counter()
        for b in s.blocks:
            work.tick(comb(s.w, tau))
            for sub in combinations(b, tau):
                counts[sub] += 1
        offenders = [sub for sub, c in counts.items() if c != lam]
        missing: tuple[int, ...] | None = None
        if lam > 0 and len(counts) < comb(s.v, tau):
            for sub in combinations(range(s.v), tau):
                work.tick()
                if sub not in counts:
                    missing = sub
                    break
        if not offenders and missing is None:
            return VerifyOutcome(HOLDS, EXHAUSTIVE, work=work.count)
        cands = ([min(offenders)] if offenders else []) + ([missing] if missing is not None else [])
        sub = min(cands)
        got = counts.get(sub, 0)
        detail = f"{tau}-subset {list(sub)} covered {got} times (expected {lam})"
        return VerifyOutcome(VIOLATED, EXHAUSTIVE, detail=detail, work=work.count)
    except _BudgetStop:
        return VerifyOutcome(INCONCLUSIVE, EXHAUSTIVE, detail=BUDGET_EXCEEDED, work=work.count)


def verify_packing(s: SetSystem, tau: int, budget: int = DEFAULT_BUDGET) -> VerifyOutcome:
    """Holds iff every tau-subset lies in at most one block."""
    if not 1 <= tau <= s.w:
        raise TauOutOfRange(f"tau={tau} outside [1, {s.w}]")
    work = _Work(budget)
    try:
        # Every two blocks must share < tau points; report the least shared tau-subset.
        repeated: tuple[int, ...] | None = None
        for i, later in enumerate(_packing_pairs(s, tau, work)):
            for j in _points(later):
                other = s.masks[j]
                cand = tuple(p for p in s.blocks[i] if other >> p & 1)[:tau]
                if repeated is None or cand < repeated:
                    repeated = cand
        if repeated is None:
            return VerifyOutcome(HOLDS, EXHAUSTIVE, work=work.count)
        detail = f"{tau}-subset {list(repeated)} covered more than once"
        return VerifyOutcome(VIOLATED, EXHAUSTIVE, detail=detail, work=work.count)
    except _BudgetStop:
        return VerifyOutcome(INCONCLUSIVE, EXHAUSTIVE, detail=BUDGET_EXCEEDED, work=work.count)


# ---------------------------------------------------------------------------
# cover-free families


def _find_cover(masks, pb: list[list[int]], target_mask: int, limit: int, w: int,
                work: _Work, skip: int = -1) -> tuple[int, ...] | None:
    """First cover of ``target_mask`` by <= limit blocks other than ``skip``.

    Blocks have width ``w`` and ``pb[p]`` lists the blocks through point p in
    ascending order.  The search branches on the lowest uncovered point, so
    the cover found depends only on the system, not on the caller.
    """
    # Blocks are nonempty, and the callers that pass a residual or a chunk
    # settle an empty one themselves.
    assert target_mask, "the target of a cover search is nonempty"
    nodes = 1  # one per selection tried, the empty one included
    room = work.budget - work.count
    try:
        if nodes > room:
            raise _BudgetStop
        if target_mask.bit_count() > limit * w:
            return None
        chosen: list[int] = []
        # stack[k]: the points the first k blocks of chosen leave uncovered,
        # and the untried blocks through the lowest of them.  A selection that
        # covers, or that the blocks left cannot complete, is settled in its
        # parent's loop.
        stack = [(target_mask, iter(pb[(target_mask & -target_mask).bit_length() - 1]))]
        while stack:
            rest, blocks = stack[-1]
            reach = (limit - len(chosen) - 1) * w  # points the blocks after b can add
            for b in blocks:
                if b != skip and b not in chosen:
                    nodes += 1
                    if nodes > room:
                        raise _BudgetStop
                    left = rest & ~masks[b]
                    if left == 0:
                        return (*chosen, b)
                    if left.bit_count() <= reach:
                        chosen.append(b)
                        stack.append((left, iter(pb[(left & -left).bit_length() - 1])))
                        break
            else:
                stack.pop()
                if chosen:
                    chosen.pop()
        return None
    finally:
        work.count += nodes


def verify_cff(s: SetSystem, t: int, budget: int = DEFAULT_BUDGET) -> VerifyOutcome:
    """Holds iff no block is contained in the union of at most t others.

    At t = 1 it holds outright, as blocks are distinct and of one width,
    and so it does with one block.  Otherwise it holds, and no cover is
    searched, when the blocks less the d points common to all of them share
    fewer than ceil((w-d)/t) points pairwise (:func:`_pairwise_certificate`,
    at its cost).  If not, :func:`_find_cover` looks for a cover of each
    block in turn, and a violation reports the first block covered and its
    first cover.
    """
    if t < 1:
        raise ParamsInvalid(f"strength t={t} must be >= 1")
    if t == 1 or s.m < 2:
        return VerifyOutcome(HOLDS, EXHAUSTIVE, detail="no block lies in another", work=0)
    work = _Work(budget)
    try:
        cert = _pairwise_certificate(s, t, work)
        if cert is not None:
            return VerifyOutcome(HOLDS, EXHAUSTIVE, detail=f"{cert} certify a {t}-CFF",
                                 work=work.count)
        pb = _point_blocks(s)
        limit = min(t, s.m - 1)
        for b0 in range(s.m):
            cover = _find_cover(s.masks, pb, s.masks[b0], limit, s.w, work, b0)
            if cover is not None:
                wit = CffCover(target=b0, cover=tuple(sorted(cover)), strength=t)
                return VerifyOutcome(VIOLATED, EXHAUSTIVE, witness=wit, work=work.count)
        return VerifyOutcome(HOLDS, EXHAUSTIVE, work=work.count)
    except _BudgetStop:
        return VerifyOutcome(INCONCLUSIVE, EXHAUSTIVE, detail=BUDGET_EXCEEDED, work=work.count)


# ---------------------------------------------------------------------------
# traceability schemes


def _ts_packs(cells, caps: list[int], keep: int, need: int, work: _Work) -> bool:
    """Whether ``need`` points of ``keep`` can be picked from the ``cells``.

    ``cells`` are (members, points) Venn cells of points in two or more
    members; each point picked uses one unit of ``caps[i]`` for every member
    i through it.  Counts per cell are searched depth first, larger first,
    one work unit per node; ``caps`` are as they were on return.
    """
    multi = []
    for members, cell in cells:
        size = (cell & keep).bit_count()
        if size and min(caps[i] for i in members):
            multi.append((members, size))
    left = [0] * (len(multi) + 1)  # points in the cells from j on
    for j in range(len(multi) - 1, -1, -1):
        left[j] = left[j + 1] + multi[j][1]
    nodes = 0
    room = work.budget - work.count
    stack = []  # (cell, count taken from it, least count to take from it)
    j = 0
    try:
        while True:
            nodes += 1
            if nodes > room:
                raise _BudgetStop
            y = lo = 0  # the counts left to try at cell j: y - 1 down to lo
            # Every point picked uses at least two units of cap.
            if left[j] >= need and 2 * need <= sum(caps):
                members, size = multi[j]
                top = min(size, need, *(caps[i] for i in members))
                if top == need:
                    return True
                y, lo = top + 1, max(0, need - left[j + 1])
            while y <= lo:  # none left: undo the count taken at the cell before
                if not stack:
                    return False
                j, y, lo = stack.pop()
                for i in multi[j][0]:
                    caps[i] += y
                need += y
            y -= 1
            for i in multi[j][0]:
                caps[i] -= y
            stack.append((j, y, lo))
            j, need = j + 1, need - y
    finally:
        work.count += nodes
        for cell, y, _ in stack:
            for i in multi[cell][0]:
                caps[i] += y


def _ts_evader(masks, coalition: tuple[int, ...], outsiders: list[int], w: int,
               work: _Work, *, fixed: int = 0, span: int | None = None) -> int | None:
    """First of ``outsiders`` that some pirate set lets evade ``coalition``.

    Decided by counting overlaps, without listing pirate sets.  Pirate sets
    are the w-subsets of ``span`` (a subset of the coalition's union U,
    all of U by default) that hold the points of ``fixed``; the other points
    are free.  Let O be an outsider.  Swapping a free pirate point outside O
    for an unused free point of O never lowers O's margin over a member, so
    some best pirate set takes as many free points of O as fit.  If they
    fill the pirate set, the rest are picked inside O, with at most
    cap_i = |P & O| - |fixed & B_i| of them in member B_i; otherwise all
    free points of O are taken and the rest are picked from span - O, with
    cap_i = |P & O| - |(fixed | free points of O) & B_i|.  A negative cap
    means O cannot evade, and caps of at least the number left to pick
    mean O evades outright.  By the same swap, a point in B_i alone is
    never worse than one in B_i and other members, so B_i's own points are
    taken first, up to cap_i; the points in several members are then
    packed by :func:`_ts_packs`.  Returns None iff no such pirate set lets
    any of ``outsiders`` evade.  One work unit per outsider examined, plus
    the packing nodes.
    """
    span = _union(masks, coalition) if span is None else span
    if span.bit_count() < w:
        return None
    work.tick(len(outsiders))
    coal_masks = [masks[i] & span for i in coalition]
    shared = seen = 0  # shared: the points in two or more members
    for b in coal_masks:
        shared |= seen & b
        seen |= b
    lone = span & ~shared
    free = span & ~fixed
    pick = w - fixed.bit_count()
    # O can evade only if |P & O| >= the largest member overlap, which is
    # at least ceil(w / |C|), as every point of P is in some member.
    least = _ceil_div(w, len(coal_masks))
    cells = None
    for o in outsiders:
        om = masks[o]
        a = (om & span).bit_count()
        if a < least:
            continue
        got = (om & free).bit_count()
        if got >= pick:  # the free points of O fill the pirate set
            a -= got - pick
            taken, keep, need = fixed, om & free, pick
        else:
            taken, keep, need = om | fixed, free & ~om, pick - got
        caps = [a - (taken & b).bit_count() for b in coal_masks]
        # Every point picked uses at least one unit of cap.
        if sum(caps) < need or min(caps) < 0:
            continue
        if min(caps) >= need:
            return o
        for i, b in enumerate(coal_masks):
            own = min(caps[i], (b & lone & keep).bit_count())
            need -= own
            caps[i] -= own
        if need <= 0:
            return o
        if cells is None:
            cells = [((), shared)]
            for i, b in enumerate(coal_masks):  # split where points lie
                cells = ([(c, p & ~b) for c, p in cells if p & ~b]
                         + [(c + (i,), p & b) for c, p in cells if p & b])
        if _ts_packs(cells, caps, keep, need, work):
            return o
    return None


def _ts_witness(masks, coalition: tuple[int, ...], outsiders: list[int], w: int,
                work: _Work) -> tuple[tuple[int, ...], int] | None:
    """Lexicographically first (pirate set, outsider) evading ``coalition``.

    The pirate set is built a point at a time: the next point is the least
    p of the union above the prefix for which :func:`_ts_evader` finds an
    outsider evading some completion of prefix + p by points above p.  An
    outsider no completion of a prefix lets evade stays out for every
    longer prefix, so each scan resumes at the outsider last found; once
    all w points are fixed, that is the first of ``outsiders`` the pirate
    set lets evade.  Returns None iff no pirate set evades the coalition.
    """
    prefix, above = 0, _union(masks, coalition)
    found = _ts_evader(masks, coalition, outsiders, w, work)
    while found is not None and prefix.bit_count() < w:
        outsiders = outsiders[outsiders.index(found):]
        for p in _points(above):
            found = _ts_evader(masks, coalition, outsiders, w, work,
                               fixed=prefix | 1 << p, span=prefix | (above >> p << p))
            if found is not None:
                break
        prefix, above = prefix | 1 << p, above >> (p + 1) << (p + 1)
    return None if found is None else (tuple(_points(prefix)), found)


class _Table(dict):
    """A dict that builds each missing entry with ``build`` on first use."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _PackedCounts:
    """Overlap counts of every block with a coalition, packed into integers.

    Block o owns field o, ``width`` bits wide, whose top bit is a guard; a
    field holds at most (k + 1) * w below it, for k <= min(t, m).
    ``cols[p]`` has 1 in the field of each block in point column p, so a sum
    of cols over a point set P holds |B_o & P| in field o, for all o at
    once; ``rows[i]``, the sum over B_i, holds |B_o & B_i|.  Both are
    built on first use.  A coalition's state is (U, A, S, G): its union,
    the sum of cols over U, the sum of its members' rows, and the guard
    bits of the blocks outside it; adding a member costs one col per new
    point of U.
    """

    __slots__ = ("masks", "width", "half", "ones", "empty", "cols", "rows")

    def __init__(self, s: SetSystem, t: int, cols: list[int]) -> None:
        self.masks = s.masks
        self.width = width = ((min(t, s.m) + 1) * s.w).bit_length() + 1
        self.half = 1 << (width - 1)
        self.ones = ((1 << width * s.m) - 1) // ((1 << width) - 1)
        self.empty = (0, 0, 0, self.half * self.ones)
        fields = self.cols = _Table(lambda p: sum(1 << width * o for o in _points(cols[p])))
        self.rows = _Table(lambda i: sum(map(fields.__getitem__, s.blocks[i])))

    def extend(self, state: tuple[int, int, int, int], i: int) -> tuple[int, int, int, int]:
        """The state of a coalition once block i joins it."""
        u, a, sums, guards = state
        a += sum(map(self.cols.__getitem__, _points(self.masks[i] & ~u)))
        return u | self.masks[i], a, sums + self.rows[i], guards & ~(self.half << self.width * i)

    def survivors(self, state: tuple[int, int, int, int], k: int, w: int) -> int:
        """Guard bits of the outsiders of a k-member coalition that pass
        :func:`_ts_evader`'s caps test: sum_i (a - |O & B_i|) >= w - a with
        a = |O & U|, that is (k + 1) a - sum_i |O & B_i| >= w (which a >= w
        implies).  It implies that scan's first test, a >= ceil(w / k): every
        point of O & U is in some member, so sum_i |O & B_i| >= a and k a >= w.
        Each field is offset by half its range, so it stays in [0, 2^width)
        and no borrow crosses into the next.
        """
        _, a, sums, guards = state
        return ((k + 1) * a + (self.half - w) * self.ones - sums) & guards


def _pairwise_certificate(s: SetSystem, k: int, work: _Work, core: int | None = None) -> str | None:
    """Whether the blocks less ``core`` share < tau = ceil((w - d)/k) points pairwise.

    ``core`` is a mask of d < w points in every block, by default all the
    points common to the blocks (then m >= 2).  Returns the start of a
    detail that names the certificate, or None.  Every block meets a point
    set T in |T & core| plus its overlap with T - core, so the core cancels.
    At k = t^2, s is a t-TS: T - core has at least w - d points for a
    pirate set T, some member of a coalition of at most t blocks holds
    ceil((w - d)/t) or more of them, an outsider at most
    t (tau - 1) < (w - d)/t.  With d = 0 this is Stinson and Wei's
    condition.  At k = t, s is a t-CFF: a cover of a block B need only
    cover the w - d points of B - core, and t other blocks reach at most
    t (tau - 1) < w - d of them.  The scan is :func:`_packing_pairs` on
    the stripped blocks, at its cost.
    """
    core = reduce(and_, s.masks) if core is None else core
    d = core.bit_count()
    tau = _ceil_div(s.w - d, k)
    if core:
        s = SetSystem(s.v, s.w - d, tuple(tuple(p for p in b if not core >> p & 1)
                                          for b in s.blocks))
    if any(_packing_pairs(s, tau, work)):
        return None
    where = f" outside {d} common points" if core else ""
    return f"pairwise intersections{where} below {tau}"


def verify_ts(s: SetSystem, t: int, mode: str = EXHAUSTIVE,
              budget: int = DEFAULT_BUDGET, certificate=None) -> VerifyOutcome:
    """Decide the strength-t traceability property.

    Exhaustive mode checks every coalition of 2..t blocks against every
    outside block (size-1 coalitions cannot be evaded because blocks are
    distinct).  One loop walks them in lexicographic order over a member
    list ``c``: append c[-1] + 1, else raise c[-1], else drop c[-1] (it is
    m - 1) and raise the member before.  A coalition no outsider can
    overlap enough is skipped, first by the members' largest overlaps, then
    by :class:`_PackedCounts`, which applies :func:`_ts_evader`'s caps
    test, and so its first test too, to all outsiders at once and counts
    the m - |C| units that scan would.  ``states[d]`` is the packed state
    of c[:d + 1], or None until a coalition needs it; it is pushed, reset
    and popped with c[d], so it always belongs to the members now in
    ``c``.  Systems whose tables and states could pass
    :data:`_PACKED_TABLE_BITS` go without this filter.
    For the others, whether some pirate set lets an outsider evade is
    decided by counting overlaps (:func:`_ts_evader`); for the first evaded
    coalition, :func:`_ts_witness` builds the lexicographically first
    pirate set from the same counts, without listing w-subsets of the union.

    Certified mode accepts :func:`_pairwise_certificate`'s bound, checked
    up to the first pair that fails it, and is otherwise inconclusive.  Its
    core is the d points ``certificate`` says were appended, the last d
    labels, or none; its t and tau are not read.  A certificate whose d is
    not an int in [0, w), or whose points miss a block, is ignored, and its
    reason is the detail if the plain scan fails.
    """
    if t < 1:
        raise ParamsInvalid(f"strength t={t} must be >= 1")
    work = _Work(budget)
    if mode == CERTIFIED:
        if s.m <= 1:
            return VerifyOutcome(HOLDS, CERTIFIED, detail="at most one block", work=0)
        core, detail = 0, "no packing certificate; run exhaustive mode"
        if certificate is not None:
            d = getattr(certificate, "d", None)
            if type(d) is not int or not 0 <= d < s.w:
                detail = f"certificate d={d!r} outside [0, {s.w - 1}]"
            else:
                core = _mask(range(s.v - d, s.v))
                if any(mask & core != core for mask in s.masks):
                    core, detail = 0, "appended points missing from some block"
        try:
            cert = _pairwise_certificate(s, t * t, work, core)
            if cert is not None:
                return VerifyOutcome(HOLDS, CERTIFIED, detail=f"{cert} certify strength {t}",
                                     work=work.count)
        except _BudgetStop:
            detail = BUDGET_EXCEEDED
        return VerifyOutcome(INCONCLUSIVE, CERTIFIED, detail=detail, work=work.count)
    if mode != EXHAUSTIVE:
        raise ParamsInvalid(f"unknown mode {mode!r}")
    if t == 1 or s.m <= 1:
        return VerifyOutcome(HOLDS, EXHAUSTIVE, detail="size-1 coalitions cannot be evaded",
                             work=0)
    masks, w, m = s.masks, s.w, s.m
    # An outsider O needs |O & U| >= ceil(w / |C|), and |O & U| is at most
    # the sum of the members' largest overlaps with any other block.
    least = [0] + [_ceil_div(w, k) for k in range(1, min(t, m) + 1)]
    cols = _point_columns(s)
    packed = _PackedCounts(s, t, cols)
    fits = (s.v + m + 3 * min(t, m)) * m * packed.width <= _PACKED_TABLE_BITS
    try:
        maxima = map(_largest, _overlaps(s, work, cols))
        rowmax: list[int] = []
        c: list[int] = [0]
        states: list[tuple[int, int, int, int] | None] = [None]
        while True:
            if len(c) < t and c[-1] + 1 < m:
                c.append(c[-1] + 1)
                states.append(None)
            else:
                if c[-1] + 1 == m:
                    c.pop()
                    states.pop()
                    if not c:
                        break
                c[-1] += 1
                states[-1] = None
            k = len(c)
            if k < 2:
                continue
            work.tick()
            while len(rowmax) <= c[-1]:
                rowmax.append(next(maxima))
            if sum(map(rowmax.__getitem__, c)) < least[k]:
                continue
            if fits:
                # The known states are a prefix of ``states``; extend the last.
                d = k - 1
                while d and states[d - 1] is None:
                    d -= 1
                state = states[d - 1] if d else packed.empty
                for d in range(d, k):
                    state = states[d] = packed.extend(state, c[d])
                if not packed.survivors(state, k, w):
                    work.tick(m - k)  # what _ts_evader counts for its outsiders
                    continue
            coalition = tuple(c)
            outsiders = [o for o in range(m) if o not in coalition]
            found = _ts_witness(masks, coalition, outsiders, w, work)
            if found is not None:
                wit = TsEvasion(coalition=coalition, pirate=found[0], outsider=found[1])
                return VerifyOutcome(VIOLATED, EXHAUSTIVE, witness=wit, work=work.count)
        return VerifyOutcome(HOLDS, EXHAUSTIVE, work=work.count)
    except _BudgetStop:
        return VerifyOutcome(INCONCLUSIVE, EXHAUSTIVE, detail=BUDGET_EXCEEDED, work=work.count)


# ---------------------------------------------------------------------------
# parent-identifying set systems


def _ipps_push(levels: list[tuple[list[int], list[int]]], mask: int, index: int) -> None:
    """Add block ``index``, of point mask ``mask``, to the selections in ``levels``.

    ``levels[k]`` lists the unions and the block bits of the selections of
    k + 1 blocks, in two lists: a pair per selection took a third more
    memory.  Level k >= 1 gains the block joined to each selection level
    k - 1 held before the push, and level 0 the block alone, so pushing
    every block lists all selections of at most ``len(levels)`` blocks.
    """
    bit = 1 << index
    for k in range(len(levels) - 1, 0, -1):
        (unions, bits), (below, below_bits) = levels[k], levels[k - 1]
        unions += map(or_, below, repeat(mask))
        bits += map(or_, below_bits, repeat(bit))
    levels[0][0].append(mask)
    levels[0][1].append(bit)


def _ipps_pop(levels: list[tuple[list[int], list[int]]]) -> None:
    """Undo the last :func:`_ipps_push`.

    The push added one selection to level 0, and to level k as many as
    level k - 1 holds once its own are removed, so no length is kept.
    """
    del levels[0][0][-1], levels[0][1][-1]
    for (below, _), (unions, bits) in zip(levels, levels[1:]):
        size = len(unions) - len(below)
        del unions[size:], bits[size:]


def _ipps_ambiguity(levels: list[tuple[list[int], list[int]]], w: int, work: _Work):
    """Lexicographically first ambiguous w-set and the block bits of its covers.

    ``levels`` lists the selections of at most t blocks by size, as
    :func:`_ipps_push` builds them; the order within a size does not matter.
    A point set is ambiguous when some selection covers it and the
    selections that cover it share no block.  A cover of a set covers each
    of its subsets, so the subsets of an ambiguous set are ambiguous: a
    depth-first walk over points in ascending order that extends only
    ambiguous prefixes meets every ambiguous w-set, the lexicographically
    first one first.  A prefix carries the selections that cover it.
    Returns None when there is no such set.  One work unit per selection
    examined.  The walk is a loop over an explicit stack, so a prefix of
    thousands of points does not meet the recursion limit.
    """
    unions = list(chain.from_iterable(unions for unions, _ in levels))
    bits = list(chain.from_iterable(bits for _, bits in levels))
    prefix: list[int] = []
    stack = []  # the selections and the untried points of each shorter prefix
    nodes = 0
    room = work.budget - work.count
    pool = reduce(or_, unions)
    try:
        while True:
            # The selections covering the prefix share no block; try each
            # point some of them cover, above the prefix's last point.
            size = len(unions)
            while pool:
                bit = pool & -pool
                pool ^= bit
                nodes += size
                if nodes > room:
                    raise _BudgetStop
                keep = list(map(and_, unions, repeat(bit)))
                covers = list(compress(bits, keep))
                if reduce(and_, covers):
                    continue
                prefix.append(bit.bit_length() - 1)
                if len(prefix) == w:
                    return tuple(prefix), covers
                stack.append((unions, bits, pool))
                unions, bits = list(compress(unions, keep)), covers
                pool = reduce(or_, unions) & ~((bit << 1) - 1)
                break
            else:
                if not stack:
                    return None
                unions, bits, pool = stack.pop()
                prefix.pop()
    finally:
        work.count += nodes


def verify_ipps(s: SetSystem, t: int, budget: int = DEFAULT_BUDGET) -> VerifyOutcome:
    """Holds iff every width-w pirate set with a cover has a common parent block.

    A t-TS is a t-IPPS: a block of largest overlap with the pirate set lies
    in every cover.  So a system holds, and no selection is listed, when
    its blocks less the d points common to all of them share fewer than
    ceil((w-d)/t^2) points pairwise: the certificate of certified TS
    (:func:`_pairwise_certificate`), at its cost.  Otherwise
    each size k = 1..min(t, m) is paid for, C(m, k) work units, before any
    selection is listed, so the budget also bounds memory; then the blocks
    are pushed one by one (:func:`_ipps_push`) and :func:`_ipps_ambiguity`
    decides.  A violation reports the lexicographically first ambiguous
    w-set and all its minimal covers.
    """
    if t < 1:
        raise ParamsInvalid(f"strength t={t} must be >= 1")
    if s.m < 2:  # one block is a common parent of all it covers
        return VerifyOutcome(HOLDS, EXHAUSTIVE, work=0)
    work = _Work(budget)
    try:
        cert = _pairwise_certificate(s, t * t, work)
        if cert is not None:
            detail = f"{cert} certify a {t}-TS, so a {t}-IPPS"
            return VerifyOutcome(HOLDS, EXHAUSTIVE, detail=detail, work=work.count)
        levels: list[tuple[list[int], list[int]]] = [([], []) for _ in range(min(t, s.m))]
        for k in range(1, len(levels) + 1):
            size = comb(s.m, k)
            if work.count + size > work.budget:
                raise _BudgetStop
            work.count += size
        for i, mask in enumerate(s.masks):
            _ipps_push(levels, mask, i)
        found = _ipps_ambiguity(levels, s.w, work)
    except _BudgetStop:
        return VerifyOutcome(INCONCLUSIVE, EXHAUSTIVE, detail=BUDGET_EXCEEDED, work=work.count)
    if found is None:
        return VerifyOutcome(HOLDS, EXHAUSTIVE, work=work.count)
    pirate, covers = found
    # A cover is minimal when no cover is one block smaller.
    covers = set(covers)
    parents = sorted(tuple(_points(b)) for b in covers
                     if not any(b & ~(1 << i) in covers for i in _points(b)))
    wit = IppsAmbiguity(pirate=pirate, parents=tuple(parents), strength=t)
    return VerifyOutcome(VIOLATED, EXHAUSTIVE, witness=wit, work=work.count)


def verify_ipps_star(s: SetSystem, t: int, budget: int = DEFAULT_BUDGET) -> VerifyOutcome:
    """Like :func:`verify_ipps` but pirate sets range over sizes w..t*w.

    The same decision: a larger ambiguous set has an ambiguous w-point
    prefix, which sorts before it, so verdict and witness are those of
    :func:`verify_ipps`.
    """
    return verify_ipps(s, t, budget)


# ---------------------------------------------------------------------------
# witness re-validation and text form


def check_witness(s: SetSystem, wit: Witness) -> tuple[bool, str]:
    """Re-validate a witness against the raw system by direct recomputation."""
    m = s.m
    if isinstance(wit, CffCover):
        if not 0 <= wit.target < m:
            return False, "target index out of range"
        if len(set(wit.cover)) != len(wit.cover) or not wit.cover:
            return False, "cover indices not distinct or empty"
        if any(not 0 <= i < m for i in wit.cover) or wit.target in wit.cover:
            return False, "cover indices invalid"
        if wit.strength < 1 or len(wit.cover) > wit.strength:
            return False, f"cover size {len(wit.cover)} exceeds strength {wit.strength}"
        union = s.union_mask(wit.cover)
        if s.masks[wit.target] & ~union:
            return False, "cover does not contain the target block"
        return True, "cover verified"
    if isinstance(wit, TsEvasion):
        coal = wit.coalition
        if not coal or len(set(coal)) != len(coal):
            return False, "coalition empty or repeated"
        if any(not 0 <= i < m for i in coal):
            return False, "coalition index out of range"
        if not 0 <= wit.outsider < m or wit.outsider in coal:
            return False, "outsider invalid"
        pirate = wit.pirate
        if len(pirate) != s.w or any(pirate[i] >= pirate[i + 1] for i in range(len(pirate) - 1)):
            return False, "pirate set must be an ascending w-subset"
        if any(not 0 <= p < s.v for p in pirate):
            return False, "pirate point out of range"
        t_mask = _mask(pirate)
        if t_mask & ~s.union_mask(coal):
            return False, "pirate set not inside the coalition union"
        out_overlap = (t_mask & s.masks[wit.outsider]).bit_count()
        for j in coal:
            if out_overlap < (t_mask & s.masks[j]).bit_count():
                return False, f"outsider overlap below member {j}"
        return True, "evasion verified"
    if isinstance(wit, IppsAmbiguity):
        pirate = wit.pirate
        if len(pirate) < s.w or any(pirate[i] >= pirate[i + 1] for i in range(len(pirate) - 1)):
            return False, "pirate set must be ascending with at least w points"
        if any(not 0 <= p < s.v for p in pirate):
            return False, "pirate point out of range"
        if not wit.parents:
            return False, "no parent sets listed"
        t_mask = _mask(pirate)
        for parent in wit.parents:
            if not parent or len(set(parent)) != len(parent):
                return False, "parent set empty or repeated"
            if any(not 0 <= i < m for i in parent):
                return False, "parent index out of range"
            if len(parent) > wit.strength:
                return False, "parent set larger than strength"
            if t_mask & ~s.union_mask(parent):
                return False, "a parent set does not cover the pirate set"
        shared = set(wit.parents[0])
        for parent in wit.parents[1:]:
            shared &= set(parent)
        if shared:
            return False, "parent sets share a common block"
        return True, "ambiguity verified"
    return False, f"unknown witness type {type(wit).__name__}"


def render_witness(wit: Witness) -> str:
    """Deterministic text block, one line per component."""
    if isinstance(wit, CffCover):
        lines = ["witness cff-cover",
                 f"strength {wit.strength}",
                 f"target {wit.target}",
                 "cover " + " ".join(map(str, wit.cover))]
    elif isinstance(wit, TsEvasion):
        lines = ["witness ts-evasion",
                 "coalition " + " ".join(map(str, wit.coalition)),
                 "pirate " + " ".join(map(str, wit.pirate)),
                 f"outsider {wit.outsider}"]
    elif isinstance(wit, IppsAmbiguity):
        lines = ["witness ipps-ambiguity",
                 f"strength {wit.strength}",
                 "pirate " + " ".join(map(str, wit.pirate))]
        lines.extend("parent " + " ".join(map(str, p)) for p in wit.parents)
    else:
        raise FormatError(f"cannot render {type(wit).__name__}")
    return "\n".join(lines) + "\n"


def parse_witness(text: str) -> Witness:
    """Parse the text block produced by :func:`render_witness`."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("witness "):
        raise FormatError("missing 'witness <kind>' line")
    kind = lines[0].split(None, 1)[1]
    fields: dict[str, list[list[int]]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        key, vals = parts[0], [_int_token(v) for v in parts[1:]]
        if not vals:
            raise FormatError(f"no values in line {ln!r}")
        if None in vals:
            raise FormatError(f"non-integer value in line {ln!r}")
        fields.setdefault(key, []).append(vals)

    def one(key: str, width: int | None = None) -> list[int]:
        if key not in fields or len(fields[key]) != 1:
            raise FormatError(f"expected exactly one '{key}' line")
        vals = fields[key][0]
        if width is not None and len(vals) != width:
            raise FormatError(f"'{key}' expects {width} value(s)")
        return vals

    if kind == "cff-cover":
        if set(fields) != {"strength", "target", "cover"}:
            raise FormatError("cff-cover needs strength, target, cover lines")
        return CffCover(target=one("target", 1)[0],
                        cover=tuple(one("cover")),
                        strength=one("strength", 1)[0])
    if kind == "ts-evasion":
        if set(fields) != {"coalition", "pirate", "outsider"}:
            raise FormatError("ts-evasion needs coalition, pirate, outsider lines")
        return TsEvasion(coalition=tuple(one("coalition")),
                         pirate=tuple(one("pirate")),
                         outsider=one("outsider", 1)[0])
    if kind == "ipps-ambiguity":
        if set(fields) != {"strength", "pirate", "parent"}:
            raise FormatError("ipps-ambiguity needs strength, pirate, parent lines")
        parents = tuple(tuple(p) for p in fields["parent"])
        return IppsAmbiguity(pirate=tuple(one("pirate")),
                             parents=parents,
                             strength=one("strength", 1)[0])
    raise FormatError(f"unknown witness kind {kind!r}")
