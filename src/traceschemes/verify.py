"""Exact decision procedures for set-system properties, with checkable witnesses.

Five properties are decided: tau-design, tau-packing, strength-t cover-free
family (CFF), strength-t parent-identifying set system (IPPS, plus its
variant over pirate sets larger than one block width), and strength-t
traceability scheme (TS).  Exhaustive mode covers the full quantifier
space and is decisive; for TS it decides whether some pirate set evades a
coalition by counting overlaps, and lists pirate sets only to write the
witness.  Certified mode for TS proves the property from a
pairwise-intersection packing condition or from a design-extension
certificate, and says "inconclusive" otherwise.

Every violation is reported as a structured witness that re-validates
against the raw system by direct recomputation (see :func:`check_witness`),
independent of any verifier state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import (
    FormatError,
    ParamsInvalid,
    SetSystem,
    TauOutOfRange,
    _ceil_div,
    _int_token,
    _mask,
    _points,
    _union,
    new_set_system,
)

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

EXHAUSTIVE = "exhaustive"
CERTIFIED = "certified"

BUDGET_EXCEEDED = "BudgetExceeded"
DEFAULT_BUDGET = 10**9


@dataclass(frozen=True)
class CffCover:
    """A block contained in the union of at most ``strength`` others."""

    target: int
    cover: tuple[int, ...]
    strength: int


@dataclass(frozen=True)
class TsEvasion:
    """A pirate set tying-or-beating every coalition member from outside.

    ``pirate`` is a w-subset of the coalition's union such that the block
    ``outsider`` satisfies |pirate & outsider| >= |pirate & member| for
    every coalition member.
    """

    coalition: tuple[int, ...]
    pirate: tuple[int, ...]
    outsider: int


@dataclass(frozen=True)
class IppsAmbiguity:
    """A pirate set whose covers of size <= strength share no common block."""

    pirate: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    strength: int


Witness = CffCover | TsEvasion | IppsAmbiguity


@dataclass(frozen=True)
class VerifyOutcome:
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
    """Work done so far and its cap.

    Hot loops count in a local against ``budget - count`` and add the total
    when they end: a :meth:`tick` call per step would cost more than the step.
    """

    __slots__ = ("count", "budget")

    def __init__(self, budget: int) -> None:
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


# ---------------------------------------------------------------------------
# designs and packings


def verify_design(s: SetSystem, tau: int, lam: int, budget: int = DEFAULT_BUDGET) -> VerifyOutcome:
    """Holds iff every tau-subset of the ground set lies in exactly lam blocks."""
    if not 1 <= tau <= s.w:
        raise TauOutOfRange(f"tau={tau} outside [1, {s.w}]")
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
        # Equivalent to every pairwise block intersection having size < tau.
        repeated: tuple[int, ...] | None = None
        for i, j in combinations(range(s.m), 2):
            work.tick()
            inter = s.masks[i] & s.masks[j]
            if inter.bit_count() >= tau:
                shared = tuple(p for p in s.blocks[i] if inter >> p & 1)
                cand = min(combinations(shared, tau))
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
    nodes = 1  # one per selection tried, the empty one included
    room = work.budget - work.count

    def rec(chosen: tuple[int, ...], rest: int) -> tuple[int, ...] | None:
        # A selection that covers, or that the blocks left cannot complete,
        # is settled here in its parent's loop instead of by a call.
        nonlocal nodes
        reach = (limit - len(chosen) - 1) * w  # points the blocks after b can add
        p = (rest & -rest).bit_length() - 1
        for b in pb[p]:
            if b != skip and b not in chosen:
                nodes += 1
                if nodes > room:
                    raise _BudgetStop
                left = rest & ~masks[b]
                if left == 0:
                    return chosen + (b,)
                if left.bit_count() <= reach:
                    got = rec(chosen + (b,), left)
                    if got is not None:
                        return got
        return None

    try:
        if nodes > room:
            raise _BudgetStop
        if target_mask.bit_count() > limit * w:
            return None
        return rec((), target_mask) if target_mask else ()
    finally:
        work.count += nodes


def verify_cff(s: SetSystem, t: int, budget: int = DEFAULT_BUDGET) -> VerifyOutcome:
    """Holds iff no block is contained in the union of at most t others."""
    if t < 1:
        raise ParamsInvalid(f"strength t={t} must be >= 1")
    if s.m < 1:
        raise ParamsInvalid("cover-free check needs at least one block")
    work = _Work(budget)
    pb = _point_blocks(s)
    limit = min(t, s.m - 1)
    try:
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


def _coalitions_lex(m: int, t: int):
    """All index tuples of size 2..t over range(m), in lexicographic order."""

    def rec(prefix: tuple[int, ...], start: int):
        for nxt in range(start, m):
            tup = prefix + (nxt,)
            if len(tup) >= 2:
                yield tup
            if len(tup) < t:
                yield from rec(tup, nxt + 1)

    if t >= 2 and m >= 2:
        yield from rec((), 0)


def _ts_evasion(masks, coalition: tuple[int, ...], outsiders: list[int], w: int,
               work: _Work) -> tuple[tuple[int, ...], int] | None:
    """Lexicographically first (pirate set, outsider) evading ``coalition``.

    Pirate sets are the w-subsets of the coalition's union, taken in
    lexicographic order; for each, the ascending ``outsiders`` are tried in
    turn.  Returns None iff no pirate set evades the coalition.  It writes
    the witness; :func:`_ts_evader` decides without listing pirate sets.
    """
    union = _union(masks, coalition)
    if union.bit_count() < w:
        return None
    work.tick(len(outsiders))  # eligibility scan below
    # An outsider needs |T & B| >= max member overlap >= ceil(w / |coalition|).
    floor_thr = _ceil_div(w, len(coalition))
    eligible = [(o, masks[o]) for o in outsiders if (masks[o] & union).bit_count() >= floor_thr]
    if not eligible:
        return None
    coal_masks = [masks[i] for i in coalition]
    step = len(coalition) + len(eligible)
    spent = 0
    room = work.budget - work.count
    try:
        for subset in combinations([1 << p for p in _points(union)], w):
            spent += step
            if spent > room:
                raise _BudgetStop
            t_mask = sum(subset)
            # The largest member overlap, computed without a Python frame.
            thr = max(map(int.bit_count, map(t_mask.__and__, coal_masks)))
            for o, om in eligible:
                if (t_mask & om).bit_count() >= thr:
                    return tuple(_points(t_mask)), o
    finally:
        work.count += spent
    return None


def _ts_packs(cells, caps: list[int], keep: int, need: int, work: _Work) -> bool:
    """Whether ``need`` points of ``keep`` can be picked from the ``cells``.

    ``cells`` are (members, points) Venn cells of points in two or more
    members; each point picked uses one unit of ``caps[i]`` for every member
    i through it.  Counts per cell are searched depth first, larger first,
    one work unit per node.
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

    def fits(j: int, need: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > room:
            raise _BudgetStop
        # Every point picked uses at least two units of cap.
        if left[j] < need or 2 * need > sum(caps):
            return False
        members, size = multi[j]
        top = min(size, need, *(caps[i] for i in members))
        if top == need:
            return True
        for y in range(top, max(0, need - left[j + 1]) - 1, -1):
            for i in members:
                caps[i] -= y
            ok = fits(j + 1, need - y)
            for i in members:
                caps[i] += y
            if ok:
                return True
        return False

    try:
        return fits(0, need)
    finally:
        work.count += nodes


def _ts_evader(masks, coalition: tuple[int, ...], outsiders: list[int], w: int,
               work: _Work) -> int | None:
    """First of ``outsiders`` that some pirate set lets evade ``coalition``.

    Decided by counting overlaps, without listing pirate sets.  Let U be the
    coalition's union, O an outsider and a = |O & U|.  Swapping a pirate
    point outside O for an unused point of O & U never lowers O's margin
    over a member, so some best pirate set takes min(a, w) points of O & U:
    if a >= w, O evades outright.  Otherwise O evades iff w - a points of
    U - O can be picked with at most cap_i = a - |O & B_i| of them in each
    member B_i.  By the same swap, a point of U - O in B_i alone is never
    worse than one in B_i and other members, so B_i's own points are taken
    first, up to cap_i; the points in several members are then packed by
    :func:`_ts_packs`.  Returns None iff no pirate set evades the coalition.
    One work unit per outsider examined, plus the packing nodes.
    """
    union = _union(masks, coalition)
    if union.bit_count() < w:
        return None
    work.tick(len(outsiders))
    coal_masks = [masks[i] for i in coalition]
    shared = seen = 0  # shared: the points in two or more members
    for b in coal_masks:
        shared |= seen & b
        seen |= b
    lone = union & ~shared
    # O can evade only if a + sum(caps) >= w, and a + sum(caps) <= |C| a, as
    # every point of O & U is in some member.
    least = _ceil_div(w, len(coal_masks))
    cells = None
    for o in outsiders:
        om = masks[o]
        a = (om & union).bit_count()
        if a < least:
            continue
        if a >= w:
            return o
        need = w - a
        caps = [a - (om & b).bit_count() for b in coal_masks]
        if sum(caps) < need:
            continue
        for i, b in enumerate(coal_masks):
            own = min(caps[i], (b & lone & ~om).bit_count())
            need -= own
            caps[i] -= own
        if need <= 0:
            return o
        if cells is None:
            cells = [((), shared)]
            for i, b in enumerate(coal_masks):
                cells = [(c, p & ~b) for c, p in cells] + [(c + (i,), p & b) for c, p in cells]
            cells = [(c, p) for c, p in cells if p]
        if _ts_packs(cells, caps, ~om, need, work):
            return o
    return None


def _overlap_rows(masks: list[int]):
    """For each block i but the last, the list of |B_i & B_j| over j > i."""
    for i, b in enumerate(masks[:-1]):
        yield list(map(int.bit_count, map(b.__and__, masks[i + 1:])))


def _overlap_row_max(masks: list[int], work: _Work):
    """Yield the largest |B_i & B_j| over j != i for i = 0, 1, ... in turn.

    Rows are intersected only as far as the caller reads, so a walk that
    stops at an early block pays for a prefix; one work unit per pair.
    """
    best = [0] * len(masks)
    for i, row in enumerate(_overlap_rows(masks)):
        work.tick(len(row))
        best[i + 1:] = [x if x > r else r for x, r in zip(row, best[i + 1:])]
        yield max(best[i], *row)
    if masks:
        yield best[-1]


def _extension_certificate_holds(s: SetSystem, t: int, cert) -> tuple[bool, str]:
    """Re-derive the design-extension argument from the raw system.

    ``cert`` only names (d, t, tau); everything is recomputed: the d
    appended points must lie in every block, the width must satisfy
    w == d+1 (mod t*t), and stripping the appended points must leave a
    tau-(v-d, w-d, 1) design.
    """
    d = getattr(cert, "d", None)
    cert_t = getattr(cert, "t", None)
    tau = getattr(cert, "tau", None)
    if d is None or cert_t is None or tau is None:
        return False, "certificate missing fields"
    if cert_t != t:
        return False, f"certificate strength {cert_t} != requested {t}"
    tt = t * t
    if not 0 <= d <= tt - 1:
        return False, f"certificate d={d} outside [0, {tt - 1}]"
    if s.w % tt != (d + 1) % tt:
        return False, f"width {s.w} is not d+1 (mod t^2) for d={d}"
    if tau != _ceil_div(s.w, tt):
        return False, f"certificate tau={tau} != ceil(w/t^2)"
    appended = _mask(range(s.v - d, s.v))
    if any(mask & appended != appended for mask in s.masks):
        return False, "appended points missing from some block"
    base_blocks = [[p for p in b if p < s.v - d] for b in s.blocks]
    try:
        base = new_set_system(s.v - d, base_blocks)
    except Exception as exc:
        return False, f"stripped base system invalid: {exc}"
    if not verify_design(base, tau, 1).holds:
        return False, f"stripped base is not a {tau}-design with index 1"
    return True, f"extension certificate: {tau}-design base plus {d} common points"


def verify_ts(s: SetSystem, t: int, mode: str = EXHAUSTIVE,
              budget: int = DEFAULT_BUDGET, certificate=None) -> VerifyOutcome:
    """Decide the strength-t traceability property.

    Exhaustive mode checks every coalition of 2..t blocks against every
    outside block (size-1 coalitions cannot be evaded because blocks are
    distinct).  A coalition no outsider can overlap enough is skipped; for
    the others, whether some pirate set lets an outsider evade is decided
    by counting overlaps (:func:`_ts_evader`), and the w-subsets of the
    union are listed only for the first evaded coalition, to report the
    lexicographically first witness.  Certified mode accepts a pairwise
    intersection bound (every two blocks share < ceil(w/t^2) points) or a
    design-extension certificate, and is otherwise inconclusive.
    """
    if t < 1:
        raise ParamsInvalid(f"strength t={t} must be >= 1")
    if mode == CERTIFIED:
        if s.m <= 1:
            return VerifyOutcome(HOLDS, CERTIFIED, detail="at most one block", work=0)
        tau = _ceil_div(s.w, t * t)
        pk = verify_packing(s, tau, budget)
        if pk.holds:
            detail = f"pairwise intersections below {tau} certify strength {t}"
            return VerifyOutcome(HOLDS, CERTIFIED, detail=detail, work=pk.work)
        if certificate is not None:
            ok, why = _extension_certificate_holds(s, t, certificate)
            if ok:
                return VerifyOutcome(HOLDS, CERTIFIED, detail=why, work=pk.work)
            return VerifyOutcome(INCONCLUSIVE, CERTIFIED, detail=why, work=pk.work)
        return VerifyOutcome(INCONCLUSIVE, CERTIFIED,
                             detail="no packing certificate; run exhaustive mode",
                             work=pk.work)
    if mode != EXHAUSTIVE:
        raise ParamsInvalid(f"unknown mode {mode!r}")
    work = _Work(budget)
    if t == 1 or s.m <= 1:
        return VerifyOutcome(HOLDS, EXHAUSTIVE, detail="size-1 coalitions cannot be evaded",
                             work=0)
    masks, w = s.masks, s.w
    # An outsider O needs |O & U| >= ceil(w / |C|), and |O & U| is at most
    # the sum of the members' largest overlaps with any other block.
    least = [0] + [_ceil_div(w, k) for k in range(1, min(t, s.m) + 1)]
    try:
        maxima = _overlap_row_max(masks, work)
        rowmax: list[int] = []
        for coalition in _coalitions_lex(s.m, t):
            work.tick()
            while len(rowmax) <= coalition[-1]:
                rowmax.append(next(maxima))
            if sum(map(rowmax.__getitem__, coalition)) < least[len(coalition)]:
                continue
            outsiders = [o for o in range(s.m) if o not in coalition]
            if _ts_evader(masks, coalition, outsiders, w, work) is not None:
                # The scan only runs here, for the canonical witness.
                tpts, o = _ts_evasion(masks, coalition, outsiders, w, work)
                wit = TsEvasion(coalition=coalition, pirate=tpts, outsider=o)
                return VerifyOutcome(VIOLATED, EXHAUSTIVE, witness=wit, work=work.count)
        return VerifyOutcome(HOLDS, EXHAUSTIVE, work=work.count)
    except _BudgetStop:
        return VerifyOutcome(INCONCLUSIVE, EXHAUSTIVE, detail=BUDGET_EXCEEDED, work=work.count)


# ---------------------------------------------------------------------------
# parent-identifying set systems


def _cover_common(masks, pb: list[list[int]], t_mask: int, limit: int,
                  work: _Work) -> set[int] | None:
    """Intersection of all covers of the nonempty ``t_mask`` by <= limit blocks.

    Returns None when no cover exists.  Every minimal cover is visited, so
    the running intersection equals the intersection over all covers; the
    search aborts as soon as the intersection is known to be empty.
    """
    common: set[int] | None = None
    nodes = 1  # one per selection tried, the empty one included
    room = work.budget - work.count

    def rec(chosen: tuple[int, ...], rest: int) -> bool:
        # As in _find_cover, a selection that covers or is full is settled
        # in its parent's loop.
        nonlocal common, nodes
        deeper = len(chosen) + 1 < limit
        p = (rest & -rest).bit_length() - 1
        for b in pb[p]:
            if b not in chosen:
                nodes += 1
                if nodes > room:
                    raise _BudgetStop
                left = rest & ~masks[b]
                if left == 0:
                    cover = {b, *chosen}
                    common = cover if common is None else common & cover
                    if not common:
                        return True
                elif deeper and rec(chosen + (b,), left):
                    return True
        return False

    try:
        if nodes > room:
            raise _BudgetStop
        rec((), t_mask)
    finally:
        work.count += nodes
    return common


def _minimal_covers(masks, pb: list[list[int]], t_mask: int, limit: int,
                    work: _Work) -> list[tuple[int, ...]]:
    """All minimal covers of ``t_mask`` of size <= limit, sorted."""
    found: set[frozenset[int]] = set()

    def rec(chosen: tuple[int, ...], covered: int) -> None:
        work.tick()
        rest = t_mask & ~covered
        if rest == 0:
            found.add(frozenset(chosen))
            return
        if len(chosen) >= limit:
            return
        p = (rest & -rest).bit_length() - 1
        for b in pb[p]:
            if b not in chosen:
                rec(chosen + (b,), covered | masks[b])

    rec((), 0)
    minimal = [c for c in found if not any(o < c for o in found)]
    return sorted(tuple(sorted(c)) for c in minimal)


def _ipps_pirate_sets(masks, coalitions, sizes: tuple[int, ...], work: _Work):
    """Each subset of a coalition union whose size is in ``sizes``, once.

    Yields ascending point tuples.  Any set coverable by <= t blocks is a
    subset of the union of some min(t, m)-coalition, so passing all of those
    coalitions is exhaustive.
    """
    seen: set[tuple[int, ...]] = set()
    for coalition in coalitions:
        upoints = _points(_union(masks, coalition))
        for k in sizes:
            if k > len(upoints):
                continue
            work.tick(comb(len(upoints), k))
            for tpts in combinations(upoints, k):
                if tpts not in seen:
                    seen.add(tpts)
                    yield tpts


def _verify_ipps_over(s: SetSystem, t: int, sizes: tuple[int, ...],
                      budget: int) -> VerifyOutcome:
    if t < 1:
        raise ParamsInvalid(f"strength t={t} must be >= 1")
    work = _Work(budget)
    if s.m == 0:
        return VerifyOutcome(HOLDS, EXHAUSTIVE, work=0)
    pb = _point_blocks(s)
    masks = s.masks
    try:
        coalitions = combinations(range(s.m), min(t, s.m))
        # Lexicographic order of the pirate sets makes the witness canonical.
        for tpts in sorted(_ipps_pirate_sets(masks, coalitions, sizes, work)):
            t_mask = _mask(tpts)
            common = _cover_common(masks, pb, t_mask, t, work)
            if common is not None and not common:
                parents = _minimal_covers(masks, pb, t_mask, t, work)
                wit = IppsAmbiguity(pirate=tpts, parents=tuple(parents), strength=t)
                return VerifyOutcome(VIOLATED, EXHAUSTIVE, witness=wit, work=work.count)
        return VerifyOutcome(HOLDS, EXHAUSTIVE, work=work.count)
    except _BudgetStop:
        return VerifyOutcome(INCONCLUSIVE, EXHAUSTIVE, detail=BUDGET_EXCEEDED, work=work.count)


def verify_ipps(s: SetSystem, t: int, budget: int = DEFAULT_BUDGET) -> VerifyOutcome:
    """Holds iff every width-w pirate set with a cover has a common parent block."""
    return _verify_ipps_over(s, t, (s.w,), budget)


def verify_ipps_star(s: SetSystem, t: int, budget: int = DEFAULT_BUDGET) -> VerifyOutcome:
    """Like :func:`verify_ipps` but pirate sets range over sizes w..t*w."""
    sizes = tuple(range(s.w, t * s.w + 1))
    return _verify_ipps_over(s, t, sizes, budget)


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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
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
