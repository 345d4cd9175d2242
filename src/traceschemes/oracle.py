"""Ground-truth machinery: exhaustive optimum search on tiny parameters,
executable violation-building procedures, and configuration classification.

The search enumerates block families in colexicographic order (each family
visited exactly once as its sorted sequence; the three properties are
closed under removing blocks, so pruning at the first invalid extension is
complete).  Its root takes only the first w-set: the properties are kept by
every point permutation, which can move any block there, and a walk over
every root would meet its first maximum family in that subtree anyway.
The walk is one loop: each candidate w-set is a mask computed from the
last one, so memory is O(v + family size) at any budget and no depth of
the family meets the recursion limit.

The violation builders replay the constructive arguments behind the
strength-squared cover-free relation and the small-own-subset
parent-ambiguity, step by step, with every "choose any" resolved to the
lexicographically smallest admissible object; when a step's hypothesis
fails on the given input they return the blocking step instead of a trace.
Each smallest object is computed directly, not found by scanning a list of
candidates: the own-subset precondition stops at the first own subset, and
a linking set is read off the points left in its block.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .bounds import bound_report, minimal_config_size_bound
from .core import (
    DEFAULT_SEARCH_BUDGET,
    ParamsInvalid,
    SchemeError,
    SchemeParams,
    SetSystem,
    _ceil_div,
    _check_ground_set,
    _colex_next,
    _has_own_subset,
    _mask,
    _points,
    new_set_system,
)
from .verify import (
    DEFAULT_BUDGET,
    CffCover,
    IppsAmbiguity,
    TsEvasion,
    _BudgetStop,
    _find_cover,
    _ipps_ambiguity,
    _ipps_pop,
    _ipps_push,
    _point_columns,
    _Table,
    _ts_evader,
    _Work,
    check_witness,
)

PROPERTIES = ("ts", "ipps", "cff")


class SearchResult(NamedTuple):
    params: SchemeParams
    property: str
    optimum: int
    witness_family: SetSystem
    nodes_explored: int
    complete: bool


class TraceBlocked(NamedTuple):
    """A violation-building step whose hypothesis failed on this input."""

    step: str
    detail: str


class ProofTraceTs(NamedTuple):
    """Intermediate objects of the cover-to-evasion construction."""

    b0_index: int
    cover_indices: tuple[int, ...]
    selected: tuple[int, ...]
    sigmas: tuple[int, ...]
    pirate_set: tuple[int, ...]
    evasion: TsEvasion


class ProofTraceIpps(NamedTuple):
    """Intermediate objects of the missing-own-subset ambiguity construction."""

    selected: tuple[int, ...]
    a_sets: tuple[tuple[int, ...], ...]
    d_sets: tuple[tuple[int, ...], ...]
    c_covers: tuple[tuple[int, ...], ...]
    pirate_set: tuple[int, ...]
    ambiguity: IppsAmbiguity


# ---------------------------------------------------------------------------
# exhaustive optimum search


def _ts_extension_ok(masks: list[int], w: int, t: int, work: _Work) -> bool:
    # masks[-1] is the newly added block; only coalitions or outsiders
    # touching it can introduce a violation.
    new = len(masks) - 1
    for s in range(2, min(t, len(masks)) + 1):
        for rest in combinations(range(new), s - 1):
            outs = [i for i in range(new) if i not in rest]
            if _ts_evader(masks, rest + (new,), outs, w, work) is not None:
                return False
        for coal in combinations(range(new), s):
            if _ts_evader(masks, coal, [new], w, work) is not None:
                return False
    return True


def _cff_extension_ok(masks: list[int], pb: list[list[int]], w: int, t: int,
                      work: _Work) -> bool:
    # The family without the new block is a CFF, so a cover of an old block
    # b must use the new block: it is enough to cover what the new block
    # leaves of b.  Those points lie outside the new block, and the new
    # block's own cover skips it, so pb need not list the new block: the
    # search adds a block to it only once the block is accepted.
    new = len(masks) - 1
    limit = min(t, new)
    if _find_cover(masks, pb, masks[new], limit, w, work, new) is not None:
        return False
    for b in range(new):
        residual = masks[b] & ~masks[new]
        if residual == 0 or _find_cover(masks, pb, residual, limit - 1, w, work, b) is not None:
            return False
    return True


def _ipps_extension_ok(masks: list[int], pb: list[list[int]],
                       levels: list[tuple[list[int], list[int]]], w: int, t: int,
                       work: _Work) -> bool:
    """Whether the family stays a t-IPPS with masks[-1] added.

    A t-IPPS is a t-CFF: a block B covered by at most t others is an
    ambiguous w-set, as {B} and those blocks are covers of B that share no
    block.  The family without the new block is a t-IPPS, so a t-CFF, as
    :func:`_cff_extension_ok` needs; a new block that fails that test is
    rejected without touching ``levels``.  The strength must be t itself:
    a t-IPPS need not be a (t + 1)-CFF.  Otherwise the block is pushed
    (:func:`_ipps_push`) and the ambiguity walk decides; every ambiguous
    w-set of the new family has a minimal cover holding the new block
    (were all of them old, it was ambiguous before).  A rejected block is
    popped again, so ``levels`` gains the new block only when it is
    accepted.
    """
    if not _cff_extension_ok(masks, pb, w, t, work):
        return False
    _ipps_push(levels, masks[-1], len(masks) - 1)
    if _ipps_ambiguity(levels, w, work) is not None:
        _ipps_pop(levels)
        return False
    return True


def exhaustive_optimal(p: SchemeParams, property: str,
                       budget: int = DEFAULT_SEARCH_BUDGET) -> SearchResult:
    """Exact maximum family size by complete colex-canonical search.

    The root takes only candidate 0, {0..w-1}: the properties are kept by
    every point permutation and S_v is transitive on w-sets, so some
    maximum family holds it.  A walk over every root would visit that
    subtree first and keep only strictly larger families after it, so its
    first maximum family, the witness, is the one found here.

    The walk is one loop over a current candidate mask.  The candidate
    after a tried one, accepted or not, is its colex successor; one past
    the last w-set, the last block is popped and the walk goes on at that
    block's successor.  Memory is O(v + family size) at any budget, and
    since nothing recurses, no family is too large for the walk.

    Intended for tiny parameters (roughly v <= 9).  When the node budget
    runs out, the best family found so far is returned with
    ``complete=False`` and is only a lower bound.
    """
    if property not in PROPERTIES:
        raise ParamsInvalid(f"property must be one of {PROPERTIES}, got {property!r}")
    _check_ground_set(p.v)  # before the walk, not at the witness after it
    best: list[int] = []
    masks: list[int] = []
    # pb[q] lists the family's blocks through point q, ascending, as the
    # cover kernels expect; a block joins it once accepted.
    pb: list[list[int]] = [[] for _ in range(p.v)]
    # levels[k] lists the selections of k + 1 blocks of the family for the
    # IPPS check (see _ipps_push): a block is pushed once it is accepted,
    # and popped when the walk backs up past it.
    levels: list[tuple[list[int], list[int]]] = [([], []) for _ in range(p.t)]
    nodes = _Work(budget)
    work = _Work()  # the node budget bounds the search instead
    complete = True
    mask = root = (1 << p.w) - 1  # candidate 0
    try:
        # The root level holds only candidate 0, as argued above, so the
        # walk ends when it backs up past the root.
        while masks or mask == root:
            nodes.tick()
            index = len(masks)
            masks.append(mask)
            if property == "ts":
                ok = _ts_extension_ok(masks, p.w, p.t, work)
            elif property == "cff":
                ok = _cff_extension_ok(masks, pb, p.w, p.t, work)
            else:
                ok = _ipps_extension_ok(masks, pb, levels, p.w, p.t, work)
            if ok:
                if len(masks) > len(best):
                    best = masks.copy()
                for q in _points(mask):
                    pb[q].append(index)
            else:
                masks.pop()
            mask = _colex_next(mask)
            while mask >> p.v and masks:  # past the last w-set: back up
                mask = masks.pop()
                for q in _points(mask):
                    pb[q].pop()
                if property == "ipps":
                    _ipps_pop(levels)
                mask = _colex_next(mask)
    except _BudgetStop:
        complete = False
    witness = new_set_system(p.v, [_points(m) for m in best], width=p.w)
    return SearchResult(params=p, property=property, optimum=len(best),
                        witness_family=witness, nodes_explored=nodes.count,
                        complete=complete)


# ---------------------------------------------------------------------------
# cover failure -> traceability evasion


def ts_violation_from_cff_failure(s: SetSystem, t: int,
                                  cff_witness: CffCover) -> ProofTraceTs | TraceBlocked:
    """Build a traceability evasion from a block covered by <= t*t others.

    Replays the pigeonhole selection: blocks in turn, each the first
    remaining cover block of maximum overlap with the part of the covered
    block B_0 still uncovered, until t are chosen or they cover B_0.  The
    chosen overlaps form the core, and they satisfy the averaging inequality
    (t+1) * spread >= w - ceil(w/t^2) - sigma_1, spread = sum(sigma_2..).
    The pirate set is the core padded with points of the chosen blocks
    outside B_0, taken in ascending order of (number of chosen blocks
    through the point, point), each while every chosen block through it has
    gained fewer than spread of them; when the chosen blocks cover B_0 the
    pirate set is B_0 itself.

    The caps keep B_0 ahead.  |core & B_1| + spread = |core|, and a later
    B_j meets the core in at most |B_j & B_0| <= |B_1 & B_0| = |core & B_1|
    points, as B_1 was chosen for its overlap with all of B_0.  So each
    chosen block may gain spread pirate points outside B_0, each in one
    chosen block or several, and still meet the pirate set in no more
    points than B_0 does.  Only the padding can block, when fewer than
    w - |core| points fit the caps; completed traces re-validate as evasions.
    """
    if t < 2:
        raise ParamsInvalid(f"strength t={t} must be >= 2")
    ok, why = check_witness(s, cff_witness)
    if not ok or not isinstance(cff_witness, CffCover):
        raise ParamsInvalid(f"cover witness failed re-validation: {why}")
    if len(cff_witness.cover) > t * t:
        raise ParamsInvalid(f"cover has {len(cff_witness.cover)} blocks, more than t^2 = {t * t}")
    w = s.w
    tau0 = _ceil_div(w, t * t)
    b0 = cff_witness.target
    b0m = s.masks[b0]
    cover = list(cff_witness.cover)

    # While part of B_0 is uncovered, some remaining cover block meets it,
    # so every chosen gain is positive.  B_0 differs from every other
    # block, so at least two blocks are chosen.
    selected: list[int] = []
    sigmas: list[int] = []
    covered = 0
    for _ in range(t):
        rest = b0m & ~covered
        if not rest:
            break
        remaining = [c for c in cover if c not in selected]
        gains = [(s.masks[c] & rest).bit_count() for c in remaining]
        gain = max(gains)
        bi = remaining[gains.index(gain)]
        selected.append(bi)
        sigmas.append(gain)
        covered |= b0m & s.masks[bi]
    sigmas[0] -= tau0
    assert sigmas[0] >= 0, "a t^2-cover forces a block with overlap >= ceil(w/t^2)"
    spread = sum(sigmas[1:])
    assert (t + 1) * spread >= w - tau0 - sigmas[0], "averaging inequality must hold"

    core = _points(covered)
    need = w - len(core)
    # owners[pt]: the positions of the chosen blocks through pt
    owners = {pt: [pos for pos, i in enumerate(selected) if s.masks[i] >> pt & 1]
              for pt in _points(s.union_mask(selected) & ~b0m)}
    picks: list[int] = []
    used = [0] * len(selected)
    for pt in sorted(owners, key=lambda pt: (len(owners[pt]), pt)):
        if len(picks) >= need:
            break
        if all(used[pos] < spread for pos in owners[pt]):
            for pos in owners[pt]:
                used[pos] += 1
            picks.append(pt)
    if len(picks) < need:
        return TraceBlocked(step="padding",
                            detail=f"only {len(picks)} points fit the caps, need {need}")
    pirate = tuple(sorted(core + picks))
    evasion = TsEvasion(coalition=tuple(sorted(selected)), pirate=pirate, outsider=b0)
    assert (_mask(pirate) & b0m).bit_count() == tau0 + sum(sigmas)
    ok, why = check_witness(s, evasion)
    assert ok, f"constructed evasion failed re-validation: {why}"
    return ProofTraceTs(b0_index=b0, cover_indices=tuple(cover), selected=tuple(selected),
                        sigmas=tuple(sigmas), pirate_set=pirate, evasion=evasion)


# ---------------------------------------------------------------------------
# missing own-subsets -> parent ambiguity


def ipps_violation_from_missing_own_subsets(s: SetSystem, t: int, budget: int = DEFAULT_BUDGET
                                            ) -> ProofTraceIpps | TraceBlocked:
    """Build a parent ambiguity when no block has a small own-subset.

    Requires every block to lack ceil(w / (floor(t^2/4) + t))-own-subsets;
    then walks the selection loop (overlap chunks A_i covered by few other
    blocks, linking sets D_i leading to fresh blocks) and assembles a
    pirate set whose parent sets have empty intersection.  The precondition
    makes every cover and fresh block exist, so the trace blocks only where
    points run short, at a D_i-choice, or where ``budget``, which caps the
    nodes of its cover searches together, stops a search.
    """
    if t < 2:
        raise ParamsInvalid(f"strength t={t} must be >= 2")
    if s.m == 0:
        return TraceBlocked(step="precondition", detail="system has no blocks")
    w = s.w
    k = _ceil_div(w, t * t // 4 + t)
    hu = _ceil_div(t, 2)
    hd = t // 2
    for i in range(s.m):
        if _has_own_subset(s, i, k):
            return TraceBlocked(step="precondition",
                                detail=f"block {i} has a {k}-own-subset")
    cols = _point_columns(s)
    pb = _Table(lambda p: _points(cols[p]))
    work = _Work(budget)
    over_budget = f"cover search exceeded its budget of {budget} work units"

    selected = [0]
    a_sets: list[tuple[int, ...]] = []
    d_sets: list[tuple[int, ...]] = []
    c_covers: list[tuple[int, ...]] = []
    used = 0
    for i in range(1, hd + 1):
        bi = selected[i - 1]
        pool = _points(s.masks[bi] & ~used)
        size_a = k * hu
        if len(pool) < size_a:
            return TraceBlocked(step=f"A{i}-size",
                                detail=f"only {len(pool)} points free in block {bi}, "
                                       f"need {size_a}")
        a_i = tuple(pool[:size_a])
        am = _mask(a_i)
        try:
            cov = _find_cover(s.masks, pb, am, hu, w, work, bi)
        except _BudgetStop:
            return TraceBlocked(step=f"C{i}-cover", detail=over_budget)
        # Each of A_i's hu chunks of k points is no own-subset of B_i, so it
        # lies in a block other than B_i: hu such blocks cover A_i.
        assert cov is not None, "A_i has a cover of hu blocks other than B_i"
        pool2 = pool[size_a:]
        if len(pool2) < k:
            return TraceBlocked(step=f"D{i}-size",
                                detail=f"only {len(pool2)} points free for the linking set")
        # D_i is the lexicographically first k-subset of pool2 with a point
        # outside the blocks selected before B_i: pool2's first k points if
        # one of them is outside, else its first k-1 and first outside point.
        prev_union = s.union_mask(selected[:i - 1])
        out = next((p for p in pool2 if not prev_union >> p & 1), None)
        if out is None:
            return TraceBlocked(step=f"D{i}-choice",
                                detail="every linking candidate lies inside "
                                       "previously selected blocks")
        d_i = tuple(pool2[:k]) if out <= pool2[k - 1] else (*pool2[:k - 1], out)
        dm = _mask(d_i)
        # D_i is no own-subset of B_i, so it lies in another block, and its
        # point outside B_1..B_(i-1) keeps that block from being selected.
        nxt = next(b for b in range(s.m) if b not in selected and s.masks[b] & dm == dm)
        selected.append(nxt)
        a_sets.append(a_i)
        d_sets.append(d_i)
        c_covers.append(tuple(sorted(cov)))
        used |= am | dm

    b_last = selected[hd]
    size_last = w - k * hu * hd - k * hd
    if size_last < 0:
        return TraceBlocked(step="final-size", detail="final chunk size is negative")
    pool = _points(s.masks[b_last] & ~used)
    # The A_j and D_j are disjoint, so size_last = w - |used| <= |B_last - used|.
    assert len(pool) >= size_last, "the final chunk fits in the last block"
    a_last = tuple(pool[:size_last])
    am = _mask(a_last)
    cov_last: tuple[int, ...] | None = ()
    if a_last:
        try:
            cov_last = _find_cover(s.masks, pb, am, hu, w, work, b_last)
        except _BudgetStop:
            return TraceBlocked(step=f"C{hd + 1}-cover", detail=over_budget)
        # w <= k * (hu * hd + t) gives size_last <= k * hu, so A_last splits
        # into hu chunks of at most k points, each inside a k-subset of
        # B_last and so inside a block other than B_last.
        assert cov_last is not None, "A_last has a cover of hu blocks other than B_last"
        cov_last = tuple(sorted(cov_last))
    a_sets.append(a_last)
    c_covers.append(cov_last)

    pirate_mask = used | am
    pirate = tuple(_points(pirate_mask))
    assert len(pirate) == w, "assembled pirate set must have exactly w points"
    parents: list[tuple[int, ...]] = [tuple(sorted(selected))]
    for i in range(hd + 1):
        others = [selected[j] for j in range(hd + 1) if j != i]
        parents.append(tuple(sorted(set(c_covers[i]) | set(others))))
    dedup = tuple(sorted(set(parents)))
    ambiguity = IppsAmbiguity(pirate=pirate, parents=dedup, strength=t)
    ok, why = check_witness(s, ambiguity)
    assert ok, f"constructed ambiguity failed re-validation: {why}"
    return ProofTraceIpps(selected=tuple(selected), a_sets=tuple(a_sets),
                          d_sets=tuple(d_sets), c_covers=tuple(c_covers),
                          pirate_set=pirate, ambiguity=ambiguity)


# ---------------------------------------------------------------------------
# configurations and bound cross-checks


class MinimalConfigTooLarge(SchemeError):
    """A minimal configuration exceeded the proven union-size cap."""


class ConfigCheck(NamedTuple):
    kind: str  # "not-configuration" | "non-minimal" | "minimal"
    union_size: int | None = None


def check_configuration(parts, t: int) -> ConfigCheck:
    """Classify a family of coalitions by empty-intersection minimality."""
    sets = [frozenset(p) for p in parts]
    if not sets or any(not p for p in sets):
        raise ParamsInvalid("need at least one nonempty part")
    if any(len(p) > t for p in sets):
        raise ParamsInvalid(f"a part exceeds the coalition size cap {t}")
    if frozenset.intersection(*sets):
        return ConfigCheck(kind="not-configuration")
    # Two or more parts from here on: a single nonempty part meets itself.
    if any(not frozenset.intersection(*sets[:i], *sets[i + 1:]) for i in range(len(sets))):
        return ConfigCheck(kind="non-minimal")
    union = frozenset().union(*sets)
    cap = minimal_config_size_bound(t)
    if len(union) > cap:
        raise MinimalConfigTooLarge(
            f"minimal configuration with union {len(union)} exceeds cap {cap}")
    return ConfigCheck(kind="minimal", union_size=len(union))


class CrossCheck(NamedTuple):
    params: SchemeParams
    property: str
    optimum: int
    complete: bool
    lower: int
    upper: int | None
    exact: int | None
    consistent: bool


def cross_check_bounds(p: SchemeParams, property: str,
                       budget: int = DEFAULT_SEARCH_BUDGET) -> CrossCheck:
    """Search the true optimum and place it against the formula bounds."""
    report = bound_report(p, property)
    result = exhaustive_optimal(p, property, budget)
    ok = report.upper is None or result.optimum <= report.upper
    if result.complete:
        ok = ok and report.lower <= result.optimum
        if report.exact is not None:
            ok = ok and result.optimum == report.exact
    return CrossCheck(params=p, property=property, optimum=result.optimum,
                      complete=result.complete, lower=report.lower,
                      upper=report.upper, exact=report.exact, consistent=ok)


# ---------------------------------------------------------------------------
# step logs


def render_trace_ts(trace: ProofTraceTs | TraceBlocked) -> str:
    if isinstance(trace, TraceBlocked):
        return f"trace ts-from-cff blocked\nstep {trace.step}\n{trace.detail}\n"
    lines = ["trace ts-from-cff",
             f"1 target block {trace.b0_index} covered by: "
             + " ".join(map(str, trace.cover_indices))]
    for i, (b, sig) in enumerate(zip(trace.selected, trace.sigmas), start=1):
        lines.append(f"{i + 1} B_{i} = block {b}, sigma_{i} = {sig}")
    step = len(trace.selected) + 2
    lines.append(f"{step} pirate set F = " + " ".join(map(str, trace.pirate_set)))
    lines.append(f"{step + 1} evasion: coalition "
                 + " ".join(map(str, trace.evasion.coalition))
                 + f", outsider {trace.evasion.outsider}")
    return "\n".join(lines) + "\n"


def render_trace_ipps(trace: ProofTraceIpps | TraceBlocked) -> str:
    if isinstance(trace, TraceBlocked):
        return f"trace ipps-own-subsets blocked\nstep {trace.step}\n{trace.detail}\n"
    lines = ["trace ipps-own-subsets",
             "1 selected blocks: " + " ".join(map(str, trace.selected))]
    step = 2
    for i, a in enumerate(trace.a_sets, start=1):
        cov = trace.c_covers[i - 1]
        lines.append(f"{step} A_{i} = " + (" ".join(map(str, a)) or "(empty)")
                     + " ; C({}) = ".format(i) + (" ".join(map(str, cov)) or "(empty)"))
        step += 1
        if i <= len(trace.d_sets):
            lines.append(f"{step} D_{i} = " + " ".join(map(str, trace.d_sets[i - 1])))
            step += 1
    lines.append(f"{step} pirate set T = " + " ".join(map(str, trace.pirate_set)))
    step += 1
    parts = " ".join("(" + " ".join(map(str, p)) + ")" for p in trace.ambiguity.parents)
    lines.append(f"{step} parent sets: {parts}")
    return "\n".join(lines) + "\n"
