"""Ground-truth machinery: exhaustive optimum search on tiny parameters,
executable violation-building procedures, and configuration classification.

The search enumerates block families in colexicographic order (each family
visited exactly once as its sorted sequence; the three properties are
closed under removing blocks, so pruning at the first invalid extension is
complete).  The violation builders replay the constructive arguments
behind the strength-squared cover-free relation and the small-own-subset
parent-ambiguity, step by step, with every "choose any" resolved to the
lexicographically smallest admissible object; when a step's hypothesis
fails on the given input they return the blocking step instead of a trace.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations

from .bounds import bound_report, minimal_config_size_bound
from .construct import _colex_subsets
from .core import (
    ParamsInvalid,
    SchemeError,
    SchemeParams,
    SetSystem,
    _ceil_div,
    _mask,
    _points,
    enumerate_own_subsets,
    new_set_system,
)
from .verify import (
    CffCover,
    IppsAmbiguity,
    TsEvasion,
    _cover_common,
    _find_cover,
    _ipps_pirate_sets,
    _point_blocks,
    _ts_evader,
    _Work,
    check_witness,
)

PROPERTIES = ("ts", "ipps", "cff")


@dataclass(frozen=True)
class SearchResult:
    params: SchemeParams
    property: str
    optimum: int
    witness_family: SetSystem
    nodes_explored: int
    complete: bool


@dataclass(frozen=True)
class TraceBlocked:
    """A violation-building step whose hypothesis failed on this input."""

    step: str
    detail: str


@dataclass(frozen=True)
class ProofTraceTs:
    """Intermediate objects of the cover-to-evasion construction."""

    b0_index: int
    cover_indices: tuple[int, ...]
    selected: tuple[int, ...]
    sigmas: tuple[int, ...]
    pirate_set: tuple[int, ...]
    evasion: TsEvasion


@dataclass(frozen=True)
class ProofTraceIpps:
    """Intermediate objects of the missing-own-subset ambiguity construction."""

    selected: tuple[int, ...]
    a_sets: tuple[tuple[int, ...], ...]
    d_sets: tuple[tuple[int, ...], ...]
    c_covers: tuple[tuple[int, ...], ...]
    pirate_set: tuple[int, ...]
    ambiguity: IppsAmbiguity


class _SearchStop(Exception):
    pass


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
    # leaves of b.  Those points lie outside the new block, so skipping b
    # alone keeps the new block out of that search.
    new = len(masks) - 1
    limit = min(t, new)
    if _find_cover(masks, pb, masks[new], limit, w, work, new) is not None:
        return False
    for b in range(new):
        residual = masks[b] & ~masks[new]
        if residual == 0 or _find_cover(masks, pb, residual, limit - 1, w, work, b) is not None:
            return False
    return True


def _ipps_extension_ok(masks: list[int], pb: list[list[int]], w: int, t: int,
                       work: _Work) -> bool:
    # The family without the new block is an IPPS, so a pirate set can lose
    # its common parent only through a cover that contains the new block:
    # only subsets of unions of coalitions with the new block need checking.
    new = len(masks) - 1
    coalitions = (rest + (new,) for rest in combinations(range(new), min(t, new + 1) - 1))
    for tpts in _ipps_pirate_sets(masks, coalitions, (w,), work):
        common = _cover_common(masks, pb, _mask(tpts), t, work)
        if common is not None and not common:
            return False
    return True


def exhaustive_optimal(p: SchemeParams, property: str,
                       budget: int = 2_000_000) -> SearchResult:
    """Exact maximum family size by complete colex-canonical search.

    Intended for tiny parameters (roughly v <= 9).  When the node budget
    runs out, the best family found so far is returned with
    ``complete=False`` and is only a lower bound.
    """
    if property not in PROPERTIES:
        raise ParamsInvalid(f"property must be one of {PROPERTIES}, got {property!r}")
    candidates = list(_colex_subsets(p.v, p.w))
    cand_masks = [_mask(c) for c in candidates]
    n = len(candidates)
    best: list[tuple[int, ...]] = []
    family: list[tuple[int, ...]] = []
    masks: list[int] = []
    # pb[q] lists the family's blocks through point q, ascending, as the
    # cover kernels expect; it is kept up to date as blocks come and go.
    pb: list[list[int]] = [[] for _ in range(p.v)]
    work = _Work(sys.maxsize)  # the node budget bounds the search instead
    nodes = 0
    complete = True

    def extension_ok() -> bool:
        if property == "ts":
            return _ts_extension_ok(masks, p.w, p.t, work)
        if property == "cff":
            return _cff_extension_ok(masks, pb, p.w, p.t, work)
        return _ipps_extension_ok(masks, pb, p.w, p.t, work)

    def rec(start: int) -> None:
        nonlocal nodes, best
        for ci in range(start, n):
            nodes += 1
            if nodes > budget:
                raise _SearchStop
            index = len(masks)
            masks.append(cand_masks[ci])
            family.append(candidates[ci])
            for q in candidates[ci]:
                pb[q].append(index)
            if extension_ok():
                if len(family) > len(best):
                    best = family.copy()
                rec(ci + 1)
            for q in candidates[ci]:
                pb[q].pop()
            masks.pop()
            family.pop()

    try:
        rec(0)
    except _SearchStop:
        complete = False
    witness = new_set_system(p.v, best)
    return SearchResult(params=p, property=property, optimum=len(best),
                        witness_family=witness, nodes_explored=nodes,
                        complete=complete)


# ---------------------------------------------------------------------------
# cover failure -> traceability evasion


def ts_violation_from_cff_failure(s: SetSystem, t: int,
                                  cff_witness: CffCover) -> ProofTraceTs | TraceBlocked:
    """Build a traceability evasion from a block covered by <= t*t others.

    Replays the pigeonhole selection: a first block of maximum overlap with
    the covered block, then t-1 more maximizing overlap with its still
    uncovered part, then a pirate set made of all chosen overlaps padded
    with private points.  Completed traces always satisfy the averaging
    inequality (t+1) * sum(sigma_2..sigma_t) >= w - ceil(w/t^2) - sigma_1
    and re-validate as evasions.
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

    overlaps = [(s.masks[c] & b0m).bit_count() for c in cover]
    top = max(overlaps)
    b1 = cover[overlaps.index(top)]
    sigma1 = top - tau0
    assert sigma1 >= 0, "a t^2-cover forces a block with overlap >= ceil(w/t^2)"
    selected = [b1]
    sigmas = [sigma1]
    covered = b0m & s.masks[b1]
    for i in range(2, t + 1):
        rest = b0m & ~covered
        remaining = [c for c in cover if c not in selected]
        if not remaining:
            return TraceBlocked(step=f"select-B{i}",
                                detail="cover exhausted before t blocks were chosen")
        gains = [(s.masks[c] & rest).bit_count() for c in remaining]
        gain = max(gains)
        if gain == 0:
            return TraceBlocked(step=f"sigma-{i}",
                                detail="no remaining cover block meets the uncovered part "
                                       "(target is covered by fewer than t blocks)")
        bi = remaining[gains.index(gain)]
        selected.append(bi)
        sigmas.append(gain)
        covered |= b0m & s.masks[bi]
    spread = sum(sigmas[1:])
    assert (t + 1) * spread >= w - tau0 - sigma1, "averaging inequality must hold"

    core = _points(covered)
    need = w - len(core)
    sel_masks = [s.masks[i] for i in selected]
    pool: list[tuple[int, int]] = []  # (point, owner position)
    for pos, mm in enumerate(sel_masks):
        others = 0
        for j, om in enumerate(sel_masks):
            if j != pos:
                others |= om
        private = mm & ~b0m & ~others
        pool.extend((pt, pos) for pt in _points(private))
    pool.sort()
    picks: list[int] = []
    used = [0] * len(selected)
    for pt, pos in pool:
        if len(picks) >= need:
            break
        if used[pos] < spread:
            used[pos] += 1
            picks.append(pt)
    if len(picks) < need:
        return TraceBlocked(step="private-points",
                            detail=f"only {len(picks)} private points available, need {need}")
    pirate = tuple(sorted(core + picks))
    evasion = TsEvasion(coalition=tuple(sorted(selected)), pirate=pirate, outsider=b0)
    assert len(pirate) == w
    pm = _mask(pirate)
    assert (pm & b0m).bit_count() == tau0 + sum(sigmas)
    assert all((pm & mm).bit_count() <= (pm & b0m).bit_count() for mm in sel_masks)
    ok, why = check_witness(s, evasion)
    assert ok, f"constructed evasion failed re-validation: {why}"
    return ProofTraceTs(b0_index=b0, cover_indices=tuple(cover), selected=tuple(selected),
                        sigmas=tuple(sigmas), pirate_set=pirate, evasion=evasion)


# ---------------------------------------------------------------------------
# missing own-subsets -> parent ambiguity


def ipps_violation_from_missing_own_subsets(s: SetSystem,
                                            t: int) -> ProofTraceIpps | TraceBlocked:
    """Build a parent ambiguity when no block has a small own-subset.

    Requires every block to lack ceil(w / (floor(t^2/4) + t))-own-subsets;
    then walks the selection loop (overlap chunks A_i covered by few other
    blocks, linking sets D_i leading to fresh blocks) and assembles a
    pirate set whose parent sets have empty intersection.
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
        if enumerate_own_subsets(s, i, k).count:
            return TraceBlocked(step="precondition",
                                detail=f"block {i} has a {k}-own-subset")
    pb = _point_blocks(s)
    work = _Work(sys.maxsize)  # at most t cover searches with at most t blocks each

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
        cov = _find_cover(s.masks, pb, am, hu, w, work, bi)
        if cov is None:
            return TraceBlocked(step=f"C{i}-cover",
                                detail=f"overlap chunk of block {bi} has no small cover")
        pool2 = [p for p in pool if not (am >> p & 1)]
        if len(pool2) < k:
            return TraceBlocked(step=f"D{i}-size",
                                detail=f"only {len(pool2)} points free for the linking set")
        prev_union = s.union_mask(selected[:i - 1])
        d_i: tuple[int, ...] | None = None
        if i == 1:
            d_i = tuple(pool2[:k])
        else:
            for cand in combinations(pool2, k):
                if _mask(cand) & ~prev_union:
                    d_i = cand
                    break
            if d_i is None:
                return TraceBlocked(step=f"D{i}-choice",
                                    detail="every linking candidate lies inside "
                                           "previously selected blocks")
        dm = _mask(d_i)
        nxt = next((b for b in range(s.m)
                    if b not in selected and s.masks[b] & dm == dm), None)
        if nxt is None:
            return TraceBlocked(step=f"B{i + 1}-find",
                                detail="no fresh block contains the linking set")
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
    if len(pool) < size_last:
        return TraceBlocked(step=f"A{hd + 1}-size",
                            detail=f"only {len(pool)} points free in block {b_last}, "
                                   f"need {size_last}")
    a_last = tuple(pool[:size_last])
    am = _mask(a_last)
    cov_last: tuple[int, ...] | None = ()
    if a_last:
        cov_last = _find_cover(s.masks, pb, am, hu, w, work, b_last)
        if cov_last is None:
            return TraceBlocked(step=f"C{hd + 1}-cover",
                                detail="final chunk has no small cover")
        cov_last = tuple(sorted(cov_last))
    a_sets.append(a_last)
    c_covers.append(cov_last)

    pirate_mask = used | am
    pirate = tuple(_points(pirate_mask))
    assert len(pirate) == w, "assembled pirate set must have exactly w points"
    parents: list[tuple[int, ...]] = [tuple(sorted(selected))]
    for i in range(hd + 1):
        others = [selected[j] for j in range(hd + 1) if j != i]
        parent = tuple(sorted(set(c_covers[i]) | set(others)))
        assert len(parent) <= t
        parents.append(parent)
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


@dataclass(frozen=True)
class ConfigCheck:
    kind: str  # "not-configuration" | "non-minimal" | "minimal"
    union_size: int | None = None


def check_configuration(parts, t: int) -> ConfigCheck:
    """Classify a family of coalitions by empty-intersection minimality."""
    sets = [frozenset(p) for p in parts]
    if not sets or any(not p for p in sets):
        raise ParamsInvalid("need at least one nonempty part")
    if any(len(p) > t for p in sets):
        raise ParamsInvalid(f"a part exceeds the coalition size cap {t}")
    inter = set(sets[0])
    for p in sets[1:]:
        inter &= p
    if inter:
        return ConfigCheck(kind="not-configuration")
    for i in range(len(sets)):
        rest = [p for j, p in enumerate(sets) if j != i]
        sub = set(rest[0]) if rest else set()
        for p in rest[1:]:
            sub &= p
        if rest and not sub:
            return ConfigCheck(kind="non-minimal")
    union = set()
    for p in sets:
        union |= p
    cap = minimal_config_size_bound(t)
    if len(union) > cap:
        raise MinimalConfigTooLarge(
            f"minimal configuration with union {len(union)} exceeds cap {cap}")
    return ConfigCheck(kind="minimal", union_size=len(union))


@dataclass(frozen=True)
class CrossCheck:
    params: SchemeParams
    property: str
    optimum: int
    complete: bool
    lower: int
    upper: int | None
    exact: int | None
    consistent: bool


def cross_check_bounds(p: SchemeParams, property: str,
                       budget: int = 2_000_000) -> CrossCheck:
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
