"""Oracle machinery: optimum search, proof traces, configurations."""

import hashlib
import inspect
import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from traceschemes import (
    CffCover,
    MinimalConfigTooLarge,
    ParamsInvalid,
    ProofTraceIpps,
    ProofTraceTs,
    SchemeParams,
    TraceBlocked,
    check_configuration,
    check_witness,
    cross_check_bounds,
    exhaustive_optimal,
    ipps_violation_from_missing_own_subsets,
    new_set_system,
    pg_lines,
    trivial_ts,
    ts_upper_general,
    ts_violation_from_cff_failure,
    verify_cff,
    verify_ipps,
    verify_ts,
)
from traceschemes.oracle import render_trace_ipps, render_trace_ts


def _triples(v):
    return new_set_system(v, list(combinations(range(v), 3)))


# --- exhaustive optimum -----------------------------------------------------


def test_search_matches_small_width_formula():
    # for t=2 and w <= 4 the maximum is exactly v-w+1
    for w in (2, 3, 4):
        for v in range(w, 9):
            if v < 2:
                continue
            p = SchemeParams(2, w, v) if v >= w >= 2 else None
            if p is None:
                continue
            r = exhaustive_optimal(p, "ts", budget=5_000_000)
            assert r.complete
            assert r.optimum == v - w + 1, (w, v)
            assert r.optimum <= ts_upper_general(p).integer_bound


def test_search_witness_family_verifies():
    r = exhaustive_optimal(SchemeParams(2, 3, 6), "ts")
    assert verify_ts(r.witness_family, 2).holds
    assert r.witness_family.m == r.optimum
    r = exhaustive_optimal(SchemeParams(2, 3, 6), "cff")
    assert verify_cff(r.witness_family, 2).holds
    r = exhaustive_optimal(SchemeParams(2, 3, 6), "ipps")
    assert verify_ipps(r.witness_family, 2).holds


def test_search_self_consistent_across_budgets():
    a = exhaustive_optimal(SchemeParams(2, 3, 6), "cff", budget=100_000)
    b = exhaustive_optimal(SchemeParams(2, 3, 6), "cff", budget=5_000_000)
    assert a.complete and b.complete
    assert a.optimum == b.optimum
    assert a.witness_family == b.witness_family


def test_search_budget_exhaustion_flags_incomplete():
    r = exhaustive_optimal(SchemeParams(2, 4, 8), "ts", budget=200)
    assert not r.complete
    assert r.nodes_explored >= 200
    assert verify_ts(r.witness_family, 2).holds  # still a valid lower bound


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_memory_follows_the_budget():
    # C(22, 11) = 705,432 candidate blocks, but a 10-node budget reaches
    # only the first 11 of them.
    r, peak = _peak_bytes(lambda: exhaustive_optimal(SchemeParams(2, 11, 22), "ts", budget=10))
    assert (r.optimum, r.complete, r.nodes_explored) == (2, False, 11)
    assert peak < 2_000_000


def test_search_memory_stays_flat_under_a_large_budget():
    # The candidates are computed one from the last, never listed, so 20,000
    # nodes over C(22, 11) w-sets hold no more than a 10-node search does.
    r, peak = _peak_bytes(
        lambda: exhaustive_optimal(SchemeParams(2, 11, 22), "ts", budget=20_000))
    assert (r.complete, r.nodes_explored) == (False, 20_001)
    assert peak < 500_000


def test_search_deeper_than_the_recursion_limit():
    # The family grows to 199 blocks, one per level of the walk, with room
    # for only 100 more frames on the stack.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        r = exhaustive_optimal(SchemeParams(2, 2, 200), "cff", budget=20_000)
    finally:
        sys.setrecursionlimit(limit)
    assert (r.optimum, r.complete) == (199, False)
    assert verify_cff(r.witness_family, 2).holds


def test_search_rejects_unknown_property():
    with pytest.raises(ParamsInvalid):
        exhaustive_optimal(SchemeParams(2, 3, 6), "frameproof")


def test_search_is_deterministic():
    a = exhaustive_optimal(SchemeParams(2, 3, 7), "ts")
    b = exhaustive_optimal(SchemeParams(2, 3, 7), "ts")
    assert a == b


# --- cover failure -> evasion trace ------------------------------------------


def test_ts_trace_completes_on_all_triples_of_six():
    s = _triples(6)
    cff = verify_cff(s, 4)
    assert cff.violated
    trace = ts_violation_from_cff_failure(s, 2, cff.witness)
    assert isinstance(trace, ProofTraceTs)
    assert all(sig > 0 for sig in trace.sigmas[1:])
    w, t = s.w, 2
    tau0 = -(-w // (t * t))
    spread = sum(trace.sigmas[1:])
    assert (t + 1) * spread >= w - tau0 - trace.sigmas[0]
    assert len(trace.pirate_set) == w
    ok, why = check_witness(s, trace.evasion)
    assert ok, why
    # the evasion shows the system is not a 2-TS, matching the verifier
    assert verify_ts(s, 2).violated


def test_ts_trace_on_all_triples_of_four():
    s = new_set_system(4, list(combinations(range(4), 3)))
    cff = verify_cff(s, 4)
    assert cff.violated
    trace = ts_violation_from_cff_failure(s, 2, cff.witness)
    assert isinstance(trace, ProofTraceTs)
    assert check_witness(s, trace.evasion)[0]


def test_ts_trace_rejects_forged_witness():
    s = pg_lines(2, 4)  # genuine 2-TS: no valid cover witness exists
    forged = CffCover(target=0, cover=(1, 2, 3, 4), strength=4)
    with pytest.raises(ParamsInvalid):
        ts_violation_from_cff_failure(s, 2, forged)


def test_ts_trace_oversized_cover_rejected():
    s = _triples(6)
    cover = tuple(i for i in range(1, 7))  # 6 blocks > t^2 = 4
    union = set()
    for i in cover:
        union |= set(s.blocks[i])
    assert set(s.blocks[0]) <= union
    with pytest.raises(ParamsInvalid):
        ts_violation_from_cff_failure(s, 2, CffCover(target=0, cover=cover, strength=6))


def test_traces_reject_strength_below_two():
    s = _triples(6)
    with pytest.raises(ParamsInvalid):
        ts_violation_from_cff_failure(s, 1, verify_cff(s, 4).witness)
    with pytest.raises(ParamsInvalid):
        ipps_violation_from_missing_own_subsets(s, 1)


@st.composite
def cover_cases(draw):
    """Dense families on at most ten points, so that covers are common."""
    v = draw(st.integers(4, 10))
    w = draw(st.integers(2, min(5, v - 1)))
    pool = list(combinations(range(v), w))
    blocks = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=min(16, len(pool)),
                           unique=True))
    return new_set_system(v, blocks)


@given(cover_cases(), st.sampled_from((3, 4)))
def test_ts_trace_blocks_only_when_padding_runs_short(s, t):
    cff = verify_cff(s, t * t)
    if not cff.violated:
        return
    trace = ts_violation_from_cff_failure(s, t, cff.witness)
    if isinstance(trace, TraceBlocked):
        assert trace.step == "padding"
        return
    # B_0 differs from every other block, so two blocks are always chosen;
    # fewer than t means they cover B_0, which is then the pirate set.
    assert 2 <= len(trace.selected) <= t
    assert trace.evasion.coalition == tuple(sorted(trace.selected))
    assert trace.evasion.outsider == trace.b0_index == cff.witness.target
    assert check_witness(s, trace.evasion) == (True, "evasion verified")
    if len(trace.selected) < t:
        assert trace.pirate_set == s.blocks[trace.b0_index]


def _ts_trace_systems():
    # every w-subset of v points, then seeded random families of w-subsets
    for v in range(4, 10):
        for w in range(2, min(4, v - 1) + 1):
            yield _all_subsets(v, w)
    rng = random.Random(20)
    for _ in range(400):
        v = rng.randrange(5, 12)
        w = rng.randrange(2, min(5, v - 1) + 1)
        subsets = list(combinations(range(v), w))
        m = rng.randrange(3, 17)
        yield new_set_system(v, sorted(rng.sample(subsets, min(m, len(subsets)))))


def test_ts_trace_output_is_pinned():
    # every t*t-cover verify_cff finds, at t = 2 and 3, replayed into a trace
    h = hashlib.sha256()
    steps = Counter()
    for s in _ts_trace_systems():
        for t in (2, 3):
            cff = verify_cff(s, t * t)
            if cff.violated:
                trace = ts_violation_from_cff_failure(s, t, cff.witness)
                steps[getattr(trace, "step", "done")] += 1
                h.update(render_trace_ts(trace).encode())
    assert steps == {"done": 772}
    assert h.hexdigest() == "c1ae22768096021ea55c2458f66b042a85a96f5a161976d7247a9bf77a2c228f"


def test_ts_trace_padding_blocks_where_no_pirate_set_evades():
    # B_1 and B_2 meet B_0 in two points each, so spread = sigma_2 = 2, and
    # they share all five of their points outside it, so each padding point
    # charges both caps: two fit, and three are needed beside the core 0..3.
    s = new_set_system(18, [range(7), (0, 1, 7, 8, 9, 10, 11), (2, 3, 7, 8, 9, 10, 11),
                            (4, 5, 12, 13, 14, 15, 16), (6, 12, 13, 14, 15, 16, 17)])
    cff = verify_cff(s, 4)
    assert cff.witness == CffCover(target=0, cover=(1, 2, 3, 4), strength=4)
    assert ts_violation_from_cff_failure(s, 2, cff.witness) == TraceBlocked(
        step="padding", detail="only 2 points fit the caps, need 3")
    # No pirate set of that coalition leaves B_0 as close as both members.
    b0, b1, b2 = (set(b) for b in s.blocks[:3])
    for pirate in combinations(sorted(b1 | b2), s.w):
        f = set(pirate)
        assert len(f & b0) < max(len(f & b1), len(f & b2))
    assert verify_ts(s, 2).violated


# --- missing own-subsets -> ambiguity trace ----------------------------------


def test_ipps_trace_completes_on_all_triples_of_five():
    s = _triples(5)
    trace = ipps_violation_from_missing_own_subsets(s, 2)
    assert isinstance(trace, ProofTraceIpps)
    assert len(trace.pirate_set) == s.w
    k = -(-s.w // (2 * 2 // 4 + 2))
    assert all(len(a) in (k * 1, s.w - 2 * k) for a in trace.a_sets)
    assert all(len(d) == k for d in trace.d_sets)
    ok, why = check_witness(s, trace.ambiguity)
    assert ok, why
    assert verify_ipps(s, 2).violated


def test_ipps_trace_blocked_when_own_subsets_exist():
    trace = ipps_violation_from_missing_own_subsets(pg_lines(2, 4), 2)
    assert isinstance(trace, TraceBlocked)
    assert trace.step == "precondition"
    trace = ipps_violation_from_missing_own_subsets(trivial_ts(8, 3), 2)
    assert isinstance(trace, TraceBlocked)


def test_ipps_trace_precondition_stops_at_the_first_own_subset():
    # every 8-subset of either block is its own: C(23, 8) = 490,314 of them
    s = new_set_system(46, [range(23), range(23, 46)])
    trace, peak = _peak_bytes(lambda: ipps_violation_from_missing_own_subsets(s, 2))
    assert trace == TraceBlocked(step="precondition", detail="block 0 has a 8-own-subset")
    assert peak < 2_000_000


def test_ipps_trace_on_a_system_without_blocks():
    assert ipps_violation_from_missing_own_subsets(new_set_system(4, [], width=2), 2) == (
        TraceBlocked(step="precondition", detail="system has no blocks"))


def test_ipps_trace_budget_can_stop_only_the_final_cover_search():
    # On all triples of five points at t = 2, the searches for C_1 and C_2
    # take two nodes each: a budget of 2 pays for the first only.
    s = _triples(5)
    assert ipps_violation_from_missing_own_subsets(s, 2, 2) == TraceBlocked(
        step="C2-cover", detail="cover search exceeded its budget of 2 work units")
    assert isinstance(ipps_violation_from_missing_own_subsets(s, 2, 4), ProofTraceIpps)


def _ipps_trace_systems():
    # seeded random systems at strengths 4..6, where the trace has >= 2
    # linking sets D_i and can stop at a D_i-choice
    rng = random.Random(9)
    for _ in range(300):
        t = rng.choice((4, 5, 6))
        v = rng.randrange(6, 13)
        w = rng.randrange(v // 2, v)
        m = rng.randrange(4, 25)
        blocks = set()
        while len(blocks) < min(m, comb(v, w)):
            blocks.add(tuple(sorted(rng.sample(range(v), w))))
        yield new_set_system(v, sorted(blocks)), t


def test_ipps_trace_linking_sets_match_a_literal_scan():
    # D_i is the lexicographically first k-subset of the points of B_i left
    # after the earlier chunks and A_i, with a point outside B_1..B_(i-1).
    done = late = 0
    for s, t in _ipps_trace_systems():
        trace = ipps_violation_from_missing_own_subsets(s, t)
        if isinstance(trace, TraceBlocked):
            continue
        done += 1
        k = -(-s.w // (t * t // 4 + t))
        used: set[int] = set()
        for i, (a, d) in enumerate(zip(trace.a_sets, trace.d_sets), start=1):
            free = [p for p in s.blocks[trace.selected[i - 1]] if p not in used and p not in a]
            earlier = set().union(*(s.blocks[b] for b in trace.selected[:i - 1]))
            assert d == next(c for c in combinations(free, k) if not set(c) <= earlier)
            late += d != tuple(free[:k])
            used |= set(a) | set(d)
    assert done == 68 and late == 29


def test_ipps_trace_output_is_pinned():
    h = hashlib.sha256()
    steps = set()
    for s, t in _ipps_trace_systems():
        trace = ipps_violation_from_missing_own_subsets(s, t)
        steps.add(getattr(trace, "step", "done"))
        h.update(render_trace_ipps(trace).encode())
    assert {"done", "D2-choice", "D3-choice", "D2-size"} <= steps
    assert h.hexdigest() == "6ea761f2ddbc1e55d18ea92dd0b8c791169bced2a328ab1e022851ac405fd8f2"


def _all_subsets(v, w):
    return new_set_system(v, list(combinations(range(v), w)))


def test_ipps_trace_literal_high_strength():
    # D_2 = 8: the points 5 6 left in B_2 lie in B_1, so 8 replaces them
    assert render_trace_ipps(ipps_violation_from_missing_own_subsets(_all_subsets(9, 8), 4)) == (
        "trace ipps-own-subsets\n"
        "1 selected blocks: 0 1 2\n"
        "2 A_1 = 0 1 ; C(1) = 1\n"
        "3 D_1 = 2\n"
        "4 A_2 = 3 4 ; C(2) = 0\n"
        "5 D_2 = 8\n"
        "6 A_3 = 5 7 ; C(3) = 0\n"
        "7 pirate set T = 0 1 2 3 4 5 7 8\n"
        "8 parent sets: (0 1) (0 1 2) (0 2) (1 2)\n")
    assert render_trace_ipps(ipps_violation_from_missing_own_subsets(_all_subsets(12, 9), 5)) == (
        "trace ipps-own-subsets\n"
        "1 selected blocks: 0 1 4\n"
        "2 A_1 = 0 1 2 ; C(1) = 1\n"
        "3 D_1 = 3\n"
        "4 A_2 = 4 5 6 ; C(2) = 0\n"
        "5 D_2 = 9\n"
        "6 A_3 = 8 ; C(3) = 0\n"
        "7 pirate set T = 0 1 2 3 4 5 6 8 9\n"
        "8 parent sets: (0 1) (0 1 4) (0 4) (1 4)\n")
    assert render_trace_ipps(ipps_violation_from_missing_own_subsets(_all_subsets(12, 10), 4)) == (
        "trace ipps-own-subsets blocked\n"
        "step D2-size\n"
        "only 0 points free for the linking set\n")


def test_ipps_trace_strength_three():
    # all 4-subsets of 6 points: k = ceil(4/(2+3)) = 1, every block coverable
    s = new_set_system(6, list(combinations(range(6), 4)))
    trace = ipps_violation_from_missing_own_subsets(s, 3)
    if isinstance(trace, ProofTraceIpps):
        assert check_witness(s, trace.ambiguity)[0]
    else:
        assert isinstance(trace, TraceBlocked)


# --- configurations -----------------------------------------------------------


def test_check_configuration_examples():
    r = check_configuration([{"a", "b"}, {"a", "c"}, {"b", "c"}], 2)
    assert r.kind == "minimal" and r.union_size == 3
    assert check_configuration([{"a"}, {"a"}], 2).kind == "not-configuration"
    r = check_configuration([{"a", "b"}, {"a", "c"}, {"b", "c"}, {"a", "d"}], 2)
    assert r.kind == "non-minimal"


def test_check_configuration_validation():
    with pytest.raises(ParamsInvalid):
        check_configuration([], 2)
    with pytest.raises(ParamsInvalid):
        check_configuration([{"a", "b", "c"}], 2)
    with pytest.raises(ParamsInvalid):
        check_configuration([set()], 2)


def test_check_configuration_refuses_a_union_past_the_cap(monkeypatch):
    # The proven cap is never exceeded (the test below); a cap of 2 is.
    monkeypatch.setattr("traceschemes.oracle.minimal_config_size_bound", lambda t: 2)
    with pytest.raises(MinimalConfigTooLarge, match="union 3 exceeds cap 2"):
        check_configuration([{"a", "b"}, {"a", "c"}, {"b", "c"}], 2)


def test_minimal_configurations_respect_union_cap():
    rng = random.Random(424242)
    minimal_seen = 0
    for _ in range(400):
        t = rng.choice([2, 3])
        parts = [frozenset(rng.sample(range(8), rng.randint(1, t)))
                 for _ in range(rng.randint(1, 5))]
        try:
            r = check_configuration(parts, t)
        except MinimalConfigTooLarge as exc:  # would contradict the union cap
            raise AssertionError(str(exc))
        if r.kind == "minimal":
            minimal_seen += 1
    assert minimal_seen > 0


# --- bound cross-checks ---------------------------------------------------------


def test_cross_check_examples():
    r = cross_check_bounds(SchemeParams(2, 4, 7), "ts")
    assert r.optimum == 4 and r.exact == 4 and r.consistent and r.complete
    r = cross_check_bounds(SchemeParams(2, 2, 5), "ts")
    assert r.optimum == 4 and r.exact == 4 and r.consistent
    r = cross_check_bounds(SchemeParams(2, 3, 6), "cff")
    assert r.consistent and r.lower <= r.optimum <= r.upper


def test_cross_check_incomplete_budget():
    r = cross_check_bounds(SchemeParams(2, 4, 8), "ts", budget=100)
    assert not r.complete
    assert r.consistent  # found family still respects the upper bound
