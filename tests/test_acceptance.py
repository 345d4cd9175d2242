"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact (these are combinatorial identities); the
timing limits in the criteria are generous compared to actual runtimes.
"""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from traceschemes import (
    ProofTraceIpps,
    ProofTraceTs,
    SchemeParams,
    ag_lines,
    binom,
    bound_report,
    check_witness,
    cff_upper_eff,
    cff_upper_new,
    enumerate_own_subsets,
    exhaustive_optimal,
    greedy_packing_ts,
    hermitian_unital,
    inversive_plane,
    ipps_violation_from_missing_own_subsets,
    new_set_system,
    pg_lines,
    render_bound_report,
    render_witness,
    trivial_ts,
    ts_upper_collins,
    ts_upper_general,
    ts_upper_special,
    ts_violation_from_cff_failure,
    verify_cff,
    verify_ipps,
    verify_ipps_star,
    verify_packing,
    verify_ts,
)
from traceschemes.verify import parse_witness

GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_optimal_ts_5_21():
    s = pg_lines(2, 4)
    ok = (s.v, s.w, s.m) == (21, 5, 21)
    ok = ok and verify_ts(s, 2, mode="exhaustive").holds
    special = ts_upper_special(SchemeParams(2, 5, 21))
    ok = ok and special.applicable and special.integer_bound == 21 == s.m
    _report(1, "optimal 2-TS(5,21,21)", ok)


def test_criterion_2_optimal_ts_5_25():
    s = ag_lines(2, 5)
    ok = (s.v, s.w, s.m) == (25, 5, 30)
    ok = ok and s.m == binom(25, 2) // binom(5, 2)
    ok = ok and verify_ts(s, 2, mode="exhaustive").holds
    _report(2, "optimal 2-TS(5,25,30)", ok)


def test_criterion_3_corollary_exactness():
    ok = True
    for v in (3, 4, 5):
        r = exhaustive_optimal(SchemeParams(2, 2, v), "ts")
        ok = ok and r.complete and r.optimum == v - 1
    r = exhaustive_optimal(SchemeParams(2, 4, 7), "ts")
    ok = ok and r.complete and r.optimum == 4
    _report(3, "searched optima equal v-w+1", ok)


def _relationship_corpus():
    return [
        ("pg-lines(2,2)", pg_lines(2, 2)),
        ("pg-lines(2,4)", pg_lines(2, 4)),
        ("ag-lines(2,2)", ag_lines(2, 2)),
        ("ag-lines(2,3)", ag_lines(2, 3)),
        ("ag-lines(2,5)", ag_lines(2, 5)),
        ("inversive(3)", inversive_plane(3)),
        ("hermitian(2)", hermitian_unital(2)),
        ("trivial(10,4)", trivial_ts(10, 4)),
        ("trivial(8,3)", trivial_ts(8, 3)),
        ("trivial(6,5)", trivial_ts(6, 5)),
        ("greedy(12,4,2)", greedy_packing_ts(12, 4, 2)),
        ("greedy(30,5,2)", greedy_packing_ts(30, 5, 2)),
        ("all-triples(5)", new_set_system(5, list(combinations(range(5), 3)))),
        ("all-triples(6)", new_set_system(6, list(combinations(range(6), 3)))),
    ]


def test_criterion_4_relationship_suite():
    t = 2
    corpus = _relationship_corpus()
    assert len(corpus) >= 10
    ok = True
    holds_seen = violated_seen = 0
    for name, s in corpus:
        ts_out = verify_ts(s, t)
        ipps_out = verify_ipps(s, t)
        cff_out = verify_cff(s, t)
        cff_sq_out = verify_cff(s, t * t)
        for out in (ts_out, ipps_out, cff_out, cff_sq_out):
            assert not out.inconclusive, name
        if ts_out.holds:
            holds_seen += 1
            ok = ok and ipps_out.holds and cff_sq_out.holds
        else:
            violated_seen += 1
        if ipps_out.holds:
            ok = ok and cff_out.holds
        assert ok, name
    ok = ok and holds_seen >= 4 and violated_seen >= 2
    _report(4, "strength chain over corpus", ok)


def test_criterion_5_own_subset_floor():
    s = pg_lines(2, 4)
    counts = [enumerate_own_subsets(s, i, 2).count for i in range(s.m)]
    print("own-subset counts:", counts)
    ok = len(counts) == 21 and all(c >= 4 for c in counts)
    _report(5, "own-subset floor on 2-TS(5,21)", ok)


def test_criterion_6_greedy_packing():
    s = greedy_packing_ts(30, 5, 2)
    ok = verify_packing(s, 2).holds
    bound = Fraction(binom(30, 2), binom(5, 2) ** 2)
    ok = ok and bound == Fraction(435, 100) and s.m >= 5
    certified = verify_ts(s, 2, mode="certified")
    ok = ok and certified.holds and certified.mode == "certified"
    ok = ok and verify_ts(s, 2, mode="exhaustive").holds
    _report(6, "greedy packing meets guarantee", ok)


def test_criterion_7_bounds_golden():
    p = SchemeParams(2, 5, 21)
    ts_report = bound_report(p, "ts")
    vals = {b.name: b.value for b in ts_report.entries}
    ints = {b.name: b.integer_bound for b in ts_report.entries}
    ok = vals["upper-sw"] == Fraction(1330, 6)
    ok = ok and vals["upper-collins"] == 210
    ok = ok and vals["upper-general"] == 51
    ok = ok and vals["upper-special"] == 21
    ok = ok and ints["lower-trivial"] == 17
    ok = ok and vals["lower-packing"] == Fraction(210, 100) and ints["lower-packing"] == 3
    ipps_report = bound_report(p, "ipps")
    ivals = {b.name: b.value for b in ipps_report.entries}
    ok = ok and ivals["upper-collins"] == 1330 and ivals["upper-new"] == 210
    ts_text = render_bound_report(ts_report)
    ipps_text = render_bound_report(ipps_report)
    ok = ok and ts_text == (GOLDEN / "bound_2_5_21_ts.txt").read_text(encoding="utf-8")
    ok = ok and ipps_text == (GOLDEN / "bound_2_5_21_ipps.txt").read_text(encoding="utf-8")
    cff_text = render_bound_report(bound_report(p, "cff"))
    ok = ok and cff_text == (GOLDEN / "bound_2_5_21_cff.txt").read_text(encoding="utf-8")
    _report(7, "bounds table golden regression", ok)


def test_criterion_8_monotonicity_grid():
    violations = 0
    points = 0
    for t in (2, 3, 4):
        for w in range(t, 4 * t * t + 1):
            for v in range(w, 201):
                p = SchemeParams(t, w, v)
                points += 1
                general = ts_upper_general(p).value
                collins = ts_upper_collins(p).value
                if general > collins:
                    violations += 1
                special = ts_upper_special(p)
                if special.applicable and special.value > general:
                    violations += 1
                if cff_upper_new(p).value > cff_upper_eff(p).value:
                    violations += 1
                e_new = -(-w // (t * t // 4 + t))
                e_collins = -(-w // (t * t // 4 + -(-t // 2)))
                if e_new > e_collins:
                    violations += 1
    print(f"grid points checked: {points}")
    _report(8, "bound monotonicity grid", violations == 0)


def test_criterion_9_proof_traces():
    tri6 = new_set_system(6, list(combinations(range(6), 3)))
    cff = verify_cff(tri6, 4)
    ok = cff.violated
    trace = ts_violation_from_cff_failure(tri6, 2, cff.witness)
    ok = ok and isinstance(trace, ProofTraceTs)
    if ok:
        # inequality chain from the selection procedure
        spread = sum(trace.sigmas[1:])
        ok = ok and 3 * spread >= tri6.w - 1 - trace.sigmas[0]
        rendered = render_witness(trace.evasion)
        ok = ok and check_witness(tri6, parse_witness(rendered))[0]
    tri5 = new_set_system(5, list(combinations(range(5), 3)))
    trace5 = ipps_violation_from_missing_own_subsets(tri5, 2)
    ok = ok and isinstance(trace5, ProofTraceIpps)
    if isinstance(trace5, ProofTraceIpps):
        rendered = render_witness(trace5.ambiguity)
        ok = ok and check_witness(tri5, parse_witness(rendered))[0]
    _report(9, "proof traces re-validate", ok)


def test_criterion_10_ipps_star_equivalence():
    rng = random.Random(1234567)
    checked = 0
    ok = True
    while checked < 100:
        v = rng.randint(4, 10)
        w = rng.randint(2, 4)
        if w > v:
            continue
        m = rng.randint(1, 7)
        pool = list(combinations(range(v), w))
        blocks = rng.sample(pool, min(m, len(pool)))
        s = new_set_system(v, blocks)
        a = verify_ipps(s, 2)
        b = verify_ipps_star(s, 2)
        if a.inconclusive or b.inconclusive:
            continue
        ok = ok and a.verdict == b.verdict
        assert ok, (s.blocks,)
        checked += 1
    print(f"ipps vs ipps-star agreement on {checked} systems")
    _report(10, "ipps equals ipps-star on sweep", ok)
