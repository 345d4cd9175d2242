"""Verifiers against literal brute-force oracles and known instances."""

import ast
import hashlib
import random
import sys
import time
import timeit
import tracemalloc
from collections import Counter
from itertools import combinations, islice, product
from math import comb
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import traceschemes
from traceschemes import (
    CffCover,
    ExtensionCertificate,
    IppsAmbiguity,
    ParamsInvalid,
    SchemeParams,
    SetSystem,
    TauOutOfRange,
    TsEvasion,
    VerifyOutcome,
    ag_lines,
    check_witness,
    exhaustive_optimal,
    extend_design,
    greedy_packing_ts,
    hermitian_unital,
    new_set_system,
    parse_witness,
    pg_lines,
    render_witness,
    trivial_ts,
    verify_cff,
    verify_design,
    verify_ipps,
    verify_ipps_star,
    verify_packing,
    verify_ts,
)
from traceschemes.core import FormatError, _ceil_div, _mask, _points, _union
from traceschemes.oracle import _ipps_extension_ok
from traceschemes.verify import (
    _at_least,
    _BudgetStop,
    _find_cover,
    _ipps_ambiguity,
    _ipps_pop,
    _ipps_push,
    _largest,
    _least,
    _overlaps,
    _PackedCounts,
    _point_blocks,
    _point_columns,
    _ts_evader,
    _ts_packs,
    _ts_witness,
    _Work,
)


# --- literal re-statements of the definitions, used as oracles ------------


def brute_ts(s, t):
    for sc in range(1, t + 1):
        for coal in combinations(range(s.m), sc):
            union = set()
            for j in coal:
                union |= set(s.blocks[j])
            if len(union) < s.w:
                continue
            for tpts in combinations(sorted(union), s.w):
                tset = set(tpts)
                hits = [len(tset & set(s.blocks[j])) for j in coal]
                for o in range(s.m):
                    if o in coal:
                        continue
                    if len(tset & set(s.blocks[o])) >= max(hits):
                        return False
    return True


def brute_ipps(s, t, min_size=None, max_size=None):
    lo = s.w if min_size is None else min_size
    hi = s.w if max_size is None else max_size
    for size in range(lo, hi + 1):
        for tpts in combinations(range(s.v), size):
            tset = set(tpts)
            covers = []
            for sc in range(1, t + 1):
                for coal in combinations(range(s.m), sc):
                    union = set()
                    for j in coal:
                        union |= set(s.blocks[j])
                    if tset <= union:
                        covers.append(set(coal))
            if covers:
                common = set.intersection(*covers)
                if not common:
                    return False
    return True


def brute_cff(s, t):
    for b0 in range(s.m):
        b0set = set(s.blocks[b0])
        others = [i for i in range(s.m) if i != b0]
        for sc in range(1, min(t, len(others)) + 1):
            for combo in combinations(others, sc):
                union = set()
                for j in combo:
                    union |= set(s.blocks[j])
                if b0set <= union:
                    return False
    return True


def _ts_evasion(masks, coalition: tuple[int, ...], outsiders: list[int], w: int,
               work: _Work) -> tuple[tuple[int, ...], int] | None:
    """Lexicographically first (pirate set, outsider) evading ``coalition``.

    Pirate sets are the w-subsets of the coalition's union, taken in
    lexicographic order; for each, the ascending ``outsiders`` are tried in
    turn.  Returns None iff no pirate set evades the coalition.  The
    brute-force authority for :func:`_ts_evader` and :func:`_ts_witness`.
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


def _random_system(rng, v, w, m):
    pool = list(combinations(range(v), w))
    return new_set_system(v, rng.sample(pool, min(m, len(pool))))


# --- randomized agreement with the oracles --------------------------------


def brute_first_ts_witness(s, t):
    """Lexicographically first (coalition, pirate, outsider) violation."""
    coalitions = sorted(c for sc in range(2, t + 1)
                        for c in combinations(range(s.m), sc))
    for coal in coalitions:
        union = set()
        for j in coal:
            union |= set(s.blocks[j])
        if len(union) < s.w:
            continue
        for tpts in combinations(sorted(union), s.w):
            tset = set(tpts)
            thr = max(len(tset & set(s.blocks[j])) for j in coal)
            for o in range(s.m):
                if o not in coal and len(tset & set(s.blocks[o])) >= thr:
                    return coal, tpts, o
    return None


def test_ts_agrees_with_brute_force():
    rng = random.Random(20240811)
    for _ in range(40):
        v = rng.randint(4, 7)
        w = rng.randint(2, min(3, v))
        m = rng.randint(2, 6)
        t = rng.choice([2, 3])
        s = _random_system(rng, v, w, m)
        out = verify_ts(s, t)
        assert out.holds == brute_ts(s, t), (s.blocks, t)
        if out.violated:
            ok, why = check_witness(s, out.witness)
            assert ok, why
            expected = brute_first_ts_witness(s, t)
            got = (out.witness.coalition, out.witness.pirate, out.witness.outsider)
            assert got == expected, (s.blocks, t)


def test_ipps_agrees_with_brute_force():
    rng = random.Random(7)
    for _ in range(30):
        v = rng.randint(4, 7)
        w = rng.randint(2, min(3, v))
        m = rng.randint(1, 6)
        s = _random_system(rng, v, w, m)
        out = verify_ipps(s, 2)
        assert out.holds == brute_ipps(s, 2), (s.blocks,)
        if out.violated:
            ok, why = check_witness(s, out.witness)
            assert ok, why


def test_cff_agrees_with_brute_force():
    rng = random.Random(99)
    for _ in range(40):
        v = rng.randint(4, 7)
        w = rng.randint(2, min(3, v))
        m = rng.randint(1, 7)
        t = rng.choice([1, 2, 3])
        s = _random_system(rng, v, w, m)
        out = verify_cff(s, t)
        assert out.holds == brute_cff(s, t), (s.blocks, t)
        if out.violated:
            ok, why = check_witness(s, out.witness)
            assert ok, why


# --- design and packing ----------------------------------------------------


def test_design_examples():
    assert verify_design(pg_lines(2, 2), 2, 1).holds
    assert verify_design(pg_lines(2, 4), 2, 1).holds
    out = verify_design(new_set_system(4, [[0, 1, 2], [0, 1, 3]]), 2, 1)
    assert out.violated
    assert "[0, 1]" in out.detail and "2 times" in out.detail


def test_design_detects_uncovered_subset():
    out = verify_design(new_set_system(5, [[0, 1, 2]]), 2, 1)
    assert out.violated and "0 times" in out.detail


def test_design_tau_out_of_range():
    s = new_set_system(4, [[0, 1, 2]])
    with pytest.raises(TauOutOfRange):
        verify_design(s, 4, 1)
    for tau in (0, 4):
        with pytest.raises(TauOutOfRange):
            verify_packing(s, tau)


def test_strength_below_one_is_refused():
    s = new_set_system(4, [[0, 1, 2], [1, 2, 3]])
    for decide in (verify_cff, verify_ts, verify_ipps, verify_ipps_star):
        with pytest.raises(ParamsInvalid):
            decide(s, 0)


def test_packing_examples():
    assert verify_packing(pg_lines(2, 3), 2).holds
    out = verify_packing(new_set_system(4, [[0, 1, 2], [1, 2, 3]]), 2)
    assert out.violated and "[1, 2]" in out.detail
    assert verify_packing(greedy_packing_ts(30, 5, 2), 2).holds


# --- cover-free ------------------------------------------------------------


def test_cff_all_triples_of_four():
    s = new_set_system(4, list(combinations(range(4), 3)))
    out = verify_cff(s, 2)
    assert out.violated
    assert out.witness == CffCover(target=0, cover=(1, 2), strength=2)
    assert check_witness(s, out.witness)[0]


def test_cff_trivial_system_huge_strength():
    assert verify_cff(trivial_ts(10, 4), 100).holds


def test_cff_projective_lines_strength_four():
    assert verify_cff(pg_lines(2, 4), 4).holds


# --- traceability ----------------------------------------------------------


def test_ts_projective_lines():
    assert verify_ts(pg_lines(2, 4), 2).holds


def test_ts_all_triples_of_six_canonical_witness():
    s = new_set_system(6, list(combinations(range(6), 3)))
    out = verify_ts(s, 2)
    assert out.violated
    assert out.witness == TsEvasion(coalition=(0, 1), pirate=(0, 2, 3), outsider=4)
    assert check_witness(s, out.witness)[0]


def test_ts_trivial_strength_three():
    assert verify_ts(trivial_ts(10, 4), 3).holds


def test_ts_strength_one_and_tiny_systems():
    s = new_set_system(6, [[0, 1, 2], [3, 4, 5]])
    assert verify_ts(s, 1).holds
    assert verify_ts(new_set_system(3, [[0, 1, 2]]), 5).holds


def test_ts_tie_counts_as_violation():
    # outsider ties both members: non-strict comparison is a violation
    s = new_set_system(4, [[0, 1], [1, 2], [2, 3]])
    out = verify_ts(s, 2)
    assert out.violated
    ok, _ = check_witness(s, out.witness)
    assert ok


def test_directly_built_system_gets_the_same_verdicts():
    # SetSystem is public; its masks come from its blocks however it is built.
    direct = SetSystem(v=4, w=2, blocks=((0, 1), (1, 2), (2, 3)))
    canon = new_set_system(4, [[2, 3], [0, 1], [1, 2]])
    assert direct == canon and direct.masks == canon.masks == (0b11, 0b110, 0b1100)
    for check in (verify_ts, verify_ipps, verify_ipps_star, verify_cff):
        for t in (1, 2):
            assert check(direct, t) == check(canon, t), (check.__name__, t)
    assert verify_ts(direct, 2, "certified") == verify_ts(canon, 2, "certified")
    assert verify_design(direct, 2, 1) == verify_design(canon, 2, 1)
    assert verify_packing(direct, 1) == verify_packing(canon, 1)
    assert check_witness(direct, verify_ts(canon, 2).witness) == (True, "evasion verified")


def test_ts_certified_modes():
    g = greedy_packing_ts(30, 5, 2)
    out = verify_ts(g, 2, mode="certified")
    assert out.holds and out.mode == "certified"
    out = verify_ts(trivial_ts(10, 4), 2, mode="certified")
    assert out.inconclusive
    with pytest.raises(ParamsInvalid):
        verify_ts(g, 2, mode="sideways")
    assert verify_ts(new_set_system(5, [(0, 1, 2)]), 2, mode="certified") == VerifyOutcome(
        "holds", "certified", detail="at most one block", work=0)


def test_certified_holds_implies_exhaustive_holds():
    instances = [greedy_packing_ts(30, 5, 2), greedy_packing_ts(12, 4, 2),
                 pg_lines(2, 4), ag_lines(2, 5), trivial_ts(8, 3)]
    for s in instances:
        cert = verify_ts(s, 2, mode="certified")
        if cert.holds:
            assert verify_ts(s, 2).holds
    # Larger instances that certify, by packing or by a design-extension
    # certificate; at t = 3, the plane PG(2, 9) extended by d = 0 points and
    # a partition into single points extended by d = 8.
    singles = new_set_system(12, [[p] for p in range(12)])
    certified = [((hermitian_unital(4), None), 2),
                 (extend_design(pg_lines(2, 4), 1, 2), 2),
                 (extend_design(pg_lines(2, 9), 0, 3), 3),
                 (extend_design(singles, 8, 3), 3)]
    for (s, cert), t in certified:
        assert verify_ts(s, t, mode="certified", certificate=cert).holds
        assert verify_ts(s, t).holds


def test_certified_ts_pays_for_its_extension_certificate():
    # The certificate's appended point lies in every block, so the scan
    # reads the lines of PG(2, 16) less it: 17 points of degree 17, 289 per
    # block, 78,897 in all.  Stripping the point is not charged.  The
    # certificate's t and tau are not read, so one made for t = 2 serves.
    s, cert = extend_design(pg_lines(2, 16), 1, 4)
    holds = VerifyOutcome(
        "holds", "certified",
        detail="pairwise intersections outside 1 common points below 2 certify strength 4",
        work=78_897)
    assert verify_ts(s, 4, mode="certified", certificate=cert) == holds
    assert verify_ts(s, 4, mode="certified", certificate=ExtensionCertificate(1, 2, 9)) == holds
    assert verify_ts(s, 4, mode="certified", budget=78_897, certificate=cert).holds
    # A stop in the scan is inconclusive.
    for budget, work in ((1, 289), (1_000, 1_156), (78_896, 78_897)):
        assert verify_ts(s, 4, mode="certified", budget=budget, certificate=cert) == VerifyOutcome(
            "inconclusive", "certified", detail="BudgetExceeded", work=work)


def test_certificate_threshold_reads_the_stripped_width():
    # The PG(2, 9) extension by d = 8 has width 18.  Less the 8 appended
    # points its lines meet in one point, not below ceil(10/16) = 1, so at
    # t = 4 the certificate fails at block 0, 10 points of degree 10.  At
    # ceil(18/16) = 2 it would pass, and a coalition of four blocks is evaded.
    s = extend_design(pg_lines(2, 9), 8, 3)[0]
    cert = ExtensionCertificate(d=8, t=4, tau=2)
    assert verify_ts(s, 4, mode="certified", certificate=cert) == VerifyOutcome(
        "inconclusive", "certified", detail="no packing certificate; run exhaustive mode", work=100)
    out = verify_ts(s, 4)
    assert (out.verdict, out.witness.coalition, out.witness.outsider) == (
        "violated", (0, 1, 2, 3), 10)
    # Points 5 and 6 are not in every block, so the certificate naming them
    # is ignored; stripped, the four blocks would be disjoint.
    s = new_set_system(7, [(0, 5, 6), (1, 5, 6), (2, 5, 6), (3, 4, 5)])
    assert verify_ts(s, 2, mode="certified", certificate=ExtensionCertificate(2, 2, 1)) == (
        VerifyOutcome("inconclusive", "certified",
                      detail="appended points missing from some block", work=8))
    assert verify_ts(s, 2).witness == TsEvasion(coalition=(0, 3), pirate=(3, 5, 6), outsider=1)


def test_certified_ts_ignores_a_malformed_certificate():
    # A d that is not an int in [0, w) leaves the plain scan, which fails at
    # block 0: 5 points of degree 5 and the appended point, of degree 21.
    s = extend_design(pg_lines(2, 4), 1, 2)[0]
    for d in ("1", 1.0, -1, 6, None):
        out = verify_ts(s, 2, mode="certified", certificate=ExtensionCertificate(d, 2, 2))
        assert (out.verdict, out.detail, out.work) == (
            "inconclusive", f"certificate d={d!r} outside [0, 5]", 46), d


@st.composite
def cored_systems(draw):
    """A system whose blocks all hold d <= 3 planted points, the top labels, and d."""
    d = draw(st.integers(0, 3))
    v = draw(st.integers(2, 12 - d))
    w = draw(st.integers(1, min(7 - d, v - 1)))
    pool = list(combinations(range(v), w))
    base = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=min(12, len(pool)),
                         unique=True))
    return new_set_system(v + d, [b + tuple(range(v, v + d)) for b in base]), d


@given(cored_systems(), st.integers(2, 3))
@example((new_set_system(7, [(0, 5, 6), (1, 5, 6), (2, 5, 6), (3, 4, 5)]), 2), 2)
def test_stripped_certificate_never_settles_a_violated_system(case, t):
    s, d = case
    if verify_ts(s, t, mode="certified", certificate=ExtensionCertificate(d, t, 0)).holds:
        assert brute_ts(s, t)
    if verify_ipps(s, t).detail.startswith("pairwise intersections"):
        assert not brute_ambiguous(s, t)
    for k in range(1, 5):
        if verify_cff(s, k).holds:
            assert brute_cff(s, k), k


# --- parent identification --------------------------------------------------


def test_ipps_holds_on_traceability_instances():
    for s in (pg_lines(2, 4), trivial_ts(10, 4), greedy_packing_ts(12, 4, 2)):
        assert verify_ipps(s, 2).holds


def test_ipps_all_triples_of_five():
    s = new_set_system(5, list(combinations(range(5), 3)))
    out = verify_ipps(s, 2)
    assert out.violated
    wit = out.witness
    assert isinstance(wit, IppsAmbiguity) and wit.pirate == (0, 1, 2)
    assert check_witness(s, wit)[0]
    # every reported parent is a minimal cover of the pirate set
    pirate = set(wit.pirate)
    for parent in wit.parents:
        union = set()
        for j in parent:
            union |= set(s.blocks[j])
        assert pirate <= union
        for drop in parent:
            rest = set()
            for j in parent:
                if j != drop:
                    rest |= set(s.blocks[j])
            assert not pirate <= rest


def test_ipps_single_block():
    assert verify_ipps(new_set_system(4, [[0, 1, 2]]), 3).holds


def test_ipps_star_agrees_with_literal_definition():
    rng = random.Random(5150)
    for _ in range(12):
        v = rng.randint(4, 6)
        w = rng.randint(2, 3)
        m = rng.randint(1, 5)
        s = _random_system(rng, v, w, m)
        out = verify_ipps_star(s, 2)
        assert out.holds == brute_ipps(s, 2, min_size=s.w, max_size=min(2 * s.w, s.v))


def test_ipps_star_matches_ipps_on_examples():
    tri5 = new_set_system(5, list(combinations(range(5), 3)))
    assert verify_ipps_star(tri5, 2).violated
    assert verify_ipps_star(trivial_ts(8, 3), 2).holds


# --- budgets and determinism -------------------------------------------------


def test_early_ts_witness_needs_only_a_prefix_of_pair_intersections():
    # Blocks 0 and 1 are evaded by block 2; 40 far blocks follow.  Finding
    # the witness must not wait for all 903 block pairs to be intersected.
    far = [(10 + 3 * i, 11 + 3 * i, 12 + 3 * i) for i in range(40)]
    s = new_set_system(130, [(0, 1, 2), (0, 1, 3), (0, 2, 3)] + far)
    out = verify_ts(s, 2, budget=300)
    assert out.violated and out.witness.coalition == (0, 1) and out.witness.outsider == 2


def test_budget_exhaustion_is_inconclusive():
    s = pg_lines(2, 4)
    for run in (lambda: verify_ts(s, 2, budget=50),
                lambda: verify_ipps(s, 2, budget=50),
                lambda: verify_cff(s, 4, budget=5),
                lambda: verify_design(s, 2, 1, budget=5),
                lambda: verify_packing(s, 2, budget=5)):
        out = run()
        assert out.inconclusive and out.detail == "BudgetExceeded"


def test_cover_search_budget_stops_inside_the_walk():
    # Blocks 1 and 4 cover block 0 of the triples of six points, found at
    # the third node; a budget of 2 pays for the first two only.
    s = new_set_system(6, list(combinations(range(6), 3)))
    pb = _point_blocks(s)
    assert _find_cover(s.masks, pb, s.masks[0], 2, s.w, _Work(3), 0) == (1, 4)
    with pytest.raises(_BudgetStop):
        _find_cover(s.masks, pb, s.masks[0], 2, s.w, _Work(2), 0)


def test_outcomes_are_deterministic():
    s = new_set_system(6, list(combinations(range(6), 3)))
    assert verify_ts(s, 2) == verify_ts(s, 2)
    assert verify_ipps(s, 2) == verify_ipps(s, 2)
    assert verify_cff(s, 2) == verify_cff(s, 2)


# --- witness text round trips -------------------------------------------------


def test_witness_render_parse_round_trip():
    wits = [CffCover(target=3, cover=(0, 1, 7), strength=2),
            TsEvasion(coalition=(0, 5), pirate=(1, 2, 3, 7, 9), outsider=12),
            IppsAmbiguity(pirate=(0, 1, 3), parents=((2,), (3, 5)), strength=2)]
    for wit in wits:
        assert parse_witness(render_witness(wit)) == wit


indices = st.integers(0, 10**6)
index_tuples = st.lists(indices, min_size=1, max_size=8).map(tuple)


@given(st.one_of(
    st.builds(CffCover, target=indices, cover=index_tuples, strength=st.integers(1, 9)),
    st.builds(TsEvasion, coalition=index_tuples, pirate=index_tuples, outsider=indices),
    st.builds(IppsAmbiguity, pirate=index_tuples,
              parents=st.lists(index_tuples, min_size=1, max_size=5).map(tuple),
              strength=st.integers(1, 9))))
def test_random_witnesses_survive_render_parse(wit):
    assert parse_witness(render_witness(wit)) == wit


@pytest.mark.parametrize("text", [
    "not a witness\n",
    "witness ts-evasion\ncoalition 0 1\npirate 0 2 3\n",       # missing outsider
    "witness cff-cover\nstrength 2\ntarget x\ncover 1 2\n",    # non-integer
    "witness ipps-ambiguity\nstrength 2\npirate 0 1\n",        # no parents
    "witness unknown-kind\nfoo 1\n",
    "witness cff-cover\nstrength 2\ntarget \u00b2\ncover 1 2\n",  # non-ASCII digit
    "witness cff-cover\nstrength 2\ntarget --1\ncover 1 2\n",    # doubled sign
    "witness ts-evasion\ncoalition\npirate 0 2 3\noutsider 4\n",  # empty coalition
    "witness ts-evasion\ncoalition 0 1\npirate\noutsider 4\n",    # empty pirate set
    "witness cff-cover\nstrength 2\ntarget 0\ncover\n",           # empty cover
    "witness ipps-ambiguity\nstrength 2\npirate 0 1\nparent 0\nparent\n",  # empty parent
    "witness cff-cover\nstrength 2\ntarget 0\ntarget 1\ncover 1 2\n",  # duplicate target
    "witness ts-evasion\ncoalition 0 1\npirate 0 2 3\noutsider 1 2\n",  # two outsiders
])
def test_witness_parse_rejections(text):
    with pytest.raises(FormatError):
        parse_witness(text)


def test_render_witness_refuses_an_unknown_type():
    with pytest.raises(FormatError, match="cannot render tuple"):
        render_witness((0, 1))


def test_witness_parse_skips_indented_comments():
    # Set-system files ignore an indented "#" line; witness files must too.
    wit = TsEvasion(coalition=(0, 5), pirate=(1, 2, 3, 7, 9), outsider=12)
    text = "  # note\n" + render_witness(wit) + "\t# another note\n"
    assert parse_witness(text) == wit


# One malformed witness per refusal, on the 20 triples of 6 points (v=6,
# w=3): each is caught by the first check it fails.
@pytest.mark.parametrize("wit,reason", [
    (CffCover(target=20, cover=(1,), strength=2), "target index out of range"),
    (CffCover(target=0, cover=(1, 20), strength=2), "cover indices invalid"),
    (CffCover(target=0, cover=(), strength=2), "cover indices not distinct or empty"),
    (CffCover(target=0, cover=(1, 1), strength=2), "cover indices not distinct or empty"),
    (TsEvasion(coalition=(0, 20), pirate=(0, 1, 2), outsider=5), "coalition index out of range"),
    (TsEvasion(coalition=(), pirate=(0, 1, 2), outsider=5), "coalition empty or repeated"),
    (TsEvasion(coalition=(0, 0), pirate=(0, 1, 2), outsider=5), "coalition empty or repeated"),
    (TsEvasion(coalition=(0, 1), pirate=(0, 2, 1), outsider=5),
     "pirate set must be an ascending w-subset"),
    (TsEvasion(coalition=(0, 1), pirate=(0, 1, 6), outsider=5), "pirate point out of range"),
    (IppsAmbiguity(pirate=(0, 2, 1), parents=((0,), (1,)), strength=2),
     "pirate set must be ascending with at least w points"),
    (IppsAmbiguity(pirate=(0, 1, 6), parents=((0,), (1,)), strength=2),
     "pirate point out of range"),
    (IppsAmbiguity(pirate=(0, 1, 2), parents=(), strength=2), "no parent sets listed"),
    (IppsAmbiguity(pirate=(0, 1, 2), parents=((0,), ()), strength=2),
     "parent set empty or repeated"),
    (IppsAmbiguity(pirate=(0, 1, 2), parents=((0,), (1, 1)), strength=2),
     "parent set empty or repeated"),
    (IppsAmbiguity(pirate=(0, 1, 2), parents=((0,), (1, 20)), strength=2),
     "parent index out of range"),
    (IppsAmbiguity(pirate=(0, 1, 2), parents=((0,), (1, 2, 3)), strength=2),
     "parent set larger than strength"),
    (IppsAmbiguity(pirate=(0, 1, 2), parents=((0,), (19,)), strength=2),
     "a parent set does not cover the pirate set"),
    ((0, 1, 2), "unknown witness type tuple"),
])
def test_check_witness_refusals(wit, reason):
    s = new_set_system(6, list(combinations(range(6), 3)))
    assert check_witness(s, wit) == (False, reason)


def test_tampered_witnesses_fail_revalidation():
    s = new_set_system(6, list(combinations(range(6), 3)))
    out = verify_ts(s, 2)
    wit = out.witness
    bad = TsEvasion(coalition=wit.coalition, pirate=(0, 1, 5), outsider=wit.outsider)
    assert not check_witness(s, bad)[0]
    bad = TsEvasion(coalition=wit.coalition, pirate=wit.pirate, outsider=wit.coalition[0])
    assert not check_witness(s, bad)[0]
    good_cover = CffCover(target=0, cover=(1, 4), strength=4)
    assert check_witness(s, good_cover)[0]
    assert not check_witness(s, CffCover(target=0, cover=(1,), strength=4))[0]
    assert not check_witness(s, CffCover(target=0, cover=(1, 4), strength=1))[0]
    amb = IppsAmbiguity(pirate=(0, 1, 2), parents=((0,), (0, 1)), strength=2)
    assert not check_witness(s, amb)[0]  # parents share block 0


# --- kernel agreement on random small systems --------------------------------


def brute_first_ipps_pirate(s, t):
    """Lexicographically first w-subset with a cover but no common parent."""
    for tpts in combinations(range(s.v), s.w):
        tset = set(tpts)
        covers = [set(coal) for sc in range(1, t + 1) for coal in combinations(range(s.m), sc)
                  if tset <= set().union(*(s.blocks[j] for j in coal))]
        if covers and not set.intersection(*covers):
            return tpts
    return None


def brute_first_cff_target(s, t):
    """Smallest block contained in the union of at most t others."""
    for b0 in range(s.m):
        others = [i for i in range(s.m) if i != b0]
        for sc in range(1, min(t, len(others)) + 1):
            for combo in combinations(others, sc):
                if set(s.blocks[b0]) <= set().union(*(s.blocks[j] for j in combo)):
                    return b0
    return None


@st.composite
def small_systems(draw, max_v=7):
    v = draw(st.integers(3, max_v))
    w = draw(st.integers(2, min(3, v)))
    pool = list(combinations(range(v), w))
    blocks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=min(8, len(pool)),
                           unique=True))
    return new_set_system(v, blocks)


@given(small_systems(), st.integers(2, 3))
def test_ts_kernel_matches_definition(s, t):
    out = verify_ts(s, t)
    assert out.holds == brute_ts(s, t)
    if out.violated:
        wit = out.witness
        assert (wit.coalition, wit.pirate, wit.outsider) == brute_first_ts_witness(s, t)


@st.composite
def wide_systems(draw, max_v=8, max_w=5):
    """Blocks of up to five points on at most eight: coalitions of two to four
    blocks share points in every pattern, so every step of the TS kernel runs."""
    v = draw(st.integers(4, max_v))
    w = draw(st.integers(2, min(max_w, v - 1)))
    pool = list(combinations(range(v), w))
    blocks = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=min(10, len(pool)),
                           unique=True))
    return new_set_system(v, blocks)


@given(st.one_of(small_systems(), wide_systems()), st.integers(2, 3))
def test_properties_survive_deleting_a_block(s, t):
    """The colex search in ``oracle`` prunes every extension of a family
    that fails a property; that is sound only because TS, IPPS and CFF are
    kept by every subfamily."""
    for verify in (verify_ts, verify_ipps, verify_cff):
        if verify(s, t).holds:
            for i in range(s.m):
                rest = new_set_system(s.v, s.blocks[:i] + s.blocks[i + 1:], width=s.w)
                assert verify(rest, t).holds, (verify.__name__, i)


@st.composite
def coalition_cases(draw, systems=None):
    """A wide system (or one drawn from ``systems``), a coalition of 2-4 of
    its blocks and some outsiders in any order."""
    s = draw(wide_systems() if systems is None else systems)
    size = draw(st.integers(2, min(4, s.m - 1)))
    coalition = tuple(sorted(draw(st.lists(st.integers(0, s.m - 1), min_size=size,
                                           max_size=size, unique=True))))
    rest = draw(st.permutations([o for o in range(s.m) if o not in coalition]))
    return s, coalition, list(rest[:draw(st.integers(1, len(rest)))])


@given(coalition_cases())
# Outsider 2 evades only if the cells shared by two members are not filled
# greedily, and outsider 0 only if a member's own points may exceed its cap.
@example((new_set_system(10, [(0, 3, 4, 7), (0, 6, 8, 9), (1, 2, 4, 9), (1, 3, 6, 7),
                              (3, 6, 7, 8)]), (0, 1, 4), [2, 3]))
@example((new_set_system(5, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)]), (1, 2, 3, 4), [0]))
# No pirate set lets block 0 evade (1, 2, 3): the packing must not pick a
# negative number of points from one cell to make room in the others.
@example((new_set_system(19, [(0, 1, 2, 3, 4, 15, 16, 17, 18), (0, 1, 2, 3, 5, 6, 7, 8, 9),
                              (0, 1, 2, 4, 5, 10, 11, 12, 13),
                              (6, 7, 8, 9, 10, 11, 12, 13, 14)]), (1, 2, 3), [0]))
def test_ts_evader_matches_pirate_set_scan(case):
    s, coalition, outsiders = case
    work = _Work(10**9)
    first = next((o for o in outsiders
                  if _ts_evasion(s.masks, coalition, [o], s.w, work) is not None), None)
    assert _ts_evader(s.masks, coalition, outsiders, s.w, work) == first


@given(coalition_cases(), st.data())
def test_ts_evader_with_fixed_points_matches_brute_force(case, data):
    # Any fixed points inside any span inside the union, not only the
    # prefix-and-above spans the witness builder asks about.
    s, coalition, outsiders = case
    union = sorted(set().union(*(s.blocks[i] for i in coalition)))
    fixed = data.draw(st.lists(st.sampled_from(union), max_size=min(s.w, len(union)),
                               unique=True))
    span = set(fixed) | set(data.draw(st.lists(st.sampled_from(union), unique=True)))
    blocks = [set(b) for b in s.blocks]
    first = next((o for o in outsiders
                  for extra in combinations(sorted(span - set(fixed)), s.w - len(fixed))
                  if all(len(blocks[o] & (set(fixed) | set(extra)))
                         >= len(blocks[i] & (set(fixed) | set(extra))) for i in coalition)),
                 None)
    got = _ts_evader(s.masks, coalition, outsiders, s.w, _Work(10**9),
                     fixed=sum(1 << p for p in fixed), span=sum(1 << p for p in span))
    assert got == first


@st.composite
def filter_cases(draw):
    """Up to 90 blocks, so that the packed fields span several 64-bit words,
    a coalition of two to five of them, and a strength t of at least its size."""
    rng = draw(st.randoms(use_true_random=False))
    v = draw(st.integers(4, 13))
    w = draw(st.integers(1, v - 1))
    s = _random_system(rng, v, w, draw(st.integers(3, 90)))
    k = draw(st.integers(2, min(5, s.m - 1)))
    coalition = tuple(sorted(rng.sample(range(s.m), k)))
    return s, coalition, draw(st.sampled_from([k, k + 1, 2 * k, 10**6]))


def _scalar_survivors(s, coalition):
    """The outsiders that pass _ts_evader's first tests on the whole union,
    one at a time: a >= ceil(w / k), then sum(caps) >= need."""
    w, union = s.w, _union(s.masks, coalition)
    found = set()
    for o in range(s.m):
        a = (s.masks[o] & union).bit_count()
        if o in coalition or a < _ceil_div(w, len(coalition)):
            continue
        if a >= w:
            caps, need = [w] * len(coalition), w
        else:
            caps, need = [a - (s.masks[o] & s.masks[i]).bit_count() for i in coalition], w - a
        if sum(caps) >= need:
            found.add(o)
    return found


@given(filter_cases())
# All 3-subsets of 9 points: 84 fields of five bits, past the first word.
@example((new_set_system(9, list(combinations(range(9), 3))), (0, 40, 83), 3))
# (k + 1) * w = 16 and 16 are powers of two, so the fields are one bit wider.
@example((new_set_system(7, list(combinations(range(7), 4))), (0, 17, 34), 3))
@example((new_set_system(9, list(combinations(range(9), 2))), tuple(range(0, 35, 5)), 7))
# (k + 1) * w = 15 is just below one: outsider 1 lies in U, a point in each
# of three members, and its field reaches (k - 1) * w + 2^(F-1) = 17, which
# overflows a field with no bit to spare above (k + 1) * w.
@example((new_set_system(12, [(0, 1, 2), (0, 3, 6), (3, 4, 5), (6, 7, 8), (9, 10, 11)]),
          (0, 2, 3, 4), 4))
# Outsiders 2 and 3 meet U in ceil(4 / 2) = 2 points.  Those of 3 lie in one
# member each, so 3 * 2 - 2 = w and it survives; 2 holds point 0, which both
# members hold, so 3 * 2 - 3 < w.
@example((new_set_system(10, [(0, 1, 2, 3), (0, 4, 5, 6), (0, 4, 8, 9), (1, 4, 8, 9)]),
          (0, 1), 2))
def test_packed_filter_matches_scalar_tests(case):
    s, coalition, t = case
    packed = _PackedCounts(s, t, _point_columns(s))
    state = packed.empty
    for i in coalition:
        state = packed.extend(state, i)
    k = len(coalition)
    bits = packed.survivors(state, k, s.w)
    got = {o for o in range(s.m) if bits >> (packed.width * o + packed.width - 1) & 1}
    assert got == _scalar_survivors(s, coalition)
    if not got:
        outsiders = [o for o in range(s.m) if o not in coalition]
        assert _ts_evader(s.masks, coalition, outsiders, s.w, _Work()) is None


def test_ts_filter_after_the_first_member_changes():
    # (0, 1) is skipped by rowmax and (0, 2) and (0, 3) are filtered; then
    # the first member changes.  Outsider 3 meets B1 | B2 in three points,
    # and the pirate set {5, 6, 7, 11, 12, 13} meets B1, B2 and B3 in three
    # each, so (1, 2) is evaded.
    s = new_set_system(20, [(0, 1, 2, 3, 4, 5), (5, 7, 8, 9, 10, 11),
                            (6, 12, 13, 14, 15, 16), (11, 12, 13, 17, 18, 19)])
    assert repr(verify_ts(s, 2)) == (
        "VerifyOutcome(verdict='violated', mode='exhaustive', witness=TsEvasion("
        "coalition=(1, 2), pirate=(5, 6, 7, 11, 12, 13), outsider=3), detail='', work=51)")
    assert check_witness(s, verify_ts(s, 2).witness)[0]


def test_ts_without_packed_tables_gives_the_same_outcomes(monkeypatch):
    # A system whose tables would pass the cap is decided by the scalar scan
    # alone, to the same verdict, witness and work.
    cases = [(trivial_ts(30, 5), 3), (extend_design(pg_lines(2, 4), 1, 2)[0], 2),
             (new_set_system(20, [(0, 1, 2, 3, 4, 5), (5, 7, 8, 9, 10, 11),
                                  (6, 12, 13, 14, 15, 16), (11, 12, 13, 17, 18, 19)]), 2)]
    rng = random.Random(5)
    cases += [(_random_system(rng, 10, rng.randrange(2, 6), 12), t) for t in (2, 3, 4)]
    expected = [repr(verify_ts(s, t)) for s, t in cases]
    monkeypatch.setattr(traceschemes.verify, "_PACKED_TABLE_BITS", 0)
    assert [repr(verify_ts(s, t)) for s, t in cases] == expected


@st.composite
def packing_cases(draw):
    """Up to six Venn cells of two to four members, with small sizes, caps and
    demand, so that every choice of counts per cell can be listed."""
    k = draw(st.integers(2, 4))
    shapes = [c for r in range(2, k + 1) for c in combinations(range(k), r)]
    shapes = draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=6, unique=True))
    sizes = draw(st.lists(st.integers(0, 4), min_size=len(shapes), max_size=len(shapes)))
    caps = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    return list(zip(shapes, sizes)), caps, draw(st.integers(1, 8))


@given(packing_cases())
# Cell (0, 1) can give one point; trying -1 there would free cap for the rest.
@example(([((0, 1), 1), ((0, 2), 4), ((1, 2), 4)], [1, 1, 4], 3))
def test_ts_packs_matches_brute_force(case):
    shaped, caps, need = case
    cells, first = [], 0
    for members, size in shaped:
        cells.append((members, ((1 << size) - 1) << first))
        first += size
    brute = any(sum(ys) >= need
                and all(sum(y for (mem, _), y in zip(shaped, ys) if i in mem) <= cap
                        for i, cap in enumerate(caps))
                for ys in product(*(range(size + 1) for _, size in shaped)))
    left = list(caps)
    assert _ts_packs(cells, left, -1, need, _Work(10**9)) == brute
    assert left == caps


def test_ts_packs_goes_one_cell_deeper_per_point():
    # Every cell gives one point, so the search is 1,100 cells deep.
    cells = [(members, 1 << j) for j, members in enumerate(islice(combinations(range(16), 12),
                                                                  1100))]
    caps = [10**6] * 16
    work = _Work(10**9)
    assert _ts_packs(cells, caps, -1, 1100, work)
    assert caps == [10**6] * 16
    assert work.count == 1100


def test_ts_walk_meets_each_coalition_once():
    # Disjoint blocks meet no other block, so rowmax skips every coalition
    # and the work is the overlap pass, one unit per incidence, plus one
    # unit per coalition of 2..t blocks.
    for m in range(2, 9):
        s = new_set_system(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
        for t in range(2, m + 3):
            coalitions = sum(comb(m, k) for k in range(2, min(t, m) + 1))
            assert verify_ts(s, t).work == 2 * m + coalitions, (m, t)


def test_ts_evader_splits_venn_cells_only_where_points_lie():
    # Thirty circulant blocks of ten points, each point in two of them, and
    # an outsider holding five points of the union: 30 non-empty cells of
    # 2**30.  The outsider evades with five more points of one cell.
    k = 30
    out = (0, 1, 2, 3, 4, *range(5 * k, 5 * k + 5))
    s = new_set_system(5 * k + 5, [sorted((5 * i + d) % (5 * k) for d in range(10))
                                   for i in range(k)] + [out])
    o = s.blocks.index(out)
    coalition = tuple(i for i in range(s.m) if i != o)
    start = time.perf_counter()
    assert _ts_evader(s.masks, coalition, [o], s.w, _Work(10**9)) == o
    assert time.perf_counter() - start < 1.0


def test_no_function_calls_itself():
    # Every search is a loop over an explicit stack, so no input is too
    # deep for the recursion limit.
    package = Path(traceschemes.__file__).parent
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name) and node.func.id == fn.name]
                assert not calls, f"{path.name}: {fn.name} calls itself at line {calls[0]}"


def test_no_function_takes_a_parameter_it_never_reads():
    # A parameter the body never reads is a flag that does nothing.  self,
    # cls and the parameters a dunder protocol method must accept are exempt.
    package = Path(traceschemes.__file__).parent
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.Lambda):
                body = [fn.body]
            elif isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    continue
                body = fn.body
            else:
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None and p.arg not in ("self", "cls")]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread = [p for p in params if p not in read]
            assert not unread, f"{path.name}:{fn.lineno} never reads {', '.join(unread)}"


def _names_used(tree):
    """Each name that ``tree`` reads, as a variable, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_private_helper_is_kept_only_for_tests():
    # A module-level private function or class that no other code in the
    # package uses is dead code, or a second copy of a check kept alive only
    # by the tests.
    package = Path(traceschemes.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
    used = Counter(name for tree in trees for name in _names_used(tree))
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") \
                    and not node.name.endswith("__"):
                own = sum(name == node.name for name in _names_used(node))
                assert used[node.name] > own, f"{node.name} is used nowhere in the package"


@st.composite
def sparse_systems(draw):
    """Few narrow blocks on up to 14 points, so some pairs of blocks barely meet."""
    v = draw(st.integers(8, 14))
    w = draw(st.integers(2, 4))
    block = st.lists(st.integers(0, v - 1), min_size=w, max_size=w, unique=True)
    blocks = draw(st.lists(block.map(sorted).map(tuple), min_size=3, max_size=6, unique=True))
    return new_set_system(v, blocks)


@given(st.one_of(coalition_cases(), coalition_cases(sparse_systems())))
@example((new_set_system(10, [(0, 3, 4, 7), (0, 6, 8, 9), (1, 2, 4, 9), (1, 3, 6, 7),
                              (3, 6, 7, 8)]), (0, 1, 4), [2, 3]))
@example((new_set_system(5, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)]), (1, 2, 3, 4), [0]))
@example((new_set_system(19, [(0, 1, 2, 3, 4, 15, 16, 17, 18), (0, 1, 2, 3, 5, 6, 7, 8, 9),
                              (0, 1, 2, 4, 5, 10, 11, 12, 13),
                              (6, 7, 8, 9, 10, 11, 12, 13, 14)]), (1, 2, 3), [0]))
def test_ts_witness_matches_pirate_set_scan(case):
    s, coalition, outsiders = case
    assert (_ts_witness(s.masks, coalition, outsiders, s.w, _Work(10**9))
            == _ts_evasion(s.masks, coalition, outsiders, s.w, _Work(10**9)))


def _assert_row_max_skips_are_sound(s, t):
    """Check the rowmax skip on every coalition of 2..t blocks; count the skips."""
    rowmax = list(map(_largest, _overlaps(s, _Work(10**9))))
    blocks = [set(b) for b in s.blocks]
    assert rowmax == [max(len(b & c) for j, c in enumerate(blocks) if j != i)
                      for i, b in enumerate(blocks)]
    skipped = 0
    for k in range(2, min(t, s.m - 1) + 1):
        for coal in combinations(range(s.m), k):
            union = set().union(*(blocks[i] for i in coal))
            outsiders = [o for o in range(s.m) if o not in coal]
            bound = sum(rowmax[i] for i in coal)
            assert all(len(blocks[o] & union) <= bound for o in outsiders)
            if bound < -(-s.w // k):
                skipped += 1
                assert _ts_evasion(s.masks, coal, outsiders, s.w, _Work(10**9)) is None
    return skipped


@given(st.one_of(wide_systems(), sparse_systems()), st.integers(2, 4))
def test_row_max_skip_admits_no_evasion(s, t):
    _assert_row_max_skips_are_sound(s, t)


def test_row_max_skips_every_pair_of_lines():
    # Lines of PG(2, 4) meet in one point: two members reach at most 2 < 3.
    assert _assert_row_max_skips_are_sound(pg_lines(2, 4), 2) == 210


@st.composite
def overlap_systems(draw):
    """Up to 100 blocks of one to nine points on at most 14, so the planes
    may span several 64-bit digits and counts may reach eight."""
    v = draw(st.integers(1, 14))
    w = draw(st.integers(1, min(9, v)))
    block = st.lists(st.integers(0, v - 1), min_size=w, max_size=w, unique=True)
    blocks = draw(st.lists(block.map(sorted).map(tuple), min_size=1, max_size=100, unique=True))
    return new_set_system(v, blocks)


@given(overlap_systems(), st.integers(1, 9))
# 252 blocks, so planes of several digits, and counts 3 and 4.
@example(new_set_system(10, list(combinations(range(10), 5))), 4)
@example(new_set_system(10, [(0, 1, 2, 3, 4), (1, 2, 3, 4, 5), (0, 1, 2, 6, 7)]), 4)
# Counts 8, 7 and 6.
@example(new_set_system(12, [tuple(range(9)), tuple(range(1, 10)), (*range(7), 10, 11)]), 8)
@example(new_set_system(5, [(0,), (1,), (3,)]), 1)  # w = 1
@example(new_set_system(12, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]), 1)  # disjoint
@example(new_set_system(5, list(combinations(range(5), 3))), 2)  # every two blocks meet
@example(new_set_system(4, [(0, 1, 2)]), 1)  # m = 1
def test_overlap_kernel_matches_pairwise_counts(s, tau):
    blocks = [set(b) for b in s.blocks]
    degree = [sum(p in b for b in blocks) for p in range(s.v)]
    work, spent = _Work(), 0
    for i, planes in enumerate(_overlaps(s, work)):
        spent += sum(degree[p] for p in blocks[i])
        assert work.count == spent  # paid block by block, before each is read
        counts = {j: len(blocks[i] & b) for j, b in enumerate(blocks) if j != i}
        assert _largest(planes) == max(counts.values(), default=0)
        if counts:
            assert _least(planes, sum(1 << j for j in counts)) == min(counts.values())
        assert _at_least(planes, tau) == sum(1 << j for j, c in counts.items() if c >= tau)
    assert i == s.m - 1


def test_overlap_kernel_memory_stays_near_the_masks():
    # 20,000 two-point blocks on 4,096 points.  The point columns hold the
    # incidences of the block masks transposed, and one block's planes are
    # kept at a time, so the peak stays within twice the masks' bytes.
    rng = random.Random(16)
    pairs = set()
    while len(pairs) < 20_000:
        pairs.add(tuple(sorted(rng.sample(range(4096), 2))))
    s = new_set_system(4096, pairs)
    masks = sum(map(sys.getsizeof, s.masks))
    tracemalloc.start()
    try:
        assert max(map(_largest, _overlaps(s, _Work()))) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * masks, (peak, masks)


@given(st.one_of(wide_systems(), sparse_systems()), st.integers(2, 4), st.integers(0, 2000))
@example(new_set_system(20, [(0, 1, 2, 3, 4, 5), (5, 7, 8, 9, 10, 11), (6, 12, 13, 14, 15, 16),
                             (11, 12, 13, 17, 18, 19)]), 2, 2000)
@settings(max_examples=1000)
def test_ts_with_and_without_packed_tables_agree(s, t, budget):
    # The packed filter only skips what the scalar scan would find nothing
    # in, so the verdict, witness and work are the same, budget stops too.
    # A state kept after its first member changed, as in the example, shows
    # on about one random system in a hundred; 200 draws missed it.
    packed = repr(verify_ts(s, t, budget=budget))
    with patch.object(traceschemes.verify, "_PACKED_TABLE_BITS", 0):
        assert repr(verify_ts(s, t, budget=budget)) == packed


def brute_first_repeated_subset(s, tau):
    """Lexicographically first tau-subset lying in two or more blocks."""
    blocks = [set(b) for b in s.blocks]
    for sub in combinations(range(s.v), tau):
        if sum(set(sub) <= b for b in blocks) >= 2:
            return sub
    return None


@given(st.one_of(small_systems(), wide_systems(), sparse_systems()), st.integers(0, 2000))
def test_packing_matches_definition(s, budget):
    for tau in range(1, s.w + 1):
        out = verify_packing(s, tau)
        first = brute_first_repeated_subset(s, tau)
        assert out.holds == (first is None)
        if first is not None:
            assert out.detail == f"{tau}-subset {list(first)} covered more than once"
        cut = verify_packing(s, tau, budget=budget)
        if cut.inconclusive:
            assert cut.detail == "BudgetExceeded"
        else:
            assert (cut.verdict, cut.detail) == (out.verdict, out.detail)


def test_certified_ts_stops_at_the_first_violating_block():
    # Blocks 0 and 1 share the 4-point core, so the packing condition fails
    # at block 0: certified mode reads its 4 core points (degree m each)
    # and its own point, not the other rows.
    s = trivial_ts(30, 5)
    out = verify_ts(s, 2, mode="certified")
    assert out.inconclusive and out.detail == "no packing certificate; run exhaustive mode"
    assert out.work == 4 * s.m + 1 < verify_packing(s, 2).work


def test_certified_ts_reads_each_incidence_once_per_block():
    # 1,200 lines {(x, ax+b mod 67): x < 61} of a 67-by-61 grid meet in at
    # most one point, below ceil(61/49) = 2.  The pair counts come from the
    # point index, one work unit per (point, block) incidence read, not one
    # per block pair.
    p, w = 67, 61
    lines = random.Random(5).sample(range(p * p), 1200)
    s = new_set_system(w * p, [[x * p + (a * x + b) % p for x in range(w)]
                               for a, b in (divmod(line, p) for line in lines)])
    degree = [0] * s.v
    for block in s.blocks:
        for pt in block:
            degree[pt] += 1
    out = verify_ts(s, 7, mode="certified")
    assert out.holds and out.mode == "certified"
    assert out.work == sum(degree[pt] for block in s.blocks for pt in block)


@given(small_systems(), st.integers(1, 3))
def test_ipps_kernel_matches_definition(s, t):
    out = verify_ipps(s, t)
    first = brute_first_ipps_pirate(s, t)
    assert out.holds == (first is None)
    if out.violated:
        assert out.witness.pirate == first
        assert check_witness(s, out.witness)[0]


def brute_covers(s, t, pts):
    """Every selection of 1..t blocks whose union holds ``pts``, as sets."""
    return [set(coal) for sc in range(1, t + 1) for coal in combinations(range(s.m), sc)
            if set(pts) <= set().union(*(s.blocks[j] for j in coal))]


@given(wide_systems(), st.integers(1, 3))
def test_ipps_star_equals_ipps(s, t):
    # A larger ambiguous set has an ambiguous w-point prefix that sorts first.
    a, b = verify_ipps(s, t), verify_ipps_star(s, t)
    assert (a.verdict, a.witness) == (b.verdict, b.witness)


@given(wide_systems(), st.integers(1, 3))
def test_ipps_witness_subsets_are_ambiguous(s, t):
    out = verify_ipps(s, t)
    if out.violated:
        pirate = out.witness.pirate
        for k in range(1, len(pirate) + 1):
            for sub in combinations(pirate, k):
                covers = brute_covers(s, t, sub)
                assert covers and not set.intersection(*covers), sub
        # The parents are exactly the minimal covers of the pirate set.
        covers = brute_covers(s, t, pirate)
        minimal = sorted(tuple(sorted(c)) for c in covers if not any(o < c for o in covers))
        assert list(out.witness.parents) == minimal


@given(wide_systems(), st.integers(1, 4), st.data())
def test_ipps_push_and_pop_keep_every_small_selection(s, t, data):
    # As verify_ipps pushes every block, and as the search pushes a block
    # it tries and pops it when it is rejected.
    levels = [([], []) for _ in range(t)]
    for i, mask in enumerate(s.masks):
        _ipps_push(levels, mask, i)
    for k, (unions, bits) in enumerate(levels):
        literal = [(_union(s.masks, c), sum(1 << i for i in c))
                   for c in combinations(range(s.m), k + 1)]
        assert sorted(zip(unions, bits)) == sorted(literal), k
    before = [(unions.copy(), bits.copy()) for unions, bits in levels]
    _ipps_push(levels, data.draw(st.integers(1, (1 << s.v) - 1)), s.m)
    _ipps_pop(levels)
    assert levels == before


def _relabeled_subfamily(base):
    """Some lines of ``base`` under a random point relabeling."""
    def build(args):
        perm, lines = args
        return new_set_system(base.v, [sorted(perm[p] for p in base.blocks[i]) for i in lines])
    return st.tuples(st.permutations(range(base.v)),
                     st.lists(st.integers(0, base.m - 1), min_size=2, max_size=5,
                              unique=True)).map(build)


GEOMETRIES = [pg_lines(2, 4), ag_lines(2, 5), ag_lines(2, 4), pg_lines(2, 3)]


def brute_ambiguous(s, t):
    """Whether some w-set covered by at most t blocks has covers sharing no
    block; only w-subsets of such a union can have a cover."""
    seen = set()
    for k in range(1, t + 1):
        for coal in combinations(range(s.m), k):
            union = sorted(set().union(*(s.blocks[j] for j in coal)))
            for pts in combinations(union, s.w):
                if pts not in seen:
                    seen.add(pts)
                    if not set.intersection(*brute_covers(s, t, pts)):
                        return True
    return False


@given(st.one_of(*map(_relabeled_subfamily, GEOMETRIES), wide_systems()), st.integers(2, 3))
def test_ipps_certificate_never_settles_a_violated_system(s, t):
    out = verify_ipps(s, t)
    levels = [([], []) for _ in range(t)]
    for i, mask in enumerate(s.masks):
        _ipps_push(levels, mask, i)
    found = _ipps_ambiguity(levels, s.w, _Work())
    assert out.holds == (found is None)
    if out.detail.startswith("pairwise intersections"):
        assert out.holds and not brute_ambiguous(s, t)
        # The same scan as certified TS, so the same work, where no point
        # lies in every block; otherwise IPPS strips those points first.
        if "common points" not in out.detail:
            assert out.work == verify_ts(s, t, mode="certified").work


def test_ipps_of_a_packing_lists_no_triple():
    # Lines of the unital on 65 points and of PG(2, 16) meet in one point,
    # below ceil(w/t^2) = 2: each is a t-TS, so a t-IPPS, by the scan of
    # certified TS, which reads each point's degree once per block through
    # it.  The walk took 61.8M work on the unital, and PG(2, 16) at t = 4 has
    # 2.3e8 selections to list.
    for s, t, work in ((hermitian_unital(4), 2, 16_640), (pg_lines(2, 16), 4, 78_897)):
        # The best of three calls, so that a busy host does not fail the bound.
        assert min(timeit.repeat(lambda: verify_ipps(s, t), number=1, repeat=3)) < 0.1
        out = verify_ipps(s, t)
        assert (out.verdict, out.mode, out.work) == ("holds", "exhaustive", work)
        assert out.detail == f"pairwise intersections below 2 certify a {t}-TS, so a {t}-IPPS"
        assert verify_ipps_star(s, t) == out


def test_ipps_certificate_lists_nothing_on_a_large_packing():
    # 1,200 lines {(x, ax+b mod 67): x < 61} of a 67-by-61 grid meet in at
    # most one point, below ceil(61/49) = 2.  The certificate reads the
    # point columns block by block, as certified TS does, and lists none of
    # the 720,600 pairs, which as a list took about 1.6 s and 600 MB.
    p, w = 67, 61
    lines = random.Random(17).sample(range(p * p), 1200)
    s = new_set_system(w * p, [[x * p + (a * x + b) % p for x in range(w)]
                               for a, b in (divmod(line, p) for line in lines)])
    assert min(timeit.repeat(lambda: verify_ipps(s, 7), number=1, repeat=3)) < 1.0
    masks = sum(map(sys.getsizeof, s.masks))
    tracemalloc.start()
    try:
        out = verify_ipps(s, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.verdict, out.detail) == (
        "holds", "pairwise intersections below 2 certify a 7-TS, so a 7-IPPS")
    assert out.work == verify_ts(s, 7, mode="certified").work
    assert peak <= 2 * masks, (peak, masks)


def test_ipps_refuses_a_size_before_listing_anything():
    # The block {1..17} meets lines of PG(2, 16) in two points, so the
    # pairwise certificate fails.  The budget pays for the 274 singles and
    # the pairs, not for the 3,391,024 triples, so the walk stops before any
    # selection is listed; listing the singles and pairs took 7.5 MiB.
    s = new_set_system(273, [*pg_lines(2, 16).blocks, tuple(range(1, 18))])
    tracemalloc.start()
    try:
        out = verify_ipps(s, 4, budget=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.verdict, out.detail, out.work) == ("inconclusive", "BudgetExceeded", 37_980)
    assert peak < 1 << 20, peak


@given(wide_systems(), st.integers(1, 3), st.integers(0, 2000))
def test_ipps_budget_is_sound(s, t, budget):
    full = verify_ipps(s, t)
    out = verify_ipps(s, t, budget=budget)
    if out.inconclusive:
        assert out.detail == "BudgetExceeded"
    else:
        assert (out.verdict, out.witness) == (full.verdict, full.witness)


@given(wide_systems(), st.integers(2, 4), st.integers(0, 2000))
def test_ts_budget_is_sound(s, t, budget):
    full = verify_ts(s, t)
    out = verify_ts(s, t, budget=budget)
    if out.inconclusive:
        assert out.detail == "BudgetExceeded"
    else:
        assert (out.verdict, out.witness) == (full.verdict, full.witness)


def test_ts_witness_needs_no_pirate_set_scan():
    # The coalition's union has 45 points: listing its 18-point subsets
    # (about 1.7e12) cannot finish, while the witness is built point by
    # point in about 8,000 work units.
    s = extend_design(pg_lines(2, 9), 8, 3)[0]
    out = verify_ts(s, 4, budget=100_000)
    assert out.violated
    assert (out.witness.coalition, out.witness.outsider) == ((0, 1, 2, 3), 10)
    assert check_witness(s, out.witness)[0]


def test_ipps_work_stays_below_candidate_listing():
    # Listing, sorting and cover-searching every coverable w-set took work
    # 2,062,980 and 1,457,862 here; the depth-first walk needs under half.
    assert verify_ipps(ag_lines(2, 5), 2, budget=2_062_980 // 2).holds
    assert verify_ipps_star(pg_lines(2, 4), 2, budget=1_457_862 // 2).holds


def test_ipps_outcomes_and_work_are_pinned():
    # Verdicts, witnesses and work of the walk on seeded random systems, 77
    # of them stopped by the small budget.  Work is CLI output, and it pins
    # the walk's order: a walk that skipped a point after backtracking still
    # finds every witness here, but counts less.  105 of the 300 systems
    # have points common to all blocks; with those stripped, 34 systems are
    # settled by the pairwise certificate at some t, where 3 were without.
    rng = random.Random(3)
    h = hashlib.sha256()
    for _ in range(300):
        v = rng.randrange(4, 10)
        s = _random_system(rng, v, rng.randrange(2, v), rng.randrange(2, 10))
        for t in (2, 3):
            for budget in (10**9, 300):
                h.update(repr(verify_ipps(s, t, budget)).encode())
    assert h.hexdigest() == "a1eb56b985588e6295ec48ad6e40eec56a03d1f132787f346022eeccabb39834"


def test_cff_and_ts_outcomes_and_work_are_pinned():
    # Verdicts, witnesses and work of the CFF decider and the TS walk on
    # seeded random systems, 243 TS walks of them stopped by the small
    # budget.  Work is CLI output, and it pins the order in which the
    # searches meet their nodes.  Verdicts and witnesses have a digest of
    # their own: the pairwise certificate that CFF reads before its cover
    # search moved the work of 1,764 of its 1,800 outcomes and no verdict
    # or witness.
    rng = random.Random(5)
    decided, spent = hashlib.sha256(), hashlib.sha256()
    for _ in range(300):
        v = rng.randrange(4, 11)
        s = _random_system(rng, v, rng.randrange(2, min(v, 5)), rng.randrange(2, 11))
        for t in (2, 3, 4):
            for budget in (10**9, 40):
                for out in (verify_cff(s, t, budget), verify_ts(s, t, budget=budget)):
                    decided.update(repr((out.verdict, out.mode, out.witness)).encode())
                    spent.update(repr((out.detail, out.work)).encode())
    assert decided.hexdigest() == "7ffed761734d16c42e07ad70b98da80072edfe2d2b7bc61fcb922404db25bece"
    assert spent.hexdigest() == "2ece318c4d8ed8662c22070d97e416e1fa89b52e9e53cbba92eef3e68b58dd59"


def _outcome(verdict, work, witness=None, detail=""):
    return repr(traceschemes.VerifyOutcome(verdict, "exhaustive", witness, detail, work))


def test_ts_ladder_outcomes_and_work_are_pinned():
    # The TS rungs of the work ladder (bench/ladder.py): verdict, witness and
    # work of the exhaustive walk, three of them stopped by their budget.
    pg9 = extend_design(pg_lines(2, 9), 8, 3)[0]
    rungs = [
        (trivial_ts(30, 5), 3, 10**9, _outcome("holds", 73255)),
        (extend_design(pg_lines(2, 4), 1, 2)[0], 2, 10**9, _outcome("holds", 5166)),
        (hermitian_unital(4), 2, 10**9, _outcome("holds", 38168)),
        (pg9, 3, 10**9, _outcome("holds", 11256063)),
        (pg9, 4, 10**9, _outcome("violated", 8063, TsEvasion(
            coalition=(0, 1, 2, 3),
            pirate=(0, 1, 2, 3, 10, 11, 12, 19, 20, 21, 28, 29, 30, 91, 92, 93, 94, 95),
            outsider=10))),
        (extend_design(pg_lines(2, 16), 1, 4)[0], 4, 5_000_000,
         _outcome("inconclusive", 5000005, detail="BudgetExceeded")),
        (trivial_ts(1200, 2), 1100, 200_000,
         _outcome("inconclusive", 200347, detail="BudgetExceeded")),
        (trivial_ts(1200, 2), 1100, 1_000_000,
         _outcome("inconclusive", 1000648, detail="BudgetExceeded")),
    ]
    for s, t, budget, expected in rungs:
        assert repr(verify_ts(s, t, budget=budget)) == expected, (s.v, s.w, t)


def test_ipps_ladder_outcomes_and_work_are_pinned():
    # The IPPS rungs of the work ladder (bench/ladder.py).  Four are settled
    # by the pairwise certificate, before any selection is listed.  In the
    # fifth the block {1..17} meets lines of PG(2, 16) in two points, so the
    # certificate fails and the selections are listed; the budget cannot pay
    # for the triples, so they are refused unlisted and the work is that of
    # the certificate's scan and the singles and pairs.  The scan stops at
    # block 0, the line {0..16}: 16 of its points have degree 18, point 0
    # has 17, so it costs 305.
    certified = "pairwise intersections below 2 certify a {0}-TS, so a {0}-IPPS"
    planted = new_set_system(273, [*pg_lines(2, 16).blocks, tuple(range(1, 18))])
    rungs = [
        (pg_lines(2, 4), 2, 10**9, _outcome("holds", 525, detail=certified.format(2))),
        (ag_lines(2, 5), 2, 10**9, _outcome("holds", 900, detail=certified.format(2))),
        (hermitian_unital(4), 2, 10**9, _outcome("holds", 16640, detail=certified.format(2))),
        (pg_lines(2, 16), 4, 10**9, _outcome("holds", 78897, detail=certified.format(4))),
        (planted, 4, 10**6, _outcome("inconclusive", 305 + 274 + comb(274, 2),
                                     detail="BudgetExceeded")),
    ]
    for s, t, budget, expected in rungs:
        assert repr(verify_ipps(s, t, budget=budget)) == expected, (s.v, s.w, t)


def test_ts_outsider_filter_keeps_wide_coalitions_cheap():
    # No outsider of any coalition here passes the filter, so a coalition of
    # up to 1,100 blocks costs a few big-integer sums; outsider by outsider,
    # this million work units took 12 s.
    start = time.perf_counter()
    out = verify_ts(trivial_ts(1200, 2), 1100, budget=10**6)
    assert (out.verdict, out.work) == ("inconclusive", 1000648)
    assert time.perf_counter() - start < 10.0  # bench/ladder.py times it closely


def test_search_witnesses_are_pinned():
    # Which cover the extension check finds decides the nodes; the witness
    # family is the first maximum family of the walk.
    cff = exhaustive_optimal(SchemeParams(2, 3, 7), "cff")
    assert (cff.nodes_explored, cff.witness_family.blocks) == (
        7281, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)))
    ts = exhaustive_optimal(SchemeParams(2, 4, 7), "ts")
    assert (ts.nodes_explored, ts.witness_family.blocks) == (
        916, ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 2, 6)))


def test_ipps_search_is_pinned():
    # Optimum, completeness, nodes and the witness family's blocks of the
    # IPPS search, whose extension check asks for any ambiguous w-set.
    pins = {
        (2, 3, 7): (5, True, 3_093,
                    "f2528c5cdfa5d255ea8bb7b4b9d2f87d83ab9e60168080ea21cd5dabafd76d73"),
        (2, 4, 7): (4, True, 1_507,
                    "21e70659bc3aa3eb5839c5cf557b3d3ecd36f0ea2fe3f541c46f4928636af778"),
        (2, 3, 8): (6, True, 22_844,
                    "00520bb950ec7be455e69c55921c34044478a33d7a11fb81994b1ecf127ca8c5"),
    }
    for params, pin in pins.items():
        r = exhaustive_optimal(SchemeParams(*params), "ipps")
        digest = hashlib.sha256(repr(r.witness_family.blocks).encode()).hexdigest()
        assert (r.optimum, r.complete, r.nodes_explored, digest) == pin, params


@st.composite
def ipps_extensions(draw):
    """(v, t, F, N): a family F of at most six w-sets that is a t-IPPS, and a
    w-set N not in F, with v <= 10, w <= 4 and t in {2, 3}."""
    t = draw(st.sampled_from([2, 3]))
    w = draw(st.integers(2, 4))
    v = draw(st.integers(w + 1, 10))
    block = st.lists(st.integers(0, v - 1), min_size=w, max_size=w, unique=True)
    block = block.map(sorted).map(tuple)
    family: list[tuple[int, ...]] = []
    for b in draw(st.lists(block, min_size=2, max_size=16, unique=True)):
        if len(family) < 6 and verify_ipps(new_set_system(v, [*family, b]), t).holds:
            family.append(b)
    return v, t, family, draw(block.filter(lambda b: b not in family))


@given(ipps_extensions())
@example((10, 2, [(0, 4, 7), (1, 5, 8), (3, 6, 9)], (3, 5, 7)))
def test_ipps_extension_check_matches_brute_force(case):
    # The search's IPPS check runs the cover kernel at strength t first, as
    # a t-IPPS is a t-CFF.  In the example F + N is a 2-IPPS and a 2-CFF,
    # but N lies in the union of F's three blocks, so a test at strength
    # t + 1 would reject it.
    v, t, family, new = case
    w = len(new)
    f = new_set_system(v, family, width=w)
    assert brute_ipps(f, t)
    masks = [*f.masks, _mask(new)]
    pb = [[i for i, b in enumerate(f.blocks) if q in b] for q in range(v)]
    levels = [([], []) for _ in range(t)]
    for i, mask in enumerate(f.masks):
        _ipps_push(levels, mask, i)
    expected = [(unions.copy(), bits.copy()) for unions, bits in levels]
    ok = _ipps_extension_ok(masks, pb, levels, w, t, _Work())
    assert ok == brute_ipps(new_set_system(v, [*family, new]), t)
    if ok:  # the lists gain the new block only when it is accepted
        _ipps_push(expected, masks[-1], f.m)
    assert levels == expected


@given(small_systems(), st.integers(1, 3))
def test_cff_kernel_matches_definition(s, t):
    out = verify_cff(s, t)
    first = brute_first_cff_target(s, t)
    assert out.holds == (first is None)
    if out.violated:
        assert out.witness.target == first
        assert check_witness(s, out.witness)[0]


def colex_pool(p):
    """The w-subsets of range(v) in colexicographic order, as the search takes them."""
    return sorted(combinations(range(p.v), p.w), key=lambda c: c[::-1])


def brute_first_maximum(p, holds):
    """First largest family of w-subsets with the property, over all subfamilies.

    The properties survive deleting blocks, so every valid family of k + 1
    blocks is a valid family of k blocks plus one block of larger index;
    growing the valid families level by level therefore misses none.  Each
    level lists its families as ascending index tuples in lexicographic
    order, the order in which the search's depth-first walk meets them, so
    the first family of the last non-empty level is the one the search keeps.
    """
    pool = colex_pool(p)
    first, level = (), [()]
    while level:
        first = level[0]
        level = [fam + (i,) for fam in level for i in range(fam[-1] + 1 if fam else 0, len(pool))
                 if holds(new_set_system(p.v, [pool[j] for j in fam + (i,)]), p.t)]
    return tuple(sorted(pool[j] for j in first))


BRUTE = {"ts": brute_ts, "ipps": brute_ipps, "cff": brute_cff}


@pytest.mark.parametrize("prop", sorted(BRUTE))
@pytest.mark.parametrize("t,w,v", [(t, w, v) for w in (2, 3) for t in range(2, w + 1)
                                   for v in range(w, 7)])
def test_search_optimum_matches_brute_force(prop, t, w, v):
    p = SchemeParams(t, w, v)
    result = exhaustive_optimal(p, prop)
    first = brute_first_maximum(p, BRUTE[prop])
    assert result.complete
    assert result.optimum == len(first)
    assert result.witness_family.blocks == first


def test_search_completes_cff_on_eight_points():
    # Over every root this search stopped at its 2M-node default budget.
    result = exhaustive_optimal(SchemeParams(2, 3, 8), "cff")
    assert result.complete
    assert result.optimum == 8
    assert verify_cff(result.witness_family, 2).holds


class _WalkStop(Exception):
    pass


def colex_walk(p, holds, limit):
    """The colex search over every root, literally, for at most ``limit`` nodes.

    A node tries one more block; the walk keeps a family that holds and
    grows it with later blocks.  Returns the best family after each node
    (only strictly larger families replace it) and whether the walk ended
    within ``limit`` nodes.
    """
    pool = colex_pool(p)
    best, after = (), []

    def rec(fam, start):
        nonlocal best
        for i in range(start, len(pool)):
            if len(after) == limit:
                raise _WalkStop
            ext = fam + (pool[i],)
            ok = holds(new_set_system(p.v, ext), p.t)
            if ok and len(ext) > len(best):
                best = ext
            after.append(best)
            if ok:
                rec(ext, i + 1)

    try:
        rec((), 0)
    except _WalkStop:
        return after, False
    return after, True


def test_search_root_restriction_matches_walk_over_every_root():
    # The root-fixed search is a prefix of the walk over every root: under
    # any budget it reports what that walk reports, except that it
    # completes, with the same family, once candidate 0's subtree (4,569
    # nodes) is done.
    p = SchemeParams(2, 4, 8)
    budgets = [*range(301), 4568, 4569, 4570]
    after, ended = colex_walk(p, brute_ts, max(budgets) + 1)
    assert not ended
    for budget in budgets:
        result = exhaustive_optimal(p, "ts", budget=budget)
        fam = after[budget - 1] if budget else ()
        assert result.optimum == len(fam), budget
        assert result.witness_family.blocks == tuple(sorted(fam)), budget
        assert result.complete == (budget >= 4569), budget
        assert result.nodes_explored == min(budget + 1, 4569), budget
