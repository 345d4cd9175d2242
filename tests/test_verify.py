"""Verifiers against literal brute-force oracles and known instances."""

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from traceschemes import (
    CffCover,
    IppsAmbiguity,
    ParamsInvalid,
    SchemeParams,
    TauOutOfRange,
    TsEvasion,
    ag_lines,
    check_witness,
    exhaustive_optimal,
    greedy_packing_ts,
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
from traceschemes.core import FormatError


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


def test_ts_certified_modes():
    g = greedy_packing_ts(30, 5, 2)
    out = verify_ts(g, 2, mode="certified")
    assert out.holds and out.mode == "certified"
    out = verify_ts(trivial_ts(10, 4), 2, mode="certified")
    assert out.inconclusive
    with pytest.raises(ParamsInvalid):
        verify_ts(g, 2, mode="sideways")


def test_certified_holds_implies_exhaustive_holds():
    instances = [greedy_packing_ts(30, 5, 2), greedy_packing_ts(12, 4, 2),
                 pg_lines(2, 4), ag_lines(2, 5), trivial_ts(8, 3)]
    for s in instances:
        cert = verify_ts(s, 2, mode="certified")
        if cert.holds:
            assert verify_ts(s, 2).holds


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


def test_budget_exhaustion_is_inconclusive():
    s = pg_lines(2, 4)
    for run in (lambda: verify_ts(s, 2, budget=50),
                lambda: verify_ipps(s, 2, budget=50),
                lambda: verify_cff(s, 4, budget=5),
                lambda: verify_design(s, 2, 1, budget=5),
                lambda: verify_packing(s, 2, budget=5)):
        out = run()
        assert out.inconclusive and out.detail == "BudgetExceeded"


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
])
def test_witness_parse_rejections(text):
    with pytest.raises(FormatError):
        parse_witness(text)


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


@given(small_systems(), st.integers(1, 3))
def test_ipps_kernel_matches_definition(s, t):
    out = verify_ipps(s, t)
    first = brute_first_ipps_pirate(s, t)
    assert out.holds == (first is None)
    if out.violated:
        assert out.witness.pirate == first
        assert check_witness(s, out.witness)[0]


@given(small_systems(), st.integers(1, 3))
def test_cff_kernel_matches_definition(s, t):
    out = verify_cff(s, t)
    first = brute_first_cff_target(s, t)
    assert out.holds == (first is None)
    if out.violated:
        assert out.witness.target == first
        assert check_witness(s, out.witness)[0]


def brute_optimum(p, holds):
    """Largest family of w-subsets with the property, over all subfamilies.

    The properties survive deleting blocks, so every valid family of k + 1
    blocks is a valid family of k blocks plus one block of larger index;
    growing the valid families level by level therefore misses none.
    """
    pool = list(combinations(range(p.v), p.w))
    best, level = 0, [()]
    while level:
        best = len(level[0])
        level = [fam + (i,) for fam in level for i in range(fam[-1] + 1 if fam else 0, len(pool))
                 if holds(new_set_system(p.v, [pool[j] for j in fam + (i,)]), p.t)]
    return best


BRUTE = {"ts": brute_ts, "ipps": brute_ipps, "cff": brute_cff}


@pytest.mark.parametrize("prop", sorted(BRUTE))
@pytest.mark.parametrize("t,w,v", [(t, w, v) for w in (2, 3) for t in range(2, w + 1)
                                   for v in range(w, 7)])
def test_search_optimum_matches_brute_force(prop, t, w, v):
    p = SchemeParams(t, w, v)
    result = exhaustive_optimal(p, prop)
    assert result.complete
    assert result.optimum == brute_optimum(p, BRUTE[prop])
