"""Generators: closed-form parameters, design verification, extensions, packing."""

import hashlib
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from traceschemes import construct
from traceschemes import (
    BudgetExceeded,
    CongruenceViolated,
    NotADesign,
    ParamsInvalid,
    SchemeParams,
    ag_lines,
    bound_report,
    design_max_strength,
    extend_design,
    greedy_packing_ts,
    hermitian_unital,
    inversive_plane,
    pg_lines,
    render_set_system,
    trivial_ts,
    verify_design,
    verify_packing,
    verify_ts,
)


def _brute_design_check(s, tau, lam):
    counts = Counter()
    for b in s.blocks:
        for sub in combinations(b, tau):
            counts[sub] += 1
    every = all(counts[sub] == lam for sub in combinations(range(s.v), tau))
    return every


def test_trivial_ts_shapes():
    s = trivial_ts(10, 4)
    assert (s.v, s.w, s.m) == (10, 4, 7)
    assert all(b[:3] == (0, 1, 2) for b in s.blocks)
    assert trivial_ts(4, 4).m == 1
    s = trivial_ts(5, 1)
    assert s.m == 5 and all(len(b) == 1 for b in s.blocks)
    with pytest.raises(ParamsInvalid):
        trivial_ts(3, 4)


@pytest.mark.parametrize("n,q,v,w,m", [
    (2, 2, 7, 3, 7),
    (2, 3, 13, 4, 13),
    (2, 4, 21, 5, 21),
    (3, 2, 15, 3, 35),
])
def test_pg_lines_parameters(n, q, v, w, m):
    s = pg_lines(n, q)
    assert (s.v, s.w, s.m) == (v, w, m)
    assert verify_design(s, 2, 1).holds


def test_pg_lines_fano_brute_force():
    assert _brute_design_check(pg_lines(2, 2), 2, 1)


@pytest.mark.parametrize("n,q,v,w,m", [
    (2, 2, 4, 2, 6),
    (2, 3, 9, 3, 12),
    (2, 5, 25, 5, 30),
    (3, 2, 8, 2, 28),
])
def test_ag_lines_parameters(n, q, v, w, m):
    s = ag_lines(n, q)
    assert (s.v, s.w, s.m) == (v, w, m)
    assert verify_design(s, 2, 1).holds


def test_ag_lines_2_2_is_all_pairs():
    s = ag_lines(2, 2)
    assert s.blocks == tuple(combinations(range(4), 2))


@pytest.mark.parametrize("q,v,w,m", [
    (2, 5, 3, 10),
    (3, 10, 4, 30),
    (4, 17, 5, 68),
])
def test_inversive_plane_parameters(q, v, w, m):
    s = inversive_plane(q)
    assert (s.v, s.w, s.m) == (v, w, m)
    assert s.m == comb(v, 3) // comb(w, 3)
    assert verify_design(s, 3, 1).holds


def test_inversive_plane_q2_is_all_triples():
    s = inversive_plane(2)
    assert s.blocks == tuple(combinations(range(5), 3))
    assert _brute_design_check(s, 3, 1)


def test_inversive_plane_q8():
    s = inversive_plane(8)
    assert (s.v, s.w, s.m) == (65, 9, 520)
    assert verify_design(s, 3, 1).holds


@pytest.mark.parametrize("q,v,w,m", [
    (2, 9, 3, 12),
    (3, 28, 4, 63),
    (4, 65, 5, 208),
])
def test_hermitian_unital_parameters(q, v, w, m):
    s = hermitian_unital(q)
    assert (s.v, s.w, s.m) == (v, w, m)
    assert verify_design(s, 2, 1).holds


def test_generators_are_deterministic():
    assert pg_lines(2, 4) == pg_lines(2, 4)
    assert ag_lines(2, 3) == ag_lines(2, 3)
    assert inversive_plane(3) == inversive_plane(3)
    assert greedy_packing_ts(20, 4, 2) == greedy_packing_ts(20, 4, 2)


def test_extend_design_identity():
    base = pg_lines(2, 4)
    extended, cert = extend_design(base, 0, 2)
    assert extended == base
    assert (cert.d, cert.t, cert.tau) == (0, 2, 2)
    assert verify_ts(extended, 2, mode="certified", certificate=cert).holds


def test_extend_design_one_point():
    base = ag_lines(2, 5)
    extended, cert = extend_design(base, 1, 2)
    assert (extended.v, extended.w, extended.m) == (26, 6, 30)
    # the appended point sits in every block
    assert all(25 in b for b in extended.blocks)
    out = verify_ts(extended, 2, mode="certified", certificate=cert)
    assert out.holds
    assert verify_ts(extended, 2).holds


def test_extend_design_congruence_violations():
    with pytest.raises(CongruenceViolated):
        extend_design(pg_lines(2, 4), 4, 2)  # d must be <= t^2 - 1
    with pytest.raises(CongruenceViolated):
        extend_design(ag_lines(2, 3), 1, 2)  # width 3+1 != d+1 (mod 4)


def test_pg_lines_and_extend_design_refuse_out_of_range_parameters():
    for n in (1, 13):
        with pytest.raises(ParamsInvalid, match=f"n={n} must be in"):
            pg_lines(n, 2)
    with pytest.raises(ParamsInvalid, match="t=1 must be >= 2"):
        extend_design(pg_lines(2, 2), 0, 1)


def test_extend_design_requires_design():
    base = trivial_ts(12, 5)  # width 5 == 1 (mod 4) but not a 2-design
    with pytest.raises(NotADesign):
        extend_design(base, 0, 2)


def test_design_max_strength():
    assert design_max_strength(2, 5) == 2
    assert design_max_strength(3, 9) == 2
    assert design_max_strength(2, 2) == 1
    assert design_max_strength(2, 17) == 4
    with pytest.raises(ParamsInvalid):
        design_max_strength(1, 5)


def test_greedy_packing_basics():
    s = greedy_packing_ts(30, 5, 2)
    assert verify_packing(s, 2).holds
    assert s.m >= 5  # ceiling of 435/100
    s = greedy_packing_ts(10, 4, 2)
    assert s.m == 2  # pairwise-disjoint quota under colex order
    assert s.blocks == ((0, 1, 2, 3), (4, 5, 6, 7))
    s = greedy_packing_ts(5, 5, 2)
    assert s.m == 1


def test_greedy_packing_meets_guarantee_on_sample():
    for v, w, t in [(12, 4, 2), (16, 4, 2), (14, 5, 2), (18, 6, 2)]:
        s = greedy_packing_ts(v, w, t)
        tau = -(-w // (t * t))
        assert verify_packing(s, tau).holds
        bound = comb(v, tau) / comb(w, tau) ** 2
        assert s.m >= bound


def test_greedy_packing_budget():
    with pytest.raises(BudgetExceeded):
        greedy_packing_ts(40, 10, 2, budget=1000)
    with pytest.raises(ParamsInvalid):
        greedy_packing_ts(4, 5, 2)


def test_hermitian_unital_refuses_its_size_before_building_a_point(monkeypatch):
    # The size needs only n = q^3 + 1 = 730, not the 6,643 points of
    # PG(2, 81) that the curve is cut from.
    def unreached(*args):
        raise AssertionError("the Hermitian form was evaluated")

    monkeypatch.setattr(construct, "_hermitian_form", unreached)
    with pytest.raises(BudgetExceeded, match="5913 blocks of 10 points"):
        hermitian_unital(9, budget=1)


# sha256 of render_set_system for each design: any change to how the designs
# are built must reproduce every byte.
DESIGN_DIGESTS = [
    (pg_lines, (2, 2), "b80b69218c1cc2911e7e139ee70fe5021ce10c5b24ef1ebdf11e211ef55b0975"),
    (pg_lines, (2, 3), "a5c40999a8d33905d741bb53420e9a9730ed959417f2d59f8f0abfb7309b9adc"),
    (pg_lines, (2, 4), "ff0c1b60c2a12b0b0a3347ef4cc6c435adc791e024a92f724f64a51859ef975a"),
    (pg_lines, (2, 5), "a945b58aaa6564eab6a5d84a54dec948006397c81a7f33ffefe7d5db1467cdfd"),
    (pg_lines, (2, 7), "f34f7052a83fa47f7e32cc5781d01d5706a9528f29322acc6d36caa9267f1a50"),
    (pg_lines, (2, 8), "bd260997976f0cc5969a53a8abe658453718b0fd3d94fad8800121a4acfdf166"),
    (pg_lines, (2, 9), "f2939f5fd24747398ea33a9f537902aa601b1a035ae929cc6bab0820e7d2c32a"),
    (pg_lines, (3, 2), "4698b0843262c9d99cb8969341b69206b1a5b71099025fecbb641432802550d8"),
    (pg_lines, (3, 3), "3eb6108cb2e3f5ff940d91c0260eb72bc1ca3b22e97861652fb2e8e39a6a4ae9"),
    (pg_lines, (3, 4), "b39952669220fb9d2533e9a076a00a61ee9d5d047a92ae68dcb4c1c30c5b6ff5"),
    (pg_lines, (4, 2), "eb75ccdf2fe1f817c4cc75079ba55e7b4bf52062fef9604f447675a9d5226e49"),
    (ag_lines, (2, 2), "98543d872f57387c12836d2d230f2656de0b27737e162d8c36af42a34ca2a626"),
    (ag_lines, (2, 3), "c6d3623b29f2e35ca22b54ff5985dc745368ea86d74a008e44d01018a22164c0"),
    (ag_lines, (2, 4), "ef341f034977faebe441aa94a514ab53905a384bf9c2e4ec5172e831aa4ba81a"),
    (ag_lines, (2, 5), "b66f23e0128d0977966ca9bc1bded4e5dfcc7fe951561138dd16ccc95995e2ff"),
    (ag_lines, (2, 7), "bfaad0846aa0a1ad9047b1bc0aca256683938d4060c4ea1cfc7a7725731a24f7"),
    (ag_lines, (2, 8), "f45e95b4dcf2cf527ea1782209794f55b1114cc461d2e669fcd9f5247c2f3ae1"),
    (ag_lines, (2, 9), "3dc9068a11995d85c7426c6f9b31138f647a6f63dbb9bc6843de7acca486c4c0"),
    (ag_lines, (3, 2), "242d7f15a6bff84002e4bb17c4489d2deb4171c76d05667f83109cf4afcc4b05"),
    (ag_lines, (3, 3), "9dd1653f2251f1c6c340b94bb73763be6b9072592134124a38ceb38dc3e466a2"),
    (ag_lines, (3, 4), "960bf14c5254e51ec0d34f0bae9cf9182d4746fd0b6b93b89659a80e56bd0397"),
    (hermitian_unital, (2,), "4349468e344bbd486a3f1f866a0f7b0997131d9d89e54cbe0f79342a0d05220a"),
    (hermitian_unital, (3,), "7b445b9798aa5e4555ae08cbdd5e5e9eb4d54de0d7f7813c34b95e7c8dbec545"),
    (hermitian_unital, (4,), "38d98e4128f195522dba2cad62e831bdd1dd5006b9ce5539410b613ce3898c38"),
    (hermitian_unital, (5,), "6c467dbe6083905fd1188f0ae3c4109f72785c6c0da9c66a986cab6b96dd837a"),
    (inversive_plane, (2,), "b260d86b414f6a6bd603e1afbeb19d096a4479bbdd17314f4724955ed01d0f0d"),
    (inversive_plane, (3,), "25cf296f72fbf5628876b49c28ec8e0435eb0f1497b99ea27d96b383fd22493a"),
    (inversive_plane, (4,), "5850dcf79f2231e705a81edb7ad248fb2025445791dd27a778196af398f18c0e"),
    (inversive_plane, (5,), "97aa6566d70d12a69b7c4dbc2277295475e5f085eabe23346a2f0d6ffef537a0"),
    (inversive_plane, (7,), "13bc5180fb0f53e5b532cba4d1f3486c3cc0c19559177f06f2c29c2464be436a"),
    (inversive_plane, (8,), "e6443a1d487eaa7282ee1633c912f808171c45334a1294898db9edc6a4bfbc48"),
    (inversive_plane, (9,), "d4ea35c4eda0233b6cb035e2594f8366eb66c90b70bbbd0aed206bdc0e2215a8"),
]


@pytest.mark.parametrize("family,args,digest", DESIGN_DIGESTS,
                         ids=[f"{f.__name__}{a}" for f, a, _ in DESIGN_DIGESTS])
def test_design_output_is_pinned(family, args, digest):
    text = render_set_system(family(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,args,tau", [
    (pg_lines, (2, 4), 2), (pg_lines, (3, 3), 2), (ag_lines, (2, 5), 2),
    (ag_lines, (3, 3), 2), (hermitian_unital, (3,), 2), (inversive_plane, (4,), 3),
])
def test_each_block_is_built_once(monkeypatch, family, args, tau):
    calls = []
    build = construct._steiner_blocks

    def counting(n, tau_, block_through):
        assert tau_ == tau
        return build(n, tau_, lambda *sub: calls.append(sub) or block_through(*sub))

    monkeypatch.setattr(construct, "_steiner_blocks", counting)
    s = family(*args)
    assert len(calls) == s.m
    # each call comes from the least tau-subset of the block it builds
    assert sorted(calls) == sorted(b[:tau] for b in s.blocks)


# The atlas: constructions whose size attains the TS upper bound, each
# certified at its strength.  The projective planes of order t^2, the
# affine planes of order t^2 + 1, and four more designs at t = 2 and 3.
ATLAS = [(pg_lines, (2, 4), 2), (pg_lines, (2, 9), 3), (pg_lines, (2, 16), 4),
         (pg_lines, (2, 25), 5), (pg_lines, (2, 49), 7),
         (ag_lines, (2, 5), 2), (ag_lines, (2, 17), 4), (ag_lines, (2, 37), 6),
         (pg_lines, (3, 4), 2), (hermitian_unital, (4,), 2), (inversive_plane, (8,), 2),
         (hermitian_unital, (9,), 3)]


def test_atlas_rows_attain_the_ts_upper_bound():
    rows = []
    for family, args, t in ATLAS:
        s = family(*args)
        outcome = verify_ts(s, t, mode="certified")
        assert (outcome.verdict, outcome.mode) == ("holds", "certified"), (family, args)
        report = bound_report(SchemeParams(t, s.w, s.v), "ts")
        attained = [b.name for b in report.entries
                    if b.applicable and b.direction == "upper" and b.integer_bound == s.m]
        assert s.m == report.upper and attained == ["upper-special"], (family, args)
        rows.append(f"{family.__name__}{args} t={t} v={s.v} w={s.w} m={s.m} "
                    f"{outcome.verdict} work={outcome.work}")
    # work runs from 525 for pg_lines(2, 4) to 6,127,500 for pg_lines(2, 49)
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "62876a65b31a66226e4d835e2f350906fdde13da629f9d300b8ed9c511082157")


# The atlas rows that exhaustive TS decides within the default budget, with
# their work.  The other four (pg_lines(2, 25) at t=5, pg_lines(2, 49) at
# t=7, ag_lines(2, 37) at t=6, hermitian_unital(9) at t=3) give up there.
EXHAUSTIVE_ATLAS = [(pg_lines, (2, 4), 2, 735), (pg_lines, (2, 9), 3, 134_680),
                    (pg_lines, (2, 16), 4, 229_857_901), (ag_lines, (2, 5), 2, 1_335),
                    (ag_lines, (2, 17), 4, 363_069_561), (pg_lines, (3, 4), 2, 101_031),
                    (hermitian_unital, (4,), 2, 38_168), (inversive_plane, (8,), 2, 471_900)]


@pytest.mark.parametrize("family,args,t,work", EXHAUSTIVE_ATLAS,
                         ids=[f"{f.__name__}{a}-t{t}" for f, a, t, _ in EXHAUSTIVE_ATLAS])
def test_atlas_rows_hold_exhaustively(family, args, t, work):
    # Exhaustive TS confirms the certificate on its own.  Its work is one
    # unit for each coalition of 2..t blocks and deg(p) for each incidence of
    # a point p: the walk charged every coalition once, those it passed over
    # with the subtree they head too.
    s = family(*args)
    degrees = Counter(p for b in s.blocks for p in b)
    assert work == sum(comb(s.m, k) for k in range(2, t + 1)) + sum(d * d for d in degrees.values())
    out = verify_ts(s, t)
    assert (out.verdict, out.mode, out.work) == ("holds", "exhaustive", work)
