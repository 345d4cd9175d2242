"""Set-system model: construction, own-subsets, text format."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceschemes import (
    DuplicateBlock,
    FormatError,
    NonUniformBlocks,
    ParamsInvalid,
    PointOutOfRange,
    SchemeError,
    SchemeParams,
    TauOutOfRange,
    enumerate_own_subsets,
    new_set_system,
    parse_set_system,
    parse_witness,
    pg_lines,
    render_set_system,
    trivial_ts,
)
from traceschemes.core import _colex_next, _has_own_subset, _own_subsets, _points


def test_new_set_system_basic():
    s = new_set_system(6, [[0, 1, 2], [3, 4, 5]])
    assert (s.v, s.w, s.m) == (6, 3, 2)
    assert s.blocks == ((0, 1, 2), (3, 4, 5))


def test_new_set_system_sorts_blocks():
    s = new_set_system(5, [[2, 3, 4], [0, 1, 2]])
    assert s.blocks == ((0, 1, 2), (2, 3, 4))


def test_duplicate_block_rejected():
    with pytest.raises(DuplicateBlock):
        new_set_system(6, [[0, 1, 2], [0, 1, 2]])


def test_non_uniform_rejected():
    with pytest.raises(NonUniformBlocks):
        new_set_system(4, [[0, 1], [1, 2, 3]])
    with pytest.raises(NonUniformBlocks):
        new_set_system(4, [[], []])


def test_point_out_of_range_rejected():
    with pytest.raises(PointOutOfRange):
        new_set_system(3, [[0, 1, 3]])
    with pytest.raises(PointOutOfRange):
        new_set_system(3, [[-1, 0, 1]])
    with pytest.raises(PointOutOfRange):
        new_set_system(3, [[0, 1.0, 2]])


def test_non_ascending_rejected():
    with pytest.raises(FormatError):
        new_set_system(4, [[1, 0, 2]])
    with pytest.raises(FormatError):
        new_set_system(4, [[0, 0, 2]])


def test_ground_set_cap():
    with pytest.raises(ParamsInvalid):
        new_set_system(5000, [[0, 1]])
    for v in (-1, 5.0, "5"):
        with pytest.raises(ParamsInvalid, match="nonnegative integer"):
            new_set_system(v, [])


def test_scheme_params_validation():
    SchemeParams(2, 2, 2)
    with pytest.raises(ParamsInvalid):
        SchemeParams(2, 5, 4)
    with pytest.raises(ParamsInvalid):
        SchemeParams(1, 2, 3)
    with pytest.raises(ParamsInvalid):
        SchemeParams(3, 2, 5)


def _brute_own_subsets(s, block_index, tau):
    block = s.blocks[block_index]
    others = [set(b) for i, b in enumerate(s.blocks) if i != block_index]
    return [sub for sub in combinations(block, tau)
            if not any(set(sub) <= o for o in others)]


def test_own_subsets_two_blocks():
    s = new_set_system(6, [[0, 1, 2, 3], [2, 3, 4, 5]])
    report = enumerate_own_subsets(s, 0, 2)
    assert report.count == 5
    assert (2, 3) not in report.own_subsets
    assert report.own_subsets == tuple(_brute_own_subsets(s, 0, 2))


def test_own_subsets_single_block():
    s = new_set_system(6, [[0, 2, 4, 5]])
    for tau in range(1, 5):
        report = enumerate_own_subsets(s, 0, tau)
        assert report.count == len(list(combinations(range(4), tau)))


def test_own_subsets_projective_lines():
    s = pg_lines(2, 4)
    for i in range(s.m):
        report = enumerate_own_subsets(s, i, 2)
        assert report.count == len(_brute_own_subsets(s, i, 2))
        assert report.count >= 4  # two lines share at most one point


def test_own_subsets_full_width_count_is_one():
    s = new_set_system(7, [[0, 1, 2], [1, 2, 3], [2, 3, 4]])
    for i in range(s.m):
        assert enumerate_own_subsets(s, i, s.w).count == 1


def test_own_subsets_monotone_in_blocks():
    blocks = [[0, 1, 2], [1, 2, 3], [0, 2, 3], [2, 3, 4], [0, 1, 4]]
    prev = None
    for m in range(1, len(blocks) + 1):
        s = new_set_system(5, blocks[:m])
        count = enumerate_own_subsets(s, 0, 2).count
        if prev is not None:
            assert count <= prev
        prev = count


def test_own_subsets_errors():
    s = new_set_system(4, [[0, 1, 2]])
    with pytest.raises(TauOutOfRange):
        enumerate_own_subsets(s, 0, 0)
    with pytest.raises(TauOutOfRange):
        enumerate_own_subsets(s, 0, 4)
    with pytest.raises(PointOutOfRange):
        enumerate_own_subsets(s, 1, 2)


def test_own_subsets_generator_is_lazy_and_in_order():
    s = new_set_system(9, [[0, 1, 2, 3], [2, 3, 4, 5], [0, 1, 5, 6], [0, 6, 7, 8]])
    for i in range(s.m):
        for tau in range(1, 5):
            assert list(_own_subsets(s, i, tau)) == _brute_own_subsets(s, i, tau)
    # two disjoint 61-point blocks: C(61, 21) own subsets, the first one at once
    s = new_set_system(122, [range(61), range(61, 122)])
    assert next(_own_subsets(s, 0, 21)) == tuple(range(21))


@st.composite
def own_subset_cases(draw):
    """Blocks of up to seven points on at most ten, so blocks overlap a lot."""
    v = draw(st.integers(2, 10))
    w = draw(st.integers(1, min(7, v)))
    pool = list(combinations(range(v), w))
    blocks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=min(12, len(pool)),
                           unique=True))
    return new_set_system(v, blocks)


@given(own_subset_cases())
def test_own_subset_existence_is_a_hitting_set_question(s):
    for i in range(s.m):
        for tau in range(1, s.w + 1):
            assert _has_own_subset(s, i, tau) == bool(_brute_own_subsets(s, i, tau)), (i, tau)


def test_colex_masks_match_a_literal_sort():
    for v in range(11):
        for k in range(1, 11):
            colex = sorted(combinations(range(v), k), key=lambda c: c[::-1])
            walk, mask = [], (1 << k) - 1
            while mask < 1 << v:
                walk.append(tuple(_points(mask)))
                mask = _colex_next(mask)
            assert walk == colex, (v, k)


def test_render_parse_round_trip():
    systems = [
        new_set_system(6, [[0, 1, 2], [3, 4, 5]]),
        trivial_ts(10, 4),
        pg_lines(2, 2),
        new_set_system(5, [], width=3),
    ]
    for s in systems:
        assert parse_set_system(render_set_system(s)) == s


def test_parse_accepts_comments_and_blank_lines():
    text = "# comment\n\nsetsystem v=4 w=2 m=2\n0 1\n# another\n2 3\n"
    s = parse_set_system(text)
    assert s.blocks == ((0, 1), (2, 3))


@pytest.mark.parametrize("text", [
    "0 1\n2 3\n",                                   # missing header
    "setsystem v=4 w=2 m=3\n0 1\n2 3\n",            # block count mismatch
    "setsystem v=4 w=3 m=2\n0 1\n2 3\n",            # width mismatch
    "setsystem v=4 w=2 m=2\n0 1\n2 5\n",            # point out of range
    "setsystem v=4 w=2 m=2\n0 1\n3 2\n",            # not ascending
    "setsystem v=4 w=2 m=2\n0 1\n2 3\njunk here\n",  # trailing garbage
    "setsystem v=4 w=2\n0 1\n",                     # malformed header
    "setsystem v=4 w=2 m=two\n0 1\n",               # non-numeric header
    "setsystem v=\u00b2 w=1 m=0\n",                  # non-ASCII digit in header
    "setsystem v=--5 w=1 m=0\n",                     # doubled sign in header
    "setsystem v=4 w=1 m=1\n\u00b9\n",               # non-ASCII digit in block
    "setsystem v=4 w=2 m=1\n-0 1\n",                # signed point
    "setsystem v=3 w=4 m=0\n",                      # width above v
    "setsystem v=3 w=0 m=0\n",                      # width zero
])
def test_parse_rejections(text):
    with pytest.raises(SchemeError):
        parse_set_system(text)


@pytest.mark.parametrize("line", ["+5 1", "1_0 2", "0 ٣", "٣ 1", "2 １"])
def test_parse_rejects_points_that_int_alone_accepts(line):
    # int() takes a sign, digit underscores and non-ASCII digits; the format
    # takes none of them, on the fast all-digit path or off it.
    with pytest.raises(FormatError) as err:
        parse_set_system(f"setsystem v=12 w=2 m=1\n{line}\n")
    assert str(err.value) == f"line 2: trailing garbage {line!r}"


def test_parse_splits_points_on_any_whitespace():
    text = "setsystem v=4 w=2 m=2\n0\t1\n 2 \t 3\t\n"
    assert parse_set_system(text) == new_set_system(4, [[0, 1], [2, 3]])


def test_render_is_canonical_under_input_order():
    a = new_set_system(6, [[3, 4, 5], [0, 1, 2]])
    b = new_set_system(6, [[0, 1, 2], [3, 4, 5]])
    assert render_set_system(a) == render_set_system(b)


@st.composite
def text_systems(draw):
    """Any uniform system on at most nine points, the empty family included."""
    v = draw(st.integers(1, 9))
    w = draw(st.integers(1, v))
    pool = list(combinations(range(v), w))
    blocks = draw(st.lists(st.sampled_from(pool), max_size=12, unique=True))
    return new_set_system(v, blocks, width=w)


@given(text_systems())
def test_random_systems_survive_render_parse(s):
    assert parse_set_system(render_set_system(s)) == s


# Pieces of headers, witness lines and near misses: signs, non-ASCII digits
# and whitespace that str.split treats as a separator.
TEXT_TOKENS = ["setsystem", "witness", "v=", "w=", "m=", "=", "-", "0", "1", "2", "3", "12",
               "\u00b2", "\u0663", "x", "#", " ", "  ", "\t", "\n", "\r\n", "\x0c", "\u00a0",
               "cff-cover", "ts-evasion", "ipps-ambiguity", "strength", "target", "cover",
               "coalition", "pirate", "outsider", "parent"]
TEXT_HEADS = ["", "setsystem v=5 w=2 m=2\n", "witness cff-cover\n", "witness ts-evasion\n",
              "witness ipps-ambiguity\n"]


@settings(max_examples=1000)
@given(st.sampled_from(TEXT_HEADS),
       st.lists(st.sampled_from(TEXT_TOKENS), max_size=60).map("".join))
def test_parsers_raise_only_scheme_errors(head, body):
    for parse in (parse_set_system, parse_witness):
        try:
            parse(head + body)
        except SchemeError:
            pass
