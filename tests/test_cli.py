"""Command-line front end: exit codes, streams, round trips."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from traceschemes import (
    new_set_system,
    parse_set_system,
    render_set_system,
    verify_cff,
    verify_ts,
)
from traceschemes.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def _write_triples(tmp_path, v, name="tri.ss"):
    s = new_set_system(v, list(combinations(range(v), 3)))
    path = tmp_path / name
    path.write_text(render_set_system(s), encoding="utf-8")
    return path


def test_construct_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "pg24.ss"
    assert main(["construct", "--family", "pg-lines", "--n", "2", "--q", "4",
                 "-o", str(out)]) == 0
    capsys.readouterr()
    system = parse_set_system(out.read_text(encoding="utf-8"))
    assert (system.v, system.w, system.m) == (21, 5, 21)
    code = main(["verify", "--property", "ts", "--t", "2", "--mode", "exhaustive", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "verdict=holds" in captured.out
    assert "mode=exhaustive" in captured.out


def test_verify_violation_emits_witness(tmp_path, capsys):
    path = _write_triples(tmp_path, 6)
    code = main(["verify", "--property", "ts", "--t", "2", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "verdict=violated" in captured.out
    assert "witness ts-evasion" in captured.out
    assert "coalition 0 1" in captured.out
    assert "mode=exhaustive" in captured.out  # auto fell through from certified
    code = main(["verify", "--property", "ts", "--t", "2", "--mode", "certified", str(path)])
    assert code == 3 and "mode=certified verdict=inconclusive" in capsys.readouterr().out


def test_verify_inconclusive_budget(tmp_path, capsys):
    out = tmp_path / "pg24.ss"
    main(["construct", "--family", "pg-lines", "--n", "2", "--q", "4", "-o", str(out)])
    capsys.readouterr()
    code = main(["verify", "--property", "ipps", "--t", "2", "--budget", "10", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "verdict=inconclusive" in captured.out


def test_auto_mode_fall_through_shares_the_budget(tmp_path, capsys):
    # On the PG(2, 4) lines extended by one point, certified TS at t=2 is
    # inconclusive after 46 work units and the exhaustive walk then takes
    # 5,166: the walk gets what is left of --budget, and work= is the sum.
    base, ext = tmp_path / "pg24.ss", tmp_path / "ext.ss"
    main(["construct", "--family", "pg-lines", "--n", "2", "--q", "4", "-o", str(base)])
    main(["construct", "--family", "extend", "--base", str(base), "--d", "1", "--t", "2",
          "-o", str(ext)])
    capsys.readouterr()
    assert main(["verify", "--property", "ts", "--t", "2", "--mode", "certified", str(ext)]) == 3
    assert "mode=certified verdict=inconclusive work=46\n" in capsys.readouterr().out
    assert main(["verify", "--property", "ts", "--t", "2", "--budget", "5211", str(ext)]) == 3
    assert "mode=exhaustive verdict=inconclusive" in capsys.readouterr().out
    assert main(["verify", "--property", "ts", "--t", "2", "--budget", "5212", str(ext)]) == 0
    assert capsys.readouterr().out == (
        "verify property=ts t=2 mode=exhaustive verdict=holds work=5212\n")


def test_verify_certified_mode_echoed(tmp_path, capsys):
    out = tmp_path / "greedy.ss"
    main(["construct", "--family", "greedy", "--v", "20", "--w", "4", "--t", "2",
          "-o", str(out)])
    capsys.readouterr()
    code = main(["verify", "--property", "ts", "--t", "2", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "mode=certified" in captured.out


def test_verify_design_and_packing(tmp_path, capsys):
    out = tmp_path / "fano.ss"
    main(["construct", "--family", "pg-lines", "--n", "2", "--q", "2", "-o", str(out)])
    capsys.readouterr()
    assert main(["verify", "--property", "design", "--tau", "2", "--lambda", "1",
                 str(out)]) == 0
    assert main(["verify", "--property", "packing", "--tau", "2", str(out)]) == 0
    capsys.readouterr()


def test_verify_prints_the_detail_of_a_violated_design_or_packing(tmp_path, capsys):
    # Neither has a witness: the detail follows the verdict line on stdout.
    path = _write_triples(tmp_path, 6)
    for prop, work, detail in (("design", 60, "2-subset [0, 1] covered 4 times (expected 1)"),
                               ("packing", 600, "2-subset [0, 1] covered more than once")):
        assert main(["verify", "--property", prop, "--tau", "2", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == (f"verify property={prop} tau=2 mode=exhaustive "
                                f"verdict=violated work={work}\n{detail}\n")
        assert captured.err == f"detail: {detail}\n"


def test_verify_ipps_star_and_the_cff_certificate(tmp_path, capsys):
    out = tmp_path / "fano.ss"
    main(["construct", "--family", "pg-lines", "--n", "2", "--q", "2", "-o", str(out)])
    capsys.readouterr()
    assert main(["verify", "--property", "ipps-star", "--t", "2", str(out)]) == 1
    assert capsys.readouterr().out == (
        "verify property=ipps-star t=2 mode=exhaustive verdict=violated work=105\n"
        "witness ipps-ambiguity\nstrength 2\npirate 0 1 3\n"
        "parent 0 1\nparent 0 3\nparent 0 5\nparent 1 3\nparent 1 4\nparent 2 3\n")
    # Lines meet in one point, below ceil(3/2) = 2, so two lines cannot
    # cover a third; the scan costs 7 lines of 3 points of degree 3.
    assert main(["verify", "--property", "cff", "--t", "2", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "verify property=cff t=2 mode=exhaustive verdict=holds work=63\n"
    assert captured.err == "detail: pairwise intersections below 2 certify a 2-CFF\n"


def test_verify_rejects_flags_its_property_does_not_use(tmp_path, capsys):
    # Certified mode is for ts only, --lambda for design only, --tau for
    # design and packing only and --t for the other four; each flag elsewhere
    # stops with an error line instead of being dropped.
    out = tmp_path / "fano.ss"
    main(["construct", "--family", "pg-lines", "--n", "2", "--q", "2", "-o", str(out)])
    capsys.readouterr()
    for prop, flags in (("packing", ["--tau", "2"]), ("design", ["--tau", "2"]),
                        ("ipps", ["--t", "2"]), ("cff", ["--t", "2"])):
        assert main(["verify", "--property", prop, *flags, "--mode", "certified",
                     str(out)]) == 2, prop
        captured = capsys.readouterr()
        assert captured.out == "", prop
        assert captured.err == f"error: certified mode applies to ts only, not {prop}\n"
    for prop, flags in (("packing", ["--tau", "2"]), ("ts", ["--t", "2"]),
                        ("cff", ["--t", "2"])):
        assert main(["verify", "--property", prop, *flags, "--lambda", "1", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "", prop
        assert captured.err == f"error: --lambda applies to design only, not {prop}\n"
    for prop in ("ts", "ipps", "ipps-star", "cff"):
        assert main(["verify", "--property", prop, "--t", "2", "--tau", "99", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "", prop
        assert captured.err == f"error: --tau applies to design and packing only, not {prop}\n"
    for prop in ("design", "packing"):
        assert main(["verify", "--property", prop, "--tau", "2", "--t", "99", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "", prop
        assert captured.err == \
            f"error: --t applies to ts, ipps, ipps-star and cff only, not {prop}\n"
    assert main(["verify", "--property", "design", "--tau", "2", "--mode", "exhaustive",
                 str(out)]) == 0
    assert main(["verify", "--property", "ts", "--t", "2", "--mode", "certified",
                 str(out)]) == 3


def test_check_witness_round_trip(tmp_path, capsys):
    path = _write_triples(tmp_path, 6)
    main(["verify", "--property", "ts", "--t", "2", str(path)])
    captured = capsys.readouterr()
    witness_text = captured.out.split("witness ", 1)[1]
    wit_path = tmp_path / "w.txt"
    wit_path.write_text("witness " + witness_text, encoding="utf-8")
    assert main(["check-witness", str(path), str(wit_path)]) == 0
    captured = capsys.readouterr()
    assert "witness valid" in captured.out
    # tamper with the pirate set
    tampered = witness_text.replace("pirate 0 2 3", "pirate 0 1 2")
    wit_path.write_text("witness " + tampered, encoding="utf-8")
    assert main(["check-witness", str(path), str(wit_path)]) == 1
    capsys.readouterr()
    wit_path.write_text("not a witness at all\n", encoding="utf-8")
    assert main(["check-witness", str(path), str(wit_path)]) == 2
    capsys.readouterr()


def test_bound_table(capsys):
    assert main(["bound", "--t", "2", "--w", "5", "--v", "21", "--scheme", "ts"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].split("\t")[:3] == ["upper-sw", "665/3", "221"]
    assert any(ln.startswith("upper-special\t21\t21\tyes") for ln in lines)


def test_bound_summary_names_an_exact_size(capsys):
    assert main(["bound", "--t", "2", "--w", "3", "--v", "7", "--scheme", "ts"]) == 0
    captured = capsys.readouterr()
    assert "exact-small\t5\t5\tyes\tmaximum size known exactly" in captured.out.splitlines()
    assert captured.err == "bound scheme=ts t=2 w=3 v=7 exact 5\n"


def test_bound_rejects_bad_params(capsys):
    assert main(["bound", "--t", "2", "--w", "9", "--v", "5"]) == 2
    capsys.readouterr()


def test_bound_ground_set_is_capped(capsys):
    # Past the cap the entries have more digits than Python prints as decimal;
    # at the cap the largest, C(4096, 2048) and kin, have under 2,500.
    for scheme in ("ts", "cff", "ipps"):
        assert main(["bound", "--t", "2", "--w", "20000", "--v", "40000",
                     "--scheme", scheme]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ground set size 40000 exceeds cap 4096\n"
        assert main(["bound", "--t", "2", "--w", "2048", "--v", "4096",
                     "--scheme", scheme]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("upper-")
        assert captured.err.startswith(f"bound scheme={scheme} t=2 w=2048 v=4096 range [2049, ")


def test_search_command(capsys):
    assert main(["search", "--property", "ts", "--t", "2", "--w", "2", "--v", "4"]) == 0
    captured = capsys.readouterr()
    assert "optimum=3" in captured.out
    assert "setsystem v=4 w=2 m=3" in captured.out
    assert main(["search", "--property", "ts", "--t", "2", "--w", "4", "--v", "8",
                 "--budget", "100"]) == 3
    capsys.readouterr()
    # stopped before any block is accepted: the empty family keeps its width
    assert main(["search", "--property", "ts", "--t", "2", "--w", "3", "--v", "6",
                 "--budget", "0"]) == 3
    first, rest = capsys.readouterr().out.split("\n", 1)
    assert "optimum=0 complete=no" in first
    s = parse_set_system(rest)
    assert (s.v, s.w, s.m) == (6, 3, 0)


def test_empty_search_family_is_cover_free(tmp_path, capsys):
    # A family with no blocks has every property, CFF included.
    assert main(["search", "--property", "cff", "--t", "2", "--w", "3", "--v", "6",
                 "--budget", "0"]) == 3
    path = tmp_path / "empty.ss"
    path.write_text(capsys.readouterr().out.split("\n", 1)[1], encoding="utf-8")
    assert main(["verify", "--property", "cff", "--t", "2", str(path)]) == 0
    assert "verdict=holds work=0" in capsys.readouterr().out


def test_trace_commands(tmp_path, capsys):
    tri6 = _write_triples(tmp_path, 6)
    assert main(["trace", "--kind", "ts-from-cff", "--t", "2", str(tri6)]) == 0
    captured = capsys.readouterr()
    assert "trace ts-from-cff" in captured.out
    assert "sigma_1" in captured.out
    tri5 = _write_triples(tmp_path, 5, "tri5.ss")
    assert main(["trace", "--kind", "ipps-own-subsets", "--t", "2", str(tri5)]) == 0
    captured = capsys.readouterr()
    assert "pirate set T" in captured.out
    # traceability holds for pg-lines, so the ts trace is unreachable
    out = tmp_path / "pg24.ss"
    main(["construct", "--family", "pg-lines", "--n", "2", "--q", "4", "-o", str(out)])
    capsys.readouterr()
    assert main(["trace", "--kind", "ts-from-cff", "--t", "2", str(out)]) == 0
    captured = capsys.readouterr()
    assert "unreachable" in captured.out
    # own-subsets exist, so the ipps trace blocks
    assert main(["trace", "--kind", "ipps-own-subsets", "--t", "2", str(out)]) == 3
    captured = capsys.readouterr()
    assert "blocked" in captured.out


def test_ts_trace_budget_stops_its_cover_search(tmp_path, capsys):
    # All triples of 6 points violate 2-TS, but budget 0 stops the search
    # for a block covered by 4 others before its first node.
    tri6 = _write_triples(tmp_path, 6)
    assert main(["trace", "--kind", "ts-from-cff", "--t", "2", "--budget", "0", str(tri6)]) == 3
    assert capsys.readouterr() == ("", "cover search exceeded its budget\n")


def test_ts_trace_stops_once_the_target_is_covered(tmp_path, capsys):
    # Blocks 1 and 2 cover block 0, so at t = 3 the selection stops after two
    # blocks and block 0 itself is the pirate set.
    path = tmp_path / "three.ss"
    path.write_text(render_set_system(new_set_system(5, [(0, 1, 2, 3), (0, 1, 2, 4),
                                                          (1, 2, 3, 4)])), encoding="utf-8")
    assert main(["trace", "--kind", "ts-from-cff", "--t", "3", str(path)]) == 0
    assert capsys.readouterr().out == (
        "trace ts-from-cff\n"
        "1 target block 0 covered by: 1 2\n"
        "2 B_1 = block 1, sigma_1 = 2\n"
        "3 B_2 = block 2, sigma_2 = 1\n"
        "4 pirate set F = 0 1 2 3\n"
        "5 evasion: coalition 1 2, outsider 0\n")


def test_ipps_trace_precondition_lists_no_subsets(tmp_path, capsys):
    # No 6-subset of a 16-subset of 18 points is its own: the other blocks
    # missing one of its points leave 16 single points to hit.  Listing the
    # C(16, 6) = 8,008 subsets of each of the 153 blocks took seconds.
    path = tmp_path / "all16.ss"
    path.write_text(render_set_system(new_set_system(18, list(combinations(range(18), 16)))),
                    encoding="utf-8")
    start = time.perf_counter()
    assert main(["trace", "--kind", "ipps-own-subsets", "--t", "2", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == (
        "trace ipps-own-subsets\n"
        "1 selected blocks: 0 1\n"
        "2 A_1 = 0 1 2 3 4 5 ; C(1) = 1\n"
        "3 D_1 = 6 7 8 9 10 11\n"
        "4 A_2 = 12 13 14 16 ; C(2) = 15\n"
        "5 pirate set T = 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 16\n"
        "6 parent sets: (0 1) (0 15) (1)\n")


def test_ipps_trace_budget_stops_its_cover_search(tmp_path, capsys):
    # The trace completes at the default budget; at 0 its first cover
    # search stops before its first node.
    tri5 = _write_triples(tmp_path, 5)
    assert main(["trace", "--kind", "ipps-own-subsets", "--t", "2", str(tri5)]) == 0
    assert "pirate set T" in capsys.readouterr().out
    assert main(["trace", "--kind", "ipps-own-subsets", "--t", "2", "--budget", "0",
                 str(tri5)]) == 3
    assert capsys.readouterr().out == (
        "trace ipps-own-subsets blocked\n"
        "step C1-cover\n"
        "cover search exceeded its budget of 0 work units\n")


def test_own_subsets_command(tmp_path, capsys):
    out = tmp_path / "pg24.ss"
    main(["construct", "--family", "pg-lines", "--n", "2", "--q", "4", "-o", str(out)])
    capsys.readouterr()
    assert main(["own-subsets", "--tau", "2", str(out)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 21
    assert all(ln.endswith("count=10") for ln in lines)
    assert main(["own-subsets", "--tau", "2", "--block", "0", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("own ") == 10


def test_own_subsets_counts_without_keeping_them(tmp_path, capsys):
    # Two disjoint 24-point blocks: each has all C(24, 5) = 42,504 of its
    # 5-subsets as own subsets, about 4 MB of tuples if they were kept.
    path = tmp_path / "two.ss"
    path.write_text(render_set_system(new_set_system(48, [range(24), range(24, 48)])),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        assert main(["own-subsets", "--tau", "5", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == (
        "block 0 tau=5 count=42504\nblock 1 tau=5 count=42504\n")
    assert peak < 500_000
    assert main(["own-subsets", "--tau", "25", str(path)]) == 2
    assert capsys.readouterr().err == "error: tau=25 outside [1, 24]\n"


def test_own_subsets_budget_pays_for_each_block_before_it(tmp_path, capsys):
    # One work unit per tau-subset tested.  Block 0 of the trivial scheme
    # alone has C(40, 12), about 5.6e9, so the command stops before it.
    path = tmp_path / "triv.ss"
    main(["construct", "--family", "trivial", "--v", "60", "--w", "40", "-o", str(path)])
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["own-subsets", "--tau", "12", "--budget", "1000000", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", "budget exceeded: block 0 has 5586853480 12-subsets "
                                       "to test, 1000000 work units left\n")
    # Each line of PG(2, 4) has C(5, 2) = 10 pairs: 25 units pay for two blocks.
    pg24 = tmp_path / "pg24.ss"
    main(["construct", "--family", "pg-lines", "--n", "2", "--q", "4", "-o", str(pg24)])
    capsys.readouterr()
    assert main(["own-subsets", "--tau", "2", "--budget", "25", str(pg24)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "block 0 tau=2 count=10\nblock 1 tau=2 count=10\n"
    assert captured.err == "budget exceeded: block 2 has 10 2-subsets to test, 5 work units left\n"
    assert main(["own-subsets", "--tau", "2", "--block", "3", "--budget", "9", str(pg24)]) == 3
    assert capsys.readouterr().out == ""
    assert main(["own-subsets", "--tau", "2", "--block", "3", "--budget", "10", str(pg24)]) == 0
    assert capsys.readouterr().out.count("own ") == 10


def test_stats_command(tmp_path, capsys):
    out = tmp_path / "pg24.ss"
    main(["construct", "--family", "pg-lines", "--n", "2", "--q", "4", "-o", str(out)])
    capsys.readouterr()
    assert main(["stats", str(out)]) == 0
    captured = capsys.readouterr()
    assert "stats v=21 w=5 m=21" in captured.out
    assert "pair-intersections min=1 max=1" in captured.out


def test_stats_pair_intersections_over_all_pairs(tmp_path, capsys):
    blocks = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 5, 6, 7), (4, 5, 6, 7), (8, 9, 10, 11)]
    path = tmp_path / "mixed.ss"
    path.write_text(render_set_system(new_set_system(12, blocks)), encoding="utf-8")
    assert main(["stats", str(path)]) == 0
    inters = [len(set(a) & set(b)) for a, b in combinations(blocks, 2)]
    line = f"pair-intersections min={min(inters)} max={max(inters)}"
    assert line == "pair-intersections min=0 max=3"
    assert line in capsys.readouterr().out.splitlines()


@st.composite
def stat_systems(draw):
    """One to eight narrow blocks on up to twelve points: some pairs are disjoint."""
    v = draw(st.integers(3, 12))
    w = draw(st.integers(1, 3))
    block = st.lists(st.integers(0, v - 1), min_size=w, max_size=w, unique=True)
    return new_set_system(v, draw(st.lists(block.map(sorted).map(tuple), min_size=1,
                                           max_size=8, unique=True)))


@given(stat_systems())
def test_stats_pair_intersections_match_brute_force(s):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.ss"
        path.write_text(render_set_system(s), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["stats", str(path)]) == 0
    lines = [ln for ln in out.getvalue().splitlines() if ln.startswith("pair-intersections")]
    if s.m == 1:
        assert lines == []
    else:
        inters = [len(set(a) & set(b)) for a, b in combinations(s.blocks, 2)]
        assert lines == [f"pair-intersections min={min(inters)} max={max(inters)}"]


def test_extend_via_cli(tmp_path, capsys):
    base = tmp_path / "ag25.ss"
    ext = tmp_path / "ext.ss"
    main(["construct", "--family", "ag-lines", "--n", "2", "--q", "5", "-o", str(base)])
    assert main(["construct", "--family", "extend", "--base", str(base),
                 "--d", "1", "--t", "2", "-o", str(ext)]) == 0
    capsys.readouterr()
    system = parse_set_system(ext.read_text(encoding="utf-8"))
    assert (system.v, system.w, system.m) == (26, 6, 30)
    # bad d is a usage-level error
    assert main(["construct", "--family", "extend", "--base", str(base),
                 "--d", "4", "--t", "2", "-o", str(ext)]) == 2
    capsys.readouterr()


def test_ipps_certificate_strips_the_common_points(tmp_path, capsys):
    # The PG(2, 16) lines extended by one point meet in two points, but less
    # that point in one, below ceil(17/16) = 2: a 4-TS, so a 4-IPPS, settled
    # without listing the 229,779,277 selections of at most 4 blocks.
    base, ext = tmp_path / "pg216.ss", tmp_path / "ext.ss"
    assert main(["construct", "--family", "pg-lines", "--n", "2", "--q", "16",
                 "-o", str(base)]) == 0
    assert main(["construct", "--family", "extend", "--base", str(base), "--d", "1", "--t", "4",
                 "-o", str(ext)]) == 0
    capsys.readouterr()
    assert main(["verify", "--property", "ipps", "--t", "4", "--budget", "1000000", str(ext)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "verify property=ipps t=4 mode=exhaustive verdict=holds work=78897\n"
    assert captured.err == ("detail: pairwise intersections outside 1 common points below 2 "
                            "certify a 4-TS, so a 4-IPPS\n")


def test_construct_refuses_flags_its_family_does_not_read(tmp_path, capsys):
    base = tmp_path / "pg24.ss"
    assert main(["construct", "--family", "pg-lines", "--n", "2", "--q", "4",
                 "-o", str(base)]) == 0
    reads = {
        "trivial": {"--v": "9", "--w": "3", "--budget": "1000"},
        "pg-lines": {"--n": "2", "--q": "3", "--budget": "1000"},
        "ag-lines": {"--n": "2", "--q": "3", "--budget": "1000"},
        "inversive": {"--q": "3", "--budget": "1000"},
        "hermitian": {"--q": "2", "--budget": "1000"},
        "greedy": {"--v": "9", "--w": "3", "--t": "2", "--budget": "1000"},
        "extend": {"--base": str(base), "--d": "1", "--t": "2"},
    }
    values = {"--v": "9", "--w": "3", "--n": "2", "--q": "3", "--t": "2", "--d": "1",
              "--base": str(base), "--budget": "1000"}
    for family, flags in reads.items():
        argv = ["construct", "--family", family, *(x for pair in flags.items() for x in pair)]
        assert main(argv) == 0, family
        assert capsys.readouterr().out.startswith("setsystem "), family
        for flag, value in values.items():
            if flag not in flags:
                assert main([*argv, flag, value]) == 2, (family, flag)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: family {family!r} does not read {flag}\n"
    assert main(["construct", "--family", "pg-lines", "--q", "4"]) == 2
    assert capsys.readouterr().err == "error: family 'pg-lines' needs --n\n"
    assert main(["construct", "--family", "extend", "--budget", "-1"]) == 2
    assert capsys.readouterr().err == "error: --budget must be >= 0, got -1\n"


def test_usage_errors(tmp_path, capsys):
    assert main(["verify", "--property", "nonsense", "x"]) == 2
    assert main(["verify", "--property", "ts", str(tmp_path / "missing.ss")]) == 2
    assert main(["nonsense-command"]) == 2
    assert main(["construct", "--family", "pg-lines"]) == 2  # missing --n/--q
    bad = tmp_path / "bad.ss"
    bad.write_text("setsystem v=4 w=2 m=1\n0 1\ngarbage\n", encoding="utf-8")
    assert main(["verify", "--property", "ts", "--t", "2", str(bad)]) == 2
    assert main(["verify", "--property", "cff", "--t", "2", "--mode", "certified",
                 str(bad)]) == 2
    capsys.readouterr()
    for header in ("setsystem v=3 w=4 m=0\n", "setsystem v=3 w=0 m=0\n"):
        bad.write_text(header, encoding="utf-8")
        assert main(["stats", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1: bad header"), header
    tri = _write_triples(tmp_path, 5)
    assert main(["verify", "--property", "design", "--tau", "2", "--lambda", "-1",
                 str(tri)]) == 2
    assert capsys.readouterr().err.startswith("error: index lambda=-1 must be >= 0")
    for kind in ("ts-from-cff", "ipps-own-subsets"):
        assert main(["trace", "--kind", kind, "--t", "1", str(tri)]) == 2, kind
        captured = capsys.readouterr()
        assert captured.out == "", kind
        assert captured.err.startswith("error: strength t=1 must be >= 2"), kind


def test_non_ascii_integer_tokens_are_format_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ss"
    bad.write_text("setsystem v=\u00b2 w=1 m=0\n", encoding="utf-8")
    assert main(["stats", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: bad header field")
    system = _write_triples(tmp_path, 4)
    wit = tmp_path / "wit.txt"
    wit.write_text("witness cff-cover\nstrength 2\ntarget \u00b2\ncover 1 2\n",
                   encoding="utf-8")
    assert main(["check-witness", str(system), str(wit)]) == 2
    assert capsys.readouterr().err.startswith("error: non-integer value")


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    path = _write_triples(tmp_path, 5)
    assert main(["verify", "--property", "ts", str(path)]) == 2
    assert main(["verify", "--property", "design", str(path)]) == 2
    capsys.readouterr()


def test_certified_budget_stop_is_reported(tmp_path, capsys):
    # Two disjoint blocks pass the packing condition, but budget 0 stops
    # the check before it decides anything.
    path = tmp_path / "two.ss"
    path.write_text(render_set_system(new_set_system(6, [[0, 1, 2], [3, 4, 5]])),
                    encoding="utf-8")
    code = main(["verify", "--property", "ts", "--t", "2", "--mode", "certified",
                 "--budget", "0", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "verdict=inconclusive" in captured.out
    assert "detail: BudgetExceeded" in captured.err


def test_negative_budget_is_usage_error(tmp_path, capsys):
    path = _write_triples(tmp_path, 5)
    for argv in (["verify", "--property", "ipps", "--t", "2", "--budget", "-1", str(path)],
                 ["search", "--property", "ipps", "--t", "2", "--w", "3", "--v", "5",
                  "--budget", "-1"],
                 ["trace", "--kind", "ts-from-cff", "--t", "2", "--budget", "-1", str(path)],
                 ["construct", "--family", "greedy", "--v", "10", "--w", "3", "--t", "2",
                  "--budget", "-1"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --budget must be >= 0"), argv
        assert captured.out == ""


def test_wide_inputs_end_without_internal_error(tmp_path, capsys):
    # A 1000-point block: the candidate blocks come one mask at a time.
    assert main(["search", "--property", "ts", "--t", "2", "--w", "1000", "--v", "1001",
                 "--budget", "50"]) == 3
    captured = capsys.readouterr()
    first, rest = captured.out.split("\n", 1)
    assert first.endswith("optimum=2 complete=no nodes=51")
    assert parse_set_system(rest).m == 2
    assert captured.err == ""
    # The IPPS walk is 1,500 points deep on these three blocks.
    three = tmp_path / "three.ss"
    three.write_text(render_set_system(new_set_system(
        1501, [range(1500), [*range(1499), 1500], range(1, 1501)])), encoding="utf-8")
    assert main(["verify", "--property", "ipps", "--t", "2", str(three)]) == 1
    captured = capsys.readouterr()
    first, rest = captured.out.split("\n", 1)
    assert first == "verify property=ipps t=2 mode=exhaustive verdict=violated work=7511"
    assert "internal error" not in captured.err
    wit = tmp_path / "three.wit"
    wit.write_text(rest, encoding="utf-8")
    assert main(["check-witness", str(three), str(wit)]) == 0
    assert capsys.readouterr().out == "witness valid: ambiguity verified\n"
    trivial = tmp_path / "trivial.ss"
    assert main(["construct", "--family", "trivial", "--v", "1510", "--w", "1500",
                 "-o", str(trivial)]) == 0
    # Less their 1,499 common points the blocks are single points, so the
    # pairwise certificate settles it.
    assert main(["verify", "--property", "ipps", "--t", "2", "--budget", "2000000",
                 str(trivial)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "verify property=ipps t=2 mode=exhaustive verdict=holds work=11\n"
    assert "internal error" not in captured.err
    # The ground-set cap is checked before the greedy walk over C(4097, 2) pairs.
    assert main(["construct", "--family", "greedy", "--v", "4097", "--w", "2", "--t", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ground set size 4097 exceeds cap 4096\n"


def test_deep_searches_end_without_internal_error(tmp_path, capsys):
    # Block 0 is {0..1049}; block i is {i - 1} plus the 1,049 points from
    # 1050 on.  Covering block 0 takes all 1,050 others, one block per level
    # of the cover search; the trace at t = 33 asks for covers of up to
    # t^2 = 1,089 blocks.  First the pairwise certificate fails: at t = 1050
    # at block 0, for 2,100 work (1,050 points of degree 2); at t = 1049
    # block 0 passes and block 1 costs 2 + 1,049 * 1,050.
    deep = new_set_system(2099, [range(1050)] + [[i, *range(1050, 2099)] for i in range(1050)])
    path = tmp_path / "deep.ss"
    path.write_text(render_set_system(deep), encoding="utf-8")

    def run(argv, code):
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        assert "internal error" not in captured.err
        return captured.out

    out = run(["verify", "--property", "cff", "--t", "1050", str(path)], 1)
    first, rest = out.split("\n", 1)
    assert first == "verify property=cff t=1050 mode=exhaustive verdict=violated work=3151"
    assert rest == ("witness cff-cover\nstrength 1050\ntarget 0\ncover "
                    + " ".join(map(str, range(1, 1051))) + "\n")
    wit = tmp_path / "deep.wit"
    wit.write_text(rest, encoding="utf-8")
    assert main(["check-witness", str(path), str(wit)]) == 0
    assert capsys.readouterr().out == "witness valid: cover verified\n"
    out = run(["verify", "--property", "cff", "--t", "1049", str(path)], 1)
    assert out == ("verify property=cff t=1049 mode=exhaustive verdict=violated work=1104605\n"
                   "witness cff-cover\nstrength 1049\ntarget 1\ncover 0 2\n")
    out = run(["trace", "--kind", "ts-from-cff", "--t", "33", str(path)], 3)
    assert out.startswith("trace ts-from-cff blocked\nstep private-points\n")
    # Coalitions of up to 1,049 one-point blocks, walked until the budget ends.
    ones = new_set_system(1050, [[i] for i in range(1050)])
    path = tmp_path / "ones.ss"
    path.write_text(render_set_system(ones), encoding="utf-8")
    out = run(["verify", "--property", "ts", "--t", "1049", "--mode", "exhaustive",
               "--budget", "5000", str(path)], 3)
    assert out.startswith("verify property=ts t=1049 mode=exhaustive verdict=inconclusive "
                          "work=5001\n")
    # The searches themselves, without parsing the 1.1M-incidence file.
    for decide in (lambda: verify_cff(deep, 1050), lambda: verify_cff(deep, 1049),
                   lambda: verify_cff(deep, 33 * 33), lambda: verify_ts(ones, 1049, budget=5000)):
        start = time.perf_counter()
        decide()
        assert time.perf_counter() - start < 2.0


def test_over_cap_inputs_stop_before_any_work(capsys):
    # Each ground set is sized from the parameters alone, before a point,
    # field table or search node exists.
    cases = {
        ("search", "--property", "cff", "--t", "2", "--w", "2", "--v", "5000"): 5000,
        ("search", "--property", "ts", "--t", "2", "--w", "2", "--v", "5000",
         "--budget", "100000"): 5000,
        ("construct", "--family", "pg-lines", "--n", "2", "--q", "97"): 9507,
        ("construct", "--family", "ag-lines", "--n", "2", "--q", "97"): 9409,
        ("construct", "--family", "pg-lines", "--n", "3", "--q", "17"): 5220,
        ("construct", "--family", "pg-lines", "--n", "3", "--q", "97"): 922180,
        ("construct", "--family", "trivial", "--v", "1000000", "--w", "2"): 1000000,
    }
    for argv, size in cases.items():
        start = time.perf_counter()
        assert main(list(argv)) == 2, argv
        assert time.perf_counter() - start < 1.0, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ground set size {size} exceeds cap 4096\n", argv
    # From n = 13 on every space is over the cap, whatever the field.
    assert main(["construct", "--family", "ag-lines", "--n", "1000000000", "--q", "97"]) == 2
    assert capsys.readouterr().err == (
        "error: affine dimension n=1000000000 must be in [2, 12]\n")
    # The field order is checked before the count, whose formula divides by q - 1.
    assert main(["construct", "--family", "pg-lines", "--n", "2", "--q", "1"]) == 2
    assert capsys.readouterr().err == "error: field order 1 not supported\n"


def test_constructions_over_budget_stop_before_building(capsys):
    # Each family's block count is known from its parameters: C(v, tau) /
    # C(w, tau) for the designs, v - w + 1 for the shared core.  AG(12, 2)
    # has 4,096 points, within the cap, and 8,386,560 two-point lines.
    start = time.perf_counter()
    assert main(["construct", "--family", "ag-lines", "--n", "12", "--q", "2"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 8386560 blocks of 2 points = 16773120 incidences "
                            "exceed budget 10000000\n")
    # m * w incidences: 21 * 5 for PG(2, 4), 208 * 5 for the unital on 65
    # points, 30 * 4 for the inversive plane of order 3, 26 * 5 for trivial.
    for family, size in ((["pg-lines", "--n", "2", "--q", "4"], 105),
                         (["hermitian", "--q", "4"], 1040),
                         (["inversive", "--q", "3"], 120),
                         (["trivial", "--v", "30", "--w", "5"], 130)):
        argv = ["construct", "--family", *family, "--budget"]
        assert main(argv + [str(size - 1)]) == 2, family
        assert capsys.readouterr().err.endswith(f"= {size} incidences exceed budget {size - 1}\n")
        assert main(argv + [str(size)]) == 0, family
        assert capsys.readouterr().out.startswith("setsystem ")


# Runs one subcommand in a fresh interpreter; prints the submodules loaded by
# importing the CLI, then the exit code and the submodules loaded after it.  type() reads no attribute of a lazy module, so unlike
# m.__class__ it loads nothing.
_LOAD_PROBE = """\
import sys, types
import traceschemes.cli
names = ("core", "gf", "verify", "bounds", "construct", "oracle")
mods = {m: sys.modules["traceschemes." + m] for m in names}
before = sorted(m for m, mod in mods.items() if type(mod) is types.ModuleType)
code = traceschemes.cli.main(sys.argv[1:])
print(" ".join(before), "|", code, *sorted(m for m, mod in mods.items()
                                          if type(mod) is types.ModuleType))
"""


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, capsys):
    tri = _write_triples(tmp_path, 6)
    main(["verify", "--property", "ts", "--t", "2", str(tri)])
    wit = tmp_path / "w.txt"
    wit.write_text("witness " + capsys.readouterr().out.split("witness ", 1)[1], encoding="utf-8")
    cases = [
        (["--help"], "0 core"),
        (["bound", "--t", "2", "--w", "5", "--v", "21"], "0 bounds core"),
        (["verify", "--property", "ts", "--t", "2", str(tri)], "1 core verify"),
        (["stats", str(tri)], "0 core verify"),
        (["check-witness", str(tri), str(wit)], "0 core verify"),
        (["own-subsets", "--tau", "2", str(tri)], "0 core"),
        (["construct", "--family", "pg-lines", "--n", "2", "--q", "4"], "0 construct core gf"),
        (["trace", "--kind", "ts-from-cff", "--t", "2", str(tri)], "0 bounds core oracle verify"),
    ]
    for argv, loaded in cases:
        done = subprocess.run([sys.executable, "-c", _LOAD_PROBE, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
        assert done.returncode == 0, done.stderr
        # every submodule is in sys.modules after import, as perfbench's tracer
        # needs; importing the CLI loads core alone
        assert done.stdout.splitlines()[-1] == "core | " + loaded, argv
