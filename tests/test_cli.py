"""Command-line front end: exit codes, streams, round trips."""

from itertools import combinations

from traceschemes import new_set_system, parse_set_system, render_set_system
from traceschemes.cli import main


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


def test_verify_inconclusive_budget(tmp_path, capsys):
    out = tmp_path / "pg24.ss"
    main(["construct", "--family", "pg-lines", "--n", "2", "--q", "4", "-o", str(out)])
    capsys.readouterr()
    code = main(["verify", "--property", "ipps", "--t", "2", "--budget", "10", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "verdict=inconclusive" in captured.out


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


def test_bound_rejects_bad_params(capsys):
    assert main(["bound", "--t", "2", "--w", "9", "--v", "5"]) == 2
    capsys.readouterr()


def test_search_command(capsys):
    assert main(["search", "--property", "ts", "--t", "2", "--w", "2", "--v", "4"]) == 0
    captured = capsys.readouterr()
    assert "optimum=3" in captured.out
    assert "setsystem v=4 w=2 m=3" in captured.out
    assert main(["search", "--property", "ts", "--t", "2", "--w", "4", "--v", "8",
                 "--budget", "100"]) == 3
    capsys.readouterr()


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
