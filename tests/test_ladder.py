"""The work ladder script on its two cheapest rungs and one search rung: the JSON it writes and
--compare."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"
KEYS = {"name", "instance", "property", "t", "work_cap", "time_cap_s", "python", "nproc", "status",
        "reason", "verdict", "complete", "optimum", "hash", "work", "wall_s", "runs"}


def _ladder(*args):
    return subprocess.run([sys.executable, str(LADDER), *args], capture_output=True,
                          text=True, timeout=300)


def test_ladder_writes_rungs_and_compares_them(tmp_path):
    out = tmp_path / "bench.json"
    done = _ladder("--out", str(out), "--rungs", "ts-extend-pg24-d1-t2,ts-extend-pg29-d8-t4")
    assert done.returncode == 0, done.stderr
    data = json.loads(out.read_text())
    assert data["schema"] == 1
    rungs = data["rungs"]
    assert [(r["name"], r["verdict"], r["optimum"], r["work"]) for r in rungs] == [
        ("ts-extend-pg24-d1-t2", "holds", None, 5166),
        ("ts-extend-pg29-d8-t4", "violated", None, 8063)]
    for r in rungs:
        assert set(r) == KEYS
        assert (r["status"], r["reason"], r["complete"], r["runs"]) == ("done", None, True, 3)
        assert len(r["hash"]) == 64 and int(r["hash"], 16) >= 0
        assert r["wall_s"] > 0 and r["nproc"] >= 1 and r["python"] == sys.version.split()[0]

    same = _ladder("--compare", str(out), str(out))
    assert same.returncode == 0, same.stdout
    assert "work 5,166 -> 5,166 (+0)" in same.stdout
    rungs[1]["hash"] = "0" * 64
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(data))
    differs = _ladder("--compare", str(out), str(moved))
    assert differs.returncode == 1
    assert "ts-extend-pg29-d8-t4" in differs.stdout.splitlines()[1]
    assert "CHANGED" in differs.stdout.splitlines()[1]


def test_search_rung_records_the_optimum_nodes_and_witness_family(tmp_path):
    # A rung whose instance is a SchemeParams runs exhaustive_optimal under
    # its cap: the nodes are its work, and the hash covers the optimum and
    # the witness family, as `search` prints them.
    done = _ladder("--run", "search-cff-2-3-8")
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert (got["verdict"], got["optimum"], got["work"]) == ("complete", 8, 209927)
    search = subprocess.run([sys.executable, "-m", "traceschemes", "search", "--property", "cff",
                             "--t", "2", "--w", "3", "--v", "8"], capture_output=True, text=True,
                            cwd=LADDER.parent.parent, env={**os.environ, "PYTHONPATH": "src"})
    family = search.stdout.split("\n", 1)[1]
    text = "complete optimum=8\n" + family
    assert got["hash"] == hashlib.sha256(text.encode()).hexdigest()

    record = {"name": "search-cff-2-3-8", "status": "done", "verdict": "complete", "optimum": 8,
              "work": 209927, "hash": got["hash"], "wall_s": got["seconds"]}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"schema": 1, "rungs": [record]}))
    new.write_text(json.dumps({"schema": 1, "rungs": [{**record, "optimum": 7, "hash": "0" * 64}]}))
    same = _ladder("--compare", str(old), str(old))
    assert same.returncode == 0, same.stdout
    assert "verdict complete -> complete, optimum 8 -> 8, work 209,927 -> 209,927 (+0)" in same.stdout
    differs = _ladder("--compare", str(old), str(new))
    assert differs.returncode == 1
    assert "optimum 8 -> 7" in differs.stdout and "CHANGED" in differs.stdout


def _compare(tmp_path, old, new):
    """Exit status and verdict marks of --compare on one fabricated rung, old -> new."""
    paths = []
    for side, (verdict, optimum, digest) in (("old", old), ("new", new)):
        record = {"name": "rung", "status": "done", "verdict": verdict, "optimum": optimum,
                  "work": 10, "hash": digest, "wall_s": 0.1}
        paths.append(tmp_path / f"{side}.json")
        paths[-1].write_text(json.dumps({"schema": 1, "rungs": [record]}))
    done = _ladder("--compare", *map(str, paths))
    return done.returncode, "PROGRESS" in done.stdout, "CHANGED" in done.stdout


def test_compare_passes_progress_and_fails_every_other_change(tmp_path):
    # A rung that stopped at its work cap and is now decided is progress: the
    # aim of a faster decider.  A search counts only with an optimum no lower.
    a, b = "a" * 64, "b" * 64
    progress = (0, True, False)
    changed = (1, False, True)
    cases = [
        (("inconclusive", None, a), ("holds", None, b), progress),
        (("inconclusive", None, a), ("violated", None, b), progress),
        (("inconclusive", 12, a), ("complete", 12, b), progress),
        (("inconclusive", 12, a), ("complete", 13, b), progress),
        (("inconclusive", 12, a), ("complete", 11, b), changed),
        (("holds", None, a), ("inconclusive", None, b), changed),
        (("complete", 12, a), ("inconclusive", 12, b), changed),
        (("holds", None, a), ("violated", None, b), changed),
        (("violated", None, a), ("violated", None, b), changed),
        (("inconclusive", 12, a), ("inconclusive", 12, b), changed),
        (("inconclusive", None, a), ("inconclusive", None, a), (0, False, False)),
        (("holds", None, a), (None, None, None), (0, False, False)),
    ]
    for old, new, expected in cases:
        assert _compare(tmp_path, old, new) == expected, (old, new)
