"""The work ladder script on its two cheapest rungs: the JSON it writes and --compare."""

import json
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"
KEYS = {"name", "instance", "property", "t", "work_cap", "time_cap_s", "python", "nproc", "status",
        "reason", "verdict", "complete", "hash", "work", "wall_s", "runs"}


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
    assert [(r["name"], r["verdict"], r["work"]) for r in rungs] == [
        ("ts-extend-pg24-d1-t2", "holds", 5166), ("ts-extend-pg29-d8-t4", "violated", 8063)]
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
