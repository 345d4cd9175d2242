"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload named in BENCHMARK.json this makes one untraced run and
two traced runs of perfbench/run.py, each of the minimum two passes, with
seed 7, and checks that

- every end-to-end metric (untraced) and every per-layer metric (traced)
  is emitted under its name with the unit BENCHMARK.json gives it;
- no task failed (fail_frac is 0) and the result says ``correct``;
- the three runs print the same output digest;
- the exact counts (unit count, bytes or ratio: ``*_work``,
  ``oracle.search_nodes`` and the like) repeat exactly in both traced runs.

Exits 0 when all checks pass and 1 otherwise, listing each failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = {"count", "bytes", "ratio"}
SEED = 7
SECONDS = 1


def run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def check_names(problems: list[str], label: str, result: dict, spec: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: failed {result['failed']} of {result['attempted']}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in bench["workloads"]):
        plain, digest0 = run(workload, 0)
        traced1, digest1 = run(workload, 1)
        traced2, digest2 = run(workload, 1)
        check_names(problems, f"{workload} trace=0", plain, bench["end_to_end"])
        check_names(problems, f"{workload} trace=1", traced1, bench["per_layer"])
        if len({digest0, digest1, digest2}) != 1:
            problems.append(f"{workload}: digests differ: {digest0} {digest1} {digest2}")
        for name, m in traced1["metrics"].items():
            other = traced2["metrics"].get(name, {}).get("value")
            if m["unit"] in EXACT_UNITS and m["value"] != other:
                problems.append(f"{workload}: {name} not exact: {m['value']} then {other}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
