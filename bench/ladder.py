"""The work ladder: fixed exhaustive decisions and searches, each under a work and a time cap.

Usage, from the repository root:

    python bench/ladder.py --out BENCH_23.json [--rungs NAME,NAME,...]
    python bench/ladder.py --compare BENCH_22.json BENCH_23.json

Each run of a rung is a child process of this script (``--run NAME``) that
builds the rung's instance from ``src/`` next to this file and runs it at
the rung's work cap as budget, and prints one JSON line.  A system is
decided by the property's exhaustive decider (``verify_ts``, ``verify_cff``
or ``verify_ipps``); the work is the decider's.  A ``SchemeParams`` is
searched by ``exhaustive_optimal`` under the cap as node budget; its
verdict is ``complete`` or ``inconclusive``, its work the nodes explored,
and it records the optimum.  A rung runs three times, or once when its
first run takes over 5 s; its wall time is the median of the in-process
times of the decider or search.  A rung that stops at its work cap (verdict
inconclusive) or is killed at its time cap is recorded as ``gave-up``; the
first keeps the work it reached.

``--compare`` prints the work and wall-time deltas per rung and exits 1
only if a verdict or a hash of the verdict and witness (of a search: its
optimum and witness family) differs between two rungs that both ended
within their time cap.  One such change is progress, printed as
``PROGRESS`` and not failed: a rung that was inconclusive is now decided,
and a search so decided has an optimum at least the old one.  Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOW_S = 5.0  # a rung whose first run takes longer runs once
SCHEMA = 1

# name: (instance, built by eval over traceschemes' names: a system, or the
#        SchemeParams of a search; property decided or searched for, strength
#        t, work cap passed as budget, time cap per run in seconds)
RUNGS = {
    "ts-trivial-30-5-t3": ("trivial_ts(30, 5)", "ts", 3, 10**7, 60),
    "ts-extend-pg24-d1-t2": ("extend_design(pg_lines(2, 4), 1, 2)[0]", "ts", 2, 10**7, 60),
    "ts-hermitian-4-t2": ("hermitian_unital(4)", "ts", 2, 10**7, 60),
    "ts-extend-pg29-d8-t3": ("extend_design(pg_lines(2, 9), 8, 3)[0]", "ts", 3, 5 * 10**7, 120),
    "ts-extend-pg29-d8-t4": ("extend_design(pg_lines(2, 9), 8, 3)[0]", "ts", 4, 10**7, 60),
    "ts-extend-pg216-d1-t4": ("extend_design(pg_lines(2, 16), 1, 4)[0]", "ts", 4, 5 * 10**6, 120),
    "ts-trivial-1200-2-t1100": ("trivial_ts(1200, 2)", "ts", 1100, 2 * 10**5, 60),
    "ts-trivial-1200-2-t1100-1M": ("trivial_ts(1200, 2)", "ts", 1100, 10**6, 60),
    "cff-hermitian-4-t3": ("hermitian_unital(4)", "cff", 3, 10**7, 60),
    "cff-pg33-t3": ("pg_lines(3, 3)", "cff", 3, 10**7, 60),
    "cff-pg29-t9": ("pg_lines(2, 9)", "cff", 9, 5 * 10**6, 120),
    "ipps-pg24-t2": ("pg_lines(2, 4)", "ipps", 2, 10**7, 60),
    "ipps-ag25-t2": ("ag_lines(2, 5)", "ipps", 2, 10**7, 60),
    "ipps-hermitian-4-t2": ("hermitian_unital(4)", "ipps", 2, 10**7, 60),
    "ipps-pg216-t4": ("pg_lines(2, 16)", "ipps", 4, 10**7, 60),
    "ipps-pg216-plus-block-t4": ("new_set_system(273, [*pg_lines(2, 16).blocks, "
                                 "tuple(range(1, 18))])", "ipps", 4, 10**6, 60),
    "ipps-extend-pg216-d1-t4": ("extend_design(pg_lines(2, 16), 1, 4)[0]", "ipps", 4, 10**6, 60),
    "search-ipps-2-3-9": ("SchemeParams(2, 3, 9)", "ipps", 2, 2 * 10**6, 120),
    "search-ts-2-4-11": ("SchemeParams(2, 4, 11)", "ts", 2, 2 * 10**6, 120),
    "search-cff-2-3-8": ("SchemeParams(2, 3, 8)", "cff", 2, 2 * 10**6, 120),
}


def run_rung(name: str) -> dict:
    """Build and decide or search one rung in this process (the child's side)."""
    sys.path.insert(0, str(ROOT / "src"))
    import traceschemes

    instance, prop, t, work_cap, _ = RUNGS[name]
    target = eval(instance, {n: getattr(traceschemes, n) for n in traceschemes.__all__})
    if isinstance(target, traceschemes.SchemeParams):
        assert target.t == t, name
        start = time.perf_counter()
        out = traceschemes.exhaustive_optimal(target, prop, budget=work_cap)
        seconds = time.perf_counter() - start
        verdict = "complete" if out.complete else "inconclusive"
        text = (f"{verdict} optimum={out.optimum}\n"
                + traceschemes.render_set_system(out.witness_family))
        optimum, work = out.optimum, out.nodes_explored
    else:
        decide = getattr(traceschemes, "verify_" + prop)
        start = time.perf_counter()
        out = decide(target, t, budget=work_cap)
        seconds = time.perf_counter() - start
        text = out.verdict + "\n"
        if out.witness is not None:
            text += traceschemes.render_witness(out.witness)
        verdict, optimum, work = out.verdict, None, out.work
    return {"verdict": verdict, "optimum": optimum, "work": work, "seconds": seconds,
            "hash": hashlib.sha256(text.encode()).hexdigest()}


def measure(name: str) -> dict:
    """Run one rung in child processes and summarize it."""
    instance, prop, t, work_cap, time_cap = RUNGS[name]
    record = {"name": name, "instance": instance, "property": prop, "t": t,
              "work_cap": work_cap, "time_cap_s": time_cap,
              "python": platform.python_version(), "nproc": os.cpu_count()}
    first, times = None, []
    while len(times) < 3:
        try:
            proc = subprocess.run([sys.executable, __file__, "--run", name], check=True,
                                  capture_output=True, text=True, timeout=time_cap)
        except subprocess.TimeoutExpired:
            record.update(status="gave-up", reason="time cap", verdict=None, complete=False,
                          optimum=None, hash=None, work=None, wall_s=None, runs=len(times))
            return record
        got = json.loads(proc.stdout)
        times.append(got.pop("seconds"))
        if first is None:
            first = got
        elif got != first:
            raise RuntimeError(f"{name}: runs disagree: {first} then {got}")
        if times[0] > SLOW_S:
            break
    complete = first["verdict"] != "inconclusive"
    record.update(status="done" if complete else "gave-up",
                  reason=None if complete else "work cap", complete=complete, **first,
                  wall_s=round(statistics.median(times), 6), runs=len(times))
    return record


def compare(old_path: str, new_path: str) -> int:
    old = {r["name"]: r for r in json.loads(Path(old_path).read_text())["rungs"]}
    new = {r["name"]: r for r in json.loads(Path(new_path).read_text())["rungs"]}
    changed = 0
    for name in [*old, *(n for n in new if n not in old)]:
        if name not in old or name not in new:
            print(f"{name}: only in {old_path if name in old else new_path}")
            continue
        a, b = old[name], new[name]
        line = f"{name}: {a['status']} -> {b['status']}, verdict {a['verdict']} -> {b['verdict']}"
        if a.get("optimum") is not None or b.get("optimum") is not None:
            line += f", optimum {a.get('optimum')} -> {b.get('optimum')}"
        if a["work"] is not None and b["work"] is not None:
            line += f", work {a['work']:,} -> {b['work']:,} ({b['work'] - a['work']:+,})"
        if a["wall_s"] and b["wall_s"]:
            line += (f", wall {a['wall_s']:.4f} -> {b['wall_s']:.4f} s"
                     f" ({b['wall_s'] / a['wall_s'] - 1:+.1%})")
        if a["verdict"] is not None and b["verdict"] is not None \
                and (a["verdict"], a["hash"]) != (b["verdict"], b["hash"]):
            if a["verdict"] == "inconclusive" and b["verdict"] != "inconclusive" \
                    and (b.get("optimum") or 0) >= (a.get("optimum") or 0):
                line += "  PROGRESS"
            else:
                line += "  VERDICT OR HASH CHANGED"
                changed += 1
        print(line)
    return 1 if changed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the ladder's JSON here")
    group.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    group.add_argument("--run", choices=sorted(RUNGS), help=argparse.SUPPRESS)
    parser.add_argument("--rungs", help="comma-separated rung names (default: all)")
    args = parser.parse_args(argv)
    if args.run:
        print(json.dumps(run_rung(args.run)))
        return 0
    if args.compare:
        return compare(*args.compare)
    names = args.rungs.split(",") if args.rungs else list(RUNGS)
    unknown = [n for n in names if n not in RUNGS]
    if unknown:
        parser.error(f"unknown rungs: {', '.join(unknown)}")
    rungs = []
    for name in names:
        rungs.append(measure(name))
        r = rungs[-1]
        print(f"{name}: {r['status']} {r['verdict']} work={r['work']} wall_s={r['wall_s']}",
              file=sys.stderr)
    Path(args.out).write_text(json.dumps({"schema": SCHEMA, "rungs": rungs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
