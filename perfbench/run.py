"""traceschemes benchmark: one workload, closed loop, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up its seeded inputs (and, without tracing, six
more set-ups in fresh processes, for the median ``setup_s``), then runs
whole passes over the workload's tasks, one task at a time, for about S
seconds.  Every output is checked against its known answer and folded into
a digest that must be the same in every pass, and the same as the one in
``digests.json`` for that seed if one is recorded there.

Timings are in reference seconds: each raw time is divided by the host's
slowdown, read from ``speed.py``'s kernel next to it.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` passes alternate between untraced and traced, and it
reports the per-module metrics taken from the spans of the traced passes.
Spans and a result record go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 6
MIN_PASSES = 2
# Read the host's speed again once this much task time has gone by.
SPEED_EVERY_S = 0.02


def machine() -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def run_pass(tasks, tracer, unit) -> dict:
    """One pass over all tasks; returns wall time, latencies, verdicts and records.

    The speed kernel runs before the first task, after the last, and between
    tasks whenever SPEED_EVERY_S of task time has gone by; each task's
    slowdown comes from the two kernel readings around it.
    """
    latencies, oks, records = [], [], []
    kernel_times, reading = [speed.kernel_s()], []
    since_reading = 0.0
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if since_reading >= SPEED_EVERY_S:
            kernel_times.append(speed.kernel_s())
            since_reading = 0.0
        reading.append(len(kernel_times) - 1)
        span = None
        if tracer:
            tracer.unit, tracer.task = unit, i
            span = tracer.open("bench.task")
        t0 = time.perf_counter()
        try:
            out, error = task.run(), None
        except Exception as exc:  # a crashing task is a failed task
            out, error = None, exc
        latencies.append(time.perf_counter() - t0)
        since_reading += latencies[-1]
        if span:
            tracer.close(span)
        ok, record = (False, f"error {error!r}") if error else task.check(out)
        oks.append(ok)
        records.append(f"{task.name}\t{record}")
    wall = time.perf_counter() - start
    kernel_times.append(speed.kernel_s())
    slowdowns = [speed.slowdown(kernel_times[k], kernel_times[k + 1]) for k in reading]
    return {"wall": wall, "latencies": latencies,
            "ref_latencies": [x / f for x, f in zip(latencies, slowdowns)],
            "slowdown": median(slowdowns), "oks": oks, "records": records,
            "traced": tracer is not None}


def typical_pass_s(passes) -> float:
    """A pass as it runs when every task takes its median time, in reference seconds."""
    return sum(median(times) for times in zip(*(p["ref_latencies"] for p in passes)))


def setup_in_children(args) -> list[tuple[float, str]]:
    results = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append((rec["setup_s"], rec["setup_ref_s"], rec["inputs_digest"]))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time and input digest, exit")
    args = parser.parse_args(argv)
    host = machine()
    if not (ROOT / "src" / "traceschemes" / "__init__.py").is_file():
        print(f"error: no traceschemes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, host, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, host: dict, workdir: Path) -> int:
    kernel_before = speed.kernel_s()
    started = time.perf_counter()
    import workloads  # imports traceschemes, so the import is part of set-up
    from tracing import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    prepared = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.perf_counter() - started
    setup_ref_s = setup_s / speed.slowdown(kernel_before, speed.kernel_s())
    if tracer:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s,
                          "inputs_digest": prepared.inputs_digest}))
        return 0
    setups = [(setup_s, setup_ref_s, prepared.inputs_digest)]
    if not args.trace:
        setups += setup_in_children(args)

    passes = []
    begin = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        if prepared.cli:
            prepared.cli.tracer = tracer if traced else None
        passes.append(run_pass(prepared.tasks, tracer if traced else None, len(passes)))
        if traced:
            tracer.uninstall()
        elapsed = time.perf_counter() - begin
        typical = median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break

    attempted = sum(len(p["oks"]) for p in passes)
    failed = sum(not ok for p in passes for ok in p["oks"])
    first = passes[0]["records"]
    failed += sum(rec != first[i] for p in passes[1:] for i, rec in enumerate(p["records"]))
    digest = hashlib.sha256("\n".join(first).encode()).hexdigest()
    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    run_mismatch = []
    if recorded.get(str(args.seed), digest) != digest:
        run_mismatch.append(f"digest {digest} differs from the recorded one")
    if len({d for _, _, d in setups}) != 1:
        run_mismatch.append("set-up in a fresh process built different inputs")
    if run_mismatch:
        failed = attempted
    failed = min(failed, attempted)

    latencies = [x for p in passes for x in p["latencies"]]
    ref_latencies = [x for p in passes for x in p["ref_latencies"]]
    if args.trace:
        untraced_passes = [p for p in passes if not p["traced"]]
        traced_passes = [p for p in passes if p["traced"]]
        traced_units = [i for i, p in enumerate(passes) if p["traced"]]
        exit_mismatch = prepared.cli.exit_mismatch if prepared.cli else 0
        metrics = layer_metrics(tracer.spans, traced_units, exit_mismatch,
                                typical_pass_s(traced_passes) - typical_pass_s(untraced_passes))
        spans_file = out_path(args, "spans")
        spans_file.write_text(json.dumps([s.to_list() for s in tracer.spans]))
    else:
        if prepared.cli:
            rss_kb = prepared.cli.max_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (median(r for _, r, _ in setups), "s"),
            "wall_s": (typical_pass_s(passes), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        raw = {"setup_s": median(s for s, _, _ in setups),
               "wall_s": median(p["wall"] for p in passes)}

    print(f"machine python={host['python']} nproc={host['nproc']} "
          f"loadavg={' '.join(f'{x:.2f}' for x in host['loadavg'])}")
    print(f"workload {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} tasks_per_pass={len(prepared.tasks)} samples={len(latencies)}")
    print(f"digest {digest}")
    for problem in run_mismatch:
        print(f"FAIL {problem}")
    for p in passes:
        for ok, rec in zip(p["oks"], p["records"]):
            if not ok:
                print(f"FAIL {rec.splitlines()[0]}")
    print(f"fail_frac {failed / attempted} ({failed}/{attempted})")
    print(f"slowdown {median(p['slowdown'] for p in passes)} (median over passes)")
    # Task latency percentiles are shown, not gated: on a workload of five
    # or nine distinct tasks they rest on one task's few samples.
    for label, sample in (("task_ms", ref_latencies), ("raw task_ms", latencies)):
        deciles = quantiles(sample, n=10)
        print(f"{label} p50={deciles[4] * 1000:.6g} p90={deciles[8] * 1000:.6g}")
    if not args.trace:
        print("raw " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, machine=host, workload=args.workload, seed=args.seed,
                  trace=args.trace, digest=digest, pass_walls=[p["wall"] for p in passes],
                  pass_slowdowns=[p["slowdown"] for p in passes],
                  setup_samples=[s for s, _, _ in setups],
                  setup_ref_samples=[r for _, r, _ in setups])
    out_path(args, "result").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def out_path(args, kind: str) -> Path:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    return out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{kind}.json"


if __name__ == "__main__":
    sys.exit(main())
