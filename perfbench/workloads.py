"""The benchmark's workloads: seeded inputs, closed-loop tasks and known answers.

Every workload turns a seed into a fixed list of tasks.  A task has a
``run`` step, which is the timed call into traceschemes, and a ``check``
step, untimed, which compares the output with the answer known from the
input's construction and returns the text that goes into the run digest.
The seed only relabels, plants and orders; the program sees nothing but
the generated systems and files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

from traceschemes import construct, core, oracle, verify

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 120
DECIDERS = {"ts": "verify_ts", "ipps": "verify_ipps", "ipps_star": "verify_ipps_star",
            "cff": "verify_cff"}


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]


@dataclass
class Prepared:
    tasks: list[Task]
    inputs_digest: str
    cli: Cli | None = None


def _decide(prop: str, s, t: int):
    # Looked up at call time so that the traced run's wrappers are used.
    return getattr(verify, DECIDERS[prop])(s, t)


def _digest(systems) -> str:
    return hashlib.sha256(repr([(s.v, s.blocks) for s in systems]).encode()).hexdigest()


def _bases() -> dict:
    return {
        "trivial": construct.trivial_ts(30, 5),
        "extend": construct.extend_design(construct.pg_lines(2, 4), 1, 2)[0],
        "hermitian": construct.hermitian_unital(4),
        "pg24": construct.pg_lines(2, 4),
        "ag25": construct.ag_lines(2, 5),
        "pg33": construct.pg_lines(3, 3),
    }


def relabel(s, rng: random.Random):
    """The same system under a random point permutation."""
    perm = list(range(s.v))
    rng.shuffle(perm)
    return core.new_set_system(s.v, [sorted(perm[p] for p in b) for b in s.blocks])


def plant(s, rng: random.Random, k: int = 0, n: int = 1):
    """Add one new block P inside the union of two existing blocks B1, B2.

    P is covered by B1 and B2, so the result is no t-CFF (t >= 2); {B1, B2}
    and {P} are disjoint parent sets of P, so it is no 2-IPPS; and coalition
    {B1, B2} can build P, which outsider P matches in all w points, so it is
    no 2-TS.

    P starts with the first half of B1, so it sorts next to B1, and B2 comes
    after B1.  Variant k of n takes B1 from the k-th n-th of the block order:
    where the first witness lies then spreads evenly over the variants, and
    a pass costs about the same for every seed.
    """
    i = int((k + rng.random()) * (s.m - 1) / n)
    j = rng.randrange(i + 1, s.m)
    b1, b2 = s.blocks[i], s.blocks[j]
    head = b1[:(s.w + 1) // 2]
    rest = sorted((set(b1) | set(b2)) - set(head))
    while True:
        block = tuple(sorted(head + tuple(rng.sample(rest, s.w - len(head)))))
        if block not in (b1, b2):
            return core.new_set_system(s.v, [*s.blocks, block])


def complete(v: int, w: int):
    """All w-subsets of a v-set: violates every property at t = 2."""
    return core.new_set_system(v, list(combinations(range(v), w)))


def decision_task(name: str, prop: str, s, t: int, expected: str) -> Task:
    def run():
        return _decide(prop, s, t)

    def check(out):
        return out.verdict == expected, out.verdict

    return Task(name, run, check)


def witness_task(name: str, prop: str, s, t: int) -> Task:
    """A violated decision whose witness is rendered, parsed and re-validated."""

    def run():
        out = _decide(prop, s, t)
        if out.witness is None:
            return out, "", None, (False, "no witness")
        text = verify.render_witness(out.witness)
        parsed = verify.parse_witness(text)
        return out, text, parsed, verify.check_witness(s, parsed)

    def check(res):
        out, text, parsed, (valid, _why) = res
        return out.violated and parsed == out.witness and valid, f"{out.verdict}\n{text}"

    return Task(name, run, check)


def ts_trace_task(name: str, s, t: int) -> Task:
    """Cover witness at strength t*t, then the cover-to-evasion construction."""

    def run():
        cover = verify.verify_cff(s, t * t)
        trace = oracle.ts_violation_from_cff_failure(s, t, cover.witness)
        done = isinstance(trace, oracle.ProofTraceTs)
        return trace, done and verify.check_witness(s, trace.evasion)[0]

    def check(res):
        trace, valid = res
        done = isinstance(trace, oracle.ProofTraceTs)
        return valid or not done, oracle.render_trace_ts(trace)

    return Task(name, run, check)


def ipps_trace_task(name: str, s, t: int, completes: bool) -> Task:
    def run():
        trace = oracle.ipps_violation_from_missing_own_subsets(s, t)
        done = isinstance(trace, oracle.ProofTraceIpps)
        return trace, done and verify.check_witness(s, trace.ambiguity)[0]

    def check(res):
        trace, valid = res
        done = isinstance(trace, oracle.ProofTraceIpps)
        return done == completes and (valid or not done), oracle.render_trace_ipps(trace)

    return Task(name, run, check)


# ---------------------------------------------------------------------------
# verify-holds: full scans, every quantifier runs to the end

# Nine instances: with an odd count the median task latency is the middle
# instance's own median, not an average across two different instances.
HOLDS = [("ts", "trivial", 3), ("ts", "extend", 2), ("ts", "hermitian", 2), ("ts", "pg24", 2),
         ("ipps", "pg24", 2), ("ipps", "ag25", 2), ("ipps_star", "pg24", 2),
         ("cff", "hermitian", 3), ("cff", "pg33", 3)]


def setup_verify_holds(seed: int, workdir: Path) -> Prepared:
    rng = random.Random(f"verify-holds/{seed}")
    bases = _bases()
    systems, tasks = [], []
    for prop, base, t in HOLDS:
        s = relabel(bases[base], rng)
        systems.append(s)
        tasks.append(decision_task(f"{prop}/{base}/t{t}", prop, s, t, verify.HOLDS))
    _decide("cff", bases["pg33"], 2)  # warm-up
    return Prepared(tasks, _digest(systems))


# ---------------------------------------------------------------------------
# verify-violated: early exit at the first canonical witness, witness I/O

# Many planted variants per pass, so that where the first witness happens to
# lie averages out and a pass costs about the same for every seed.
VIOLATED = [("ts", "trivial", 3, 48), ("ts", "extend", 2, 48), ("ts", "hermitian", 2, 48),
            ("ipps", "pg24", 2, 24), ("ipps", "ag25", 2, 24), ("ipps_star", "pg24", 2, 24),
            ("cff", "hermitian", 2, 48), ("cff", "pg33", 2, 48)]
DENSE = [(7, 3), (8, 3), (8, 4), (9, 3)]
TS_TRACE_BASES = ("trivial", "extend", "pg24", "ag25", "pg33")
TRACE_VARIANTS = 8


def setup_verify_violated(seed: int, workdir: Path) -> Prepared:
    rng = random.Random(f"verify-violated/{seed}")
    bases = _bases()
    systems, tasks = [], []
    for prop, base, t, count in VIOLATED:
        for k in range(count):
            s = plant(relabel(bases[base], rng), rng, k, count)
            systems.append(s)
            tasks.append(witness_task(f"{prop}/{base}+1/t{t}/{k}", prop, s, t))
    for v, w in DENSE:
        s = complete(v, w)
        systems.append(s)
        for prop in DECIDERS:
            tasks.append(witness_task(f"{prop}/complete{v}.{w}/t2", prop, s, 2))
        tasks.append(ts_trace_task(f"trace-ts/complete{v}.{w}", s, 2))
        tasks.append(ipps_trace_task(f"trace-ipps/complete{v}.{w}", s, 2, completes=True))
    for base in TS_TRACE_BASES:
        for k in range(TRACE_VARIANTS):
            s = plant(relabel(bases[base], rng), rng, k, TRACE_VARIANTS)
            systems.append(s)
            tasks.append(ts_trace_task(f"trace-ts/{base}+1/{k}", s, 2))
    for k in range(TRACE_VARIANTS):
        # A planted linear space keeps own 2-subsets, so the precondition fails.
        s = plant(relabel(bases["pg24"], rng), rng, k, TRACE_VARIANTS)
        systems.append(s)
        tasks.append(ipps_trace_task(f"trace-ipps/pg24+1/{k}", s, 2, completes=False))
    rng.shuffle(tasks)
    _decide("ts", complete(7, 3), 2)  # warm-up
    return Prepared(tasks, _digest(systems))


# ---------------------------------------------------------------------------
# search: exhaustive optimum and bound cross-check on a fixed grid

SEARCH_GRID = [("ts", 2, 4, 8, 5), ("ts", 2, 5, 8, 4), ("ipps", 2, 3, 7, 5),
               ("ipps", 2, 4, 7, 4), ("cff", 2, 3, 7, 7)]


def search_task(prop: str, t: int, w: int, v: int, optimum: int) -> Task:
    params = core.SchemeParams(t=t, w=w, v=v)

    def run():
        return oracle.cross_check_bounds(params, prop)

    def check(cc):
        ok = cc.complete and cc.consistent and cc.optimum == optimum
        return ok, (f"optimum={cc.optimum} complete={cc.complete} lower={cc.lower} "
                    f"upper={cc.upper} exact={cc.exact} consistent={cc.consistent}")

    return Task(f"search/{prop}/t{t}w{w}v{v}", run, check)


def setup_search(seed: int, workdir: Path) -> Prepared:
    grid = list(SEARCH_GRID)
    random.Random(f"search/{seed}").shuffle(grid)
    search_task(*SEARCH_GRID[-1]).run()  # warm-up: the cheapest grid point
    tasks = [search_task(*g) for g in grid]
    return Prepared(tasks, hashlib.sha256(repr(grid).encode()).hexdigest())


# ---------------------------------------------------------------------------
# cli-pipeline: one `python -m traceschemes` child at a time


class Cli:
    """Runs CLI children in ``workdir``; a traced pass runs them under tracechild."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.tracer = None
        self.max_rss_kb = 0
        self.exit_mismatch = 0
        self._spans = workdir / "child-spans.json"

    def python(self, args: list[str], span: str) -> tuple[int, str]:
        """Run ``python args`` to completion; returns (exit code, stdout)."""
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        tracer = self.tracer
        opened = tracer.open(span) if tracer else None
        with open(out_path, "wb") as out, open(err_path, "wb") as err, \
                subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                 cwd=self.workdir, env=self.env) as proc:
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer:
            tracer.close(opened)
            if args[0].endswith("tracechild.py") and self._spans.exists():
                tracer.adopt(json.loads(self._spans.read_text()), opened)
                self._spans.unlink()
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text()

    def traceschemes(self, args: list[str]) -> tuple[int, str]:
        span = "cli." + args[0].replace("-", "_")
        if self.tracer:
            child = [str(ROOT / "perfbench" / "tracechild.py"), str(self._spans)]
        else:
            child = ["-m", "traceschemes"]
        return self.python(child + args, span)


_WORK = re.compile(r" work=\d+")


def cli_task(cli: Cli, name: str, args: list[str], codes: tuple[int, ...],
             expect: str = "", save_to: str | None = None) -> Task:
    """One CLI child; ``expect`` must appear in stdout, exit code in ``codes``.

    ``save_to`` stores what a shell redirect would: a constructed system, or
    the witness that a violated verify prints after its verdict line.  Work
    counts are left out of the digest, since an algorithmic change may move
    them without changing any verdict.
    """

    def run():
        if args[0] == "-c":
            code, out = cli.python(args, "cli.startup")
        else:
            code, out = cli.traceschemes(args)
        if save_to:
            text = out.split("\n", 1)[1] if args[0] == "verify" else out
            (cli.workdir / save_to).write_text(text)
        return code, out

    def check(res):
        code, out = res
        if code not in codes:
            cli.exit_mismatch += 1
        return code in codes and expect in out, f"exit={code}\n{_WORK.sub('', out)}"

    return Task(name, run, check)


def big_packing(rng: random.Random, p: int = 67, w: int = 61, m: int = 1200):
    """m lines {(x, ax+b mod p): x < w} of a p-by-w grid, relabeled.

    Two distinct lines share at most one point, so with w = 61 the certified
    check settles strength 7 (pairwise intersections below ceil(61/49) = 2).
    """
    perm = list(range(w * p))
    rng.shuffle(perm)
    blocks = [sorted(perm[x * p + (a * x + b) % p] for x in range(w))
              for a, b in (divmod(line, p) for line in rng.sample(range(p * p), m))]
    return core.new_set_system(w * p, blocks)


def setup_cli_pipeline(seed: int, workdir: Path) -> Prepared:
    rng = random.Random(f"cli-pipeline/{seed}")
    files = {
        "planted_pg24.ss": plant(relabel(construct.pg_lines(2, 4), rng), rng),
        "planted_herm.ss": plant(relabel(construct.hermitian_unital(4), rng), rng),
        "complete73.ss": complete(7, 3),
        "complete83.ss": complete(8, 3),
        "big.ss": big_packing(rng),
    }
    for fname, s in files.items():
        (workdir / fname).write_text(core.render_set_system(s))
    cli = Cli(workdir)
    holds, violated = "mode=certified verdict=holds", "verdict=violated"
    # (name, arguments, accepted exit codes, text stdout must hold, file for stdout)
    steps = [
        ("construct/pg24", "construct --family pg-lines --n 2 --q 4", (0,), "setsystem", "pg24.ss"),
        ("construct/ag25", "construct --family ag-lines --n 2 --q 5", (0,), "setsystem", "ag25.ss"),
        ("construct/herm", "construct --family hermitian --q 4", (0,), "setsystem", "herm.ss"),
        ("construct/inv3", "construct --family inversive --q 3", (0,), "setsystem", "inv3.ss"),
        ("construct/greedy", "construct --family greedy --v 20 --w 5 --t 2", (0,), "setsystem",
         "greedy.ss"),
        ("construct/ext", "construct --family extend --base pg24.ss --d 1 --t 2", (0,), "setsystem",
         "ext.ss"),
        *[(f"verify/ts/{f}", f"verify --property ts --t 2 {f}.ss", (0,), holds, None)
          for f in ("pg24", "ag25", "herm", "greedy")],
        ("verify/ts/ext", "verify --property ts --t 2 ext.ss", (0,),
         "mode=exhaustive verdict=holds", None),
        ("verify/ts/inv3", "verify --property ts --t 2 inv3.ss", (1,), violated, "inv3.wit"),
        ("verify/ts/planted_pg24", "verify --property ts --t 2 planted_pg24.ss", (1,), violated,
         "ts.wit"),
        ("verify/ipps/planted_pg24", "verify --property ipps --t 2 planted_pg24.ss", (1,), violated,
         "ipps.wit"),
        ("verify/cff/planted_herm", "verify --property cff --t 2 planted_herm.ss", (1,), violated,
         "cff.wit"),
        *[(f"check-witness/{wit}", f"check-witness {system} {wit}.wit", (0,), "witness valid", None)
          for system, wit in (("inv3.ss", "inv3"), ("planted_pg24.ss", "ts"),
                              ("planted_pg24.ss", "ipps"), ("planted_herm.ss", "cff"))],
        *[(f"stats/{f}", f"stats {f}.ss", (0,), "stats v=", None)
          for f in ("pg24", "herm", "ext", "big")],
        *[(f"own-subsets/{f}", f"own-subsets --tau 2 {f}.ss", (0,), "block 0 ", None)
          for f in ("pg24", "herm")],
        *[(f"bound/{scheme}", f"bound --t 2 --w 5 --v 21 --scheme {scheme}", (0,), "", None)
          for scheme in ("ts", "ipps", "cff")],
        # The cover-to-evasion construction may report a blocked step (exit 3).
        ("trace/ts/planted_pg24", "trace --kind ts-from-cff --t 2 planted_pg24.ss", (0, 3),
         "trace ts-from-cff", None),
        ("trace/ts/complete73", "trace --kind ts-from-cff --t 2 complete73.ss", (0,), "evasion",
         None),
        ("trace/ipps/complete83", "trace --kind ipps-own-subsets --t 2 complete83.ss", (0,),
         "parent sets", None),
        ("trace/ipps/planted_pg24", "trace --kind ipps-own-subsets --t 2 planted_pg24.ss", (3,),
         "step precondition", None),
        ("verify/ts/big", "verify --property ts --t 7 big.ss", (0,), holds, None),
    ]
    tasks = [cli_task(cli, "startup", ["-c", "import traceschemes"], (0,))]
    tasks += [cli_task(cli, name, line.split(), codes, expect, save)
              for name, line, codes, expect, save in steps]
    cli.traceschemes(["bound", "--t", "2", "--w", "5", "--v", "21"])  # warm-up
    cli.max_rss_kb = 0
    return Prepared(tasks, _digest(files.values()), cli)


WORKLOADS = {
    "verify-holds": setup_verify_holds,
    "verify-violated": setup_verify_violated,
    "search": setup_search,
    "cli-pipeline": setup_cli_pipeline,
}
