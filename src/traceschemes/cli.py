"""Batch command-line front end.

Subcommands: construct, verify, bound, search, trace, own-subsets,
check-witness, stats.  Exit codes: 0 the property holds or the command
succeeded, 1 the property is violated (witness on stdout), 2 usage or
format error, 3 inconclusive (work budget or certified-mode gap).
Diagnostics go to stderr; machine-readable results to stdout.  Output is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from math import comb
from pathlib import Path

from . import bounds as bounds_mod
from . import construct as construct_mod
from . import oracle as oracle_mod
from . import verify as verify_mod
from .core import (
    DEFAULT_BUDGET,
    DEFAULT_SEARCH_BUDGET,
    ParamsInvalid,
    SchemeError,
    SchemeParams,
    _own_subsets,
    parse_set_system,
    render_set_system,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _load_system(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_set_system(text)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _extend(args):
    base = _load_system(args.base)
    system, cert = construct_mod.extend_design(base, args.d, args.t)
    print(f"certificate: d={cert.d} t={cert.t} tau={cert.tau} "
          f"base=from-file {cert.tau}-({base.v},{base.w},1)", file=sys.stderr)
    return system


# family -> (the flags it reads, the builder).  Every flag but --budget
# (default construct.DEFAULT_BUDGET) is then required; any other is refused.
_FAMILIES = {
    "trivial": (("v", "w", "budget"), lambda a: construct_mod.trivial_ts(a.v, a.w, a.budget)),
    "pg-lines": (("n", "q", "budget"), lambda a: construct_mod.pg_lines(a.n, a.q, a.budget)),
    "ag-lines": (("n", "q", "budget"), lambda a: construct_mod.ag_lines(a.n, a.q, a.budget)),
    "inversive": (("q", "budget"), lambda a: construct_mod.inversive_plane(a.q, a.budget)),
    "hermitian": (("q", "budget"), lambda a: construct_mod.hermitian_unital(a.q, a.budget)),
    "greedy": (("v", "w", "t", "budget"),
               lambda a: construct_mod.greedy_packing_ts(a.v, a.w, a.t, budget=a.budget)),
    "extend": (("base", "d", "t"), _extend),
}
_CONSTRUCT_FLAGS = ("v", "w", "n", "q", "t", "d", "base", "budget")


def _cmd_construct(args) -> int:
    fam = args.family
    reads, build = _FAMILIES[fam]
    for flag in _CONSTRUCT_FLAGS:
        if flag not in reads and getattr(args, flag) is not None:
            raise SchemeError(f"family {fam!r} does not read --{flag}")
    missing = [f for f in reads if f != "budget" and getattr(args, f) is None]
    if missing:
        raise SchemeError(f"family {fam!r} needs --" + ", --".join(missing))
    if args.budget is None:
        args.budget = construct_mod.DEFAULT_BUDGET
    system = build(args)
    _write_output(render_set_system(system), args.output)
    print(f"constructed {fam}: v={system.v} w={system.w} m={system.m}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    prop = args.property
    if args.mode == "certified" and prop != "ts":
        raise SchemeError(f"certified mode applies to ts only, not {prop}")
    if args.lam is not None and prop != "design":
        raise SchemeError(f"--lambda applies to design only, not {prop}")
    by_tau = prop in ("design", "packing")
    if args.tau is not None and not by_tau:
        raise SchemeError(f"--tau applies to design and packing only, not {prop}")
    if args.t is not None and by_tau:
        raise SchemeError(f"--t applies to ts, ipps, ipps-star and cff only, not {prop}")
    system = _load_system(args.file)
    budget = args.budget
    if by_tau:
        if args.tau is None:
            raise SchemeError(f"--tau is required for property {prop}")
        if prop == "design":
            lam = args.lam if args.lam is not None else 1
            outcome = verify_mod.verify_design(system, args.tau, lam, budget)
        else:
            outcome = verify_mod.verify_packing(system, args.tau, budget)
        label = f"property={prop} tau={args.tau}"
    else:
        if args.t is None:
            raise SchemeError(f"--t is required for property {prop}")
        if prop == "ts":
            # auto: certified first, exhaustive fall-through on what is left
            # of the budget; work= counts both
            first = verify_mod.EXHAUSTIVE if args.mode == "exhaustive" else verify_mod.CERTIFIED
            outcome = verify_mod.verify_ts(system, args.t, first, budget)
            if args.mode == "auto" and outcome.inconclusive:
                spent = outcome.work
                outcome = verify_mod.verify_ts(system, args.t, verify_mod.EXHAUSTIVE,
                                               max(0, budget - spent))
                outcome = outcome._replace(work=spent + outcome.work)
        elif prop == "ipps":
            outcome = verify_mod.verify_ipps(system, args.t, budget)
        elif prop == "ipps-star":
            outcome = verify_mod.verify_ipps_star(system, args.t, budget)
        else:
            outcome = verify_mod.verify_cff(system, args.t, budget)
        label = f"property={prop} t={args.t}"
    print(f"verify {label} mode={outcome.mode} verdict={outcome.verdict} work={outcome.work}")
    if outcome.detail:
        print(f"detail: {outcome.detail}", file=sys.stderr)
    if outcome.violated:
        if outcome.witness is not None:
            sys.stdout.write(verify_mod.render_witness(outcome.witness))
        elif outcome.detail:
            print(outcome.detail)
        return EXIT_VIOLATED
    if outcome.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_bound(args) -> int:
    params = SchemeParams(t=args.t, w=args.w, v=args.v)
    report = bounds_mod.bound_report(params, args.scheme)
    sys.stdout.write(bounds_mod.render_bound_report(report))
    summary = f"range [{report.lower}, {report.upper if report.upper is not None else 'inf'}]"
    if report.exact is not None:
        summary = f"exact {report.exact}"
    print(f"bound scheme={args.scheme} t={args.t} w={args.w} v={args.v} {summary}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_search(args) -> int:
    params = SchemeParams(t=args.t, w=args.w, v=args.v)
    result = oracle_mod.exhaustive_optimal(params, args.property, budget=args.budget)
    flag = "yes" if result.complete else "no"
    print(f"search property={args.property} t={args.t} w={args.w} v={args.v} "
          f"optimum={result.optimum} complete={flag} nodes={result.nodes_explored}")
    sys.stdout.write(render_set_system(result.witness_family))
    return EXIT_OK if result.complete else EXIT_INCONCLUSIVE


def _cmd_trace(args) -> int:
    system = _load_system(args.file)
    if args.t < 2:
        raise ParamsInvalid(f"strength t={args.t} must be >= 2")
    if args.kind == "ts-from-cff":
        cff = verify_mod.verify_cff(system, args.t * args.t, args.budget)
        if cff.holds:
            print("trace ts-from-cff unreachable: no block is covered by "
                  f"{args.t * args.t} others")
            return EXIT_OK
        if cff.inconclusive:
            print("cover search exceeded its budget", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        trace = oracle_mod.ts_violation_from_cff_failure(system, args.t, cff.witness)
        sys.stdout.write(oracle_mod.render_trace_ts(trace))
        return EXIT_INCONCLUSIVE if isinstance(trace, oracle_mod.TraceBlocked) else EXIT_OK
    trace = oracle_mod.ipps_violation_from_missing_own_subsets(system, args.t, args.budget)
    sys.stdout.write(oracle_mod.render_trace_ipps(trace))
    return EXIT_INCONCLUSIVE if isinstance(trace, oracle_mod.TraceBlocked) else EXIT_OK


def _cmd_own_subsets(args) -> int:
    system = _load_system(args.file)
    left = args.budget  # one work unit per tau-subset tested, a block's all at once
    for i in range(system.m) if args.block is None else (args.block,):
        subsets = _own_subsets(system, i, args.tau)  # checks the block index and tau
        tests = comb(system.w, args.tau)
        if tests > left:
            print(f"budget exceeded: block {i} has {tests} {args.tau}-subsets to test, "
                  f"{left} work units left", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        left -= tests
        if args.block is None:  # counted one at a time, so no block's subsets are kept
            print(f"block {i} tau={args.tau} count={sum(1 for _ in subsets)}")
        else:
            own = list(subsets)
            print(f"block {i} tau={args.tau} count={len(own)}")
            for sub in own:
                print("own " + " ".join(map(str, sub)))
    return EXIT_OK


def _cmd_check_witness(args) -> int:
    system = _load_system(args.system)
    text = Path(args.witness).read_text(encoding="utf-8")
    witness = verify_mod.parse_witness(text)
    ok, why = verify_mod.check_witness(system, witness)
    print(f"witness {'valid' if ok else 'invalid'}: {why}")
    return EXIT_OK if ok else EXIT_VIOLATED


def _cmd_stats(args) -> int:
    system = _load_system(args.file)
    print(f"stats v={system.v} w={system.w} m={system.m}")
    cols = verify_mod._point_columns(system)
    if system.m >= 2:
        lo, hi = system.w, 0
        every = (1 << system.m) - 1
        for i, planes in enumerate(verify_mod._overlaps(system, verify_mod._Work(), cols)):
            hi = max(hi, verify_mod._largest(planes))
            lo = min(lo, verify_mod._least(planes, every & ~(1 << i)))
        print(f"pair-intersections min={lo} max={hi}")
    degrees = list(map(int.bit_count, cols))
    if system.v:
        print(f"point-degrees min={min(degrees)} max={max(degrees)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traceschemes",
        description="Construct, verify and bound anti-collusion key-distribution set systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a set system")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    for flag in _CONSTRUCT_FLAGS:
        p.add_argument(f"--{flag}", type=None if flag == "base" else int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="decide a property of a set system")
    p.add_argument("--property", required=True,
                   choices=["ts", "ipps", "ipps-star", "cff", "design", "packing"])
    p.add_argument("--t", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--mode", choices=["auto", "exhaustive", "certified"], default="auto")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="tabulate size bounds for given parameters")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--scheme", choices=["ts", "ipps", "cff"], default="ts")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("search", help="exhaustive optimum on tiny parameters")
    p.add_argument("--property", required=True, choices=["ts", "ipps", "cff"])
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("trace", help="replay a violation-building procedure")
    p.add_argument("--kind", required=True, choices=["ts-from-cff", "ipps-own-subsets"])
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("file")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("own-subsets", help="count own-subsets per block")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--block", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("file")
    p.set_defaults(func=_cmd_own_subsets)

    p = sub.add_parser("check-witness", help="re-validate a rendered witness")
    p.add_argument("system")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_check_witness)

    p = sub.add_parser("stats", help="basic facts about a set-system file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if (getattr(args, "budget", None) or 0) < 0:
            raise ParamsInvalid(f"--budget must be >= 0, got {args.budget}")
        return args.func(args)
    except (SchemeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # malformed input must never escape as a traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
