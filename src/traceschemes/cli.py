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
from pathlib import Path

from . import bounds as bounds_mod
from . import construct as construct_mod
from . import oracle as oracle_mod
from . import verify as verify_mod
from .core import (
    SchemeError,
    SchemeParams,
    _ceil_div,
    enumerate_own_subsets,
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


def _cmd_construct(args) -> int:
    fam = args.family
    if fam == "trivial":
        _require(args, "v", "w")
        system = construct_mod.trivial_ts(args.v, args.w)
    elif fam == "pg-lines":
        _require(args, "n", "q")
        system = construct_mod.pg_lines(args.n, args.q)
    elif fam == "ag-lines":
        _require(args, "n", "q")
        system = construct_mod.ag_lines(args.n, args.q)
    elif fam == "inversive":
        _require(args, "q")
        system = construct_mod.inversive_plane(args.q)
    elif fam == "hermitian":
        _require(args, "q")
        system = construct_mod.hermitian_unital(args.q)
    elif fam == "greedy":
        _require(args, "v", "w", "t")
        system = construct_mod.greedy_packing_ts(args.v, args.w, args.t, budget=args.budget)
    elif fam == "extend":
        _require(args, "base", "d", "t")
        base = _load_system(args.base)
        desc = construct_mod.DesignDescriptor(
            family="from-file", tau=_ceil_div(base.w + args.d, args.t * args.t),
            v=base.v, w=base.w, detail=args.base)
        system, cert = construct_mod.extend_design(base, args.d, args.t, descriptor=desc)
        print(f"certificate: d={cert.d} t={cert.t} tau={cert.tau} "
              f"base={cert.base.family} {cert.base.tau}-({cert.base.v},{cert.base.w},1)",
              file=sys.stderr)
    else:  # pragma: no cover - argparse restricts choices
        raise SchemeError(f"unknown family {fam}")
    _write_output(render_set_system(system), args.output)
    print(f"constructed {fam}: v={system.v} w={system.w} m={system.m}", file=sys.stderr)
    return EXIT_OK


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise SchemeError(f"family {args.family!r} needs --" + ", --".join(missing))


def _cmd_verify(args) -> int:
    system = _load_system(args.file)
    prop = args.property
    budget = args.budget
    if prop in ("design", "packing"):
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
            if args.mode == "exhaustive":
                outcome = verify_mod.verify_ts(system, args.t, verify_mod.EXHAUSTIVE, budget)
            elif args.mode == "certified":
                outcome = verify_mod.verify_ts(system, args.t, verify_mod.CERTIFIED, budget)
            else:  # auto: certified first, exhaustive fall-through
                outcome = verify_mod.verify_ts(system, args.t, verify_mod.CERTIFIED, budget)
                if outcome.inconclusive:
                    outcome = verify_mod.verify_ts(system, args.t, verify_mod.EXHAUSTIVE, budget)
        else:
            if args.mode == "certified":
                raise SchemeError(f"certified mode applies to ts only, not {prop}")
            if prop == "ipps":
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
    trace = oracle_mod.ipps_violation_from_missing_own_subsets(system, args.t)
    sys.stdout.write(oracle_mod.render_trace_ipps(trace))
    return EXIT_INCONCLUSIVE if isinstance(trace, oracle_mod.TraceBlocked) else EXIT_OK


def _cmd_own_subsets(args) -> int:
    system = _load_system(args.file)
    indices = [args.block] if args.block is not None else range(system.m)
    for i in indices:
        report = enumerate_own_subsets(system, i, args.tau)
        print(f"block {i} tau={args.tau} count={report.count}")
        if args.block is not None:
            for sub in report.own_subsets:
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
    if system.m >= 2:
        # A running min and max: a list of all m(m-1)/2 pairs would be the
        # largest thing the command holds.
        lo, hi = system.w, 0
        for row in verify_mod._overlap_rows(system.masks):
            lo, hi = min(lo, *row), max(hi, *row)
        print(f"pair-intersections min={lo} max={hi}")
    degrees = [0] * system.v
    for b in system.blocks:
        for p in b:
            degrees[p] += 1
    if system.v:
        print(f"point-degrees min={min(degrees)} max={max(degrees)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traceschemes",
        description="Construct, verify and bound anti-collusion key-distribution set systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a set system")
    p.add_argument("--family", required=True,
                   choices=["trivial", "pg-lines", "ag-lines", "inversive",
                            "hermitian", "greedy", "extend"])
    p.add_argument("--v", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--base")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="decide a property of a set system")
    p.add_argument("--property", required=True,
                   choices=["ts", "ipps", "ipps-star", "cff", "design", "packing"])
    p.add_argument("--t", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--mode", choices=["auto", "exhaustive", "certified"], default="auto")
    p.add_argument("--budget", type=int, default=verify_mod.DEFAULT_BUDGET)
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
    p.add_argument("--budget", type=int, default=2_000_000)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("trace", help="replay a violation-building procedure")
    p.add_argument("--kind", required=True, choices=["ts-from-cff", "ipps-own-subsets"])
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int, default=verify_mod.DEFAULT_BUDGET)
    p.add_argument("file")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("own-subsets", help="count own-subsets per block")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--block", type=int)
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
        return args.func(args)
    except (SchemeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # malformed input must never escape as a traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
