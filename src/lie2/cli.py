"""Command-line entry point: verify / describe / replay.

Exit codes: 0 all suites passed, 1 at least one residual failure (or, on
replay, a witness that replays to NaN or to anything but its entry's
``max_residual``), 2 configuration or input error.  A report with no
witnesses replays with exit 0.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from .liealg import InputError
from .replay import replay_report
from .suites import MAX_DEGREE, RunConfig, describe, report_json, run


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ``RunConfig`` field; the defaults are ``RunConfig``'s, so
    a flag that is not given is left out of the namespace."""
    parser.add_argument("--algebra", help="bundled name (su2, so3, sl2) or JSON file path")
    parser.add_argument("--k", type=float, help="extension level")
    parser.add_argument("--degree", type=int, help="base polynomial degree of sampled paths")
    parser.add_argument("--splitting", help="'linear' or comma-separated u-coefficients, "
                        f"at most {MAX_DEGREE + 1}")
    parser.add_argument("--nt", type=int, help="grid intervals in t")
    parser.add_argument("--ntheta", type=int, help="grid intervals in theta")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--tol-exact", type=float,
                        help="tolerance for exact-arithmetic identities")
    parser.add_argument("--tol-quad", type=float,
                        help="tolerance for quadrature-based identities")
    parser.add_argument("--suite", dest="suites", action="append", metavar="SUITE",
                        help="suite name (repeatable); default all")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = {key: value for key, value in vars(args).items()
             if key not in ("command", "report")}
    if "suites" in given:
        given["suites"] = tuple(given["suites"])
    return RunConfig(**given)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lie2",
        description="certify the algebraic identities of the path/loop "
                    "models of categorified Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites",
                              argument_default=argparse.SUPPRESS)
    # argparse's own pattern for negative numbers has no exponent, so it takes
    # '-1e12' for an option; read '-' followed by a digit as a value instead
    p_verify._negative_number_matcher = re.compile(r"-\.?\d")
    _add_config_flags(p_verify)
    p_verify.add_argument("--report", type=Path, default=None,
                          help="write the JSON report here")

    p_describe = sub.add_parser("describe", help="print what a suite checks")
    p_describe.add_argument("suite_name", metavar="SUITE")

    p_replay = sub.add_parser("replay", help="re-evaluate witnesses from a report")
    p_replay.add_argument("--report", type=Path, required=True)
    return parser


def _print_table(report: dict) -> None:
    width = max(len(s["name"]) for s in report["suites"])
    print(f"{'suite':<{width}}  {'residual':>12}  {'tolerance':>10}  status")
    for s in report["suites"]:
        status = "PASS" if s["passed"] else "FAIL"
        print(f"{s['name']:<{width}}  {s['max_residual']:>12.3e}"
              f"  {s['tolerance']:>10.1e}  {status}")
    summary = report["summary"]
    print(f"{summary['passed']}/{summary['total']} suites passed "
          f"in {summary['wall_time_s']:.2f}s")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command == "describe":
            print(describe(args.suite_name))
            return 0
        if args.command == "replay":
            rows = replay_report(args.report)
            if not rows:
                print("report contains no witnesses to replay")
                return 0
            for name, residual, _ in rows:
                print(f"{name}: replayed residual {residual:.6e}")
            # a NaN fails on its own; any other residual must equal its entry's
            differ = [(name, residual, reported) for name, residual, reported in rows
                      if not math.isnan(residual) and residual != reported]
            for name, residual, reported in differ:
                print(f"{name}: does not reproduce its report: replayed {residual!r}, "
                      f"reported {reported!r}")
            return 1 if differ or any(math.isnan(residual) for _, residual, _ in rows) else 0
        # verify
        report = run(_config_from_args(args))
        _print_table(report)
        if args.report is not None:
            try:
                args.report.write_text(report_json(report), encoding="utf-8")
            except OSError as exc:
                raise InputError(f"cannot write report {args.report}: {exc}") from exc
            print(f"report written to {args.report}")
        return 0 if report["summary"]["all_passed"] else 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
