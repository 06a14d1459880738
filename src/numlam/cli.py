"""Command-line front door.

Commands: eval, numeral, check, head, eq, definable.  Results go to stdout,
diagnostics to stderr.  Exit codes: 0 success/pass (and --help), 1 failure or
bad input (a usage or syntax error, a bad --defs file, an unknown system, a
negative index or --upto, or --fuel below 1, each with a one-line message),
2 out of fuel, 3 inconclusive (fuel ran out inside a check, the check had no
cases, or the requested combinator is absent).  `eq` exits 0 on Equal, 1 on
Distinct and 3 on Unknown.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from itertools import chain, islice, product

from . import harness
from .numerals import SYSTEM_NAMES, UnknownSystemError, builtin_system
from .parser import DuplicateNameError, ParseError, Program, parse_program, parse_term, pretty
from .reduction import DEFAULT_MAX_STEPS, Fuel, Normal, beta_eta_normalize, head_reduce
from .report import REPORT_FORMAT, beta_eta_eq
from .terms import F, I, T

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_FUEL = 2
EXIT_INCONCLUSIVE = 3

# The three contract slots, by the name `check` takes: the prefix of their
# prelude names, the NumeralSystem field and the harness check.
_SLOTS = {
    "succ": ("S", "successor", harness.check_successor),
    "pred": ("P", "predecessor", harness.check_predecessor),
    "zero": ("Z", "zero_test", harness.check_zero_test),
}


def prelude() -> Program:
    """Named combinators usable in terms given on the command line."""
    defs = [("I", I), ("T", T), ("F", F)]
    for name in SYSTEM_NAMES:
        system = builtin_system(name)
        for prefix, field, _ in _SLOTS.values():
            term = getattr(system, field)
            if term is not None:
                defs.append((f"{prefix}_{name}", term))
    return Program(tuple(defs))


class _DefsError(Exception):
    """A syntax error or a duplicate name in a --defs file; the message
    names the file, line and column."""


def _environment(args) -> Program:
    base = prelude() if args.prelude else None
    if args.defs:
        # utf-8-sig drops a byte-order mark that an editor may have written.
        with open(args.defs, encoding="utf-8-sig") as handle:
            text = handle.read()
        try:
            return parse_program(text, base)
        except (ParseError, DuplicateNameError) as err:
            at = err.position
            line = text.count("\n", 0, at) + 1
            column = at - text.rfind("\n", 0, at)
            kind = "syntax" if isinstance(err, ParseError) else "definition"
            raise _DefsError(f"{args.defs}:{line}:{column}: {kind} error: {err}") from None
    return base or Program()


def _emit(args, payload: dict, text_lines: Iterable[str]) -> None:
    """Print payload as JSON, after the report format, or the text lines."""
    if args.json:
        print(json.dumps({"format": REPORT_FORMAT, **payload}, indent=2))
    else:
        for line in text_lines:
            print(line)


def _report_lines(title: str, report) -> list[str]:
    """The summary line of a report, then one line for each case that did
    not pass."""
    lines = [f"{title}: {report.overall} ({report.passed} passed, "
             f"{report.failed} failed, {report.unknown} unknown)"]
    for case in report.cases:
        if not case.ok:
            detail = f"  {case.label}: {case.verdict}"
            if case.witness:
                detail += f" [{case.witness}]"
            lines.append(detail)
    return lines


def _exit_code(overalls: list[str]) -> int:
    """Any fail fails; otherwise anything inconclusive is inconclusive."""
    if "fail" in overalls:
        return EXIT_FAIL
    if "inconclusive" in overalls:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def cmd_eval(args) -> int:
    term = parse_term(args.term, _environment(args))
    out = beta_eta_normalize(term, Fuel(args.fuel))
    if isinstance(out, Normal):
        text = pretty(out.term)
        payload = {"status": "normal", "term": text, "steps": out.steps,
                   "eta_steps": out.eta_steps}
        _emit(args, payload, [text, f"steps: {out.steps} beta, {out.eta_steps} eta"])
        return EXIT_PASS
    payload = {"status": "out_of_fuel"}
    if args.json:
        # Only the JSON report shows the partial term.
        payload["term"] = pretty(out.term)
    payload["steps"] = out.steps
    _emit(args, payload, [f"out of fuel after {out.steps} steps"])
    return EXIT_FUEL


def cmd_numeral(args) -> int:
    system = builtin_system(args.system)
    try:
        term = system.numeral(args.n)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return EXIT_FAIL
    text = pretty(term)
    payload = {"system": args.system, "n": args.n, "term": text}
    _emit(args, payload, [text])
    return EXIT_PASS


def cmd_check(args) -> int:
    system = builtin_system(args.system)
    fuel = Fuel(args.fuel)
    wanted = _SLOTS if args.which == "all" else (args.which,)
    reports = []
    lines = []
    overalls = []
    for which in wanted:
        _, field, check = _SLOTS[which]
        term = getattr(system, field)
        if term is None:
            reports.append({"which": which, "absent": True})
            lines.append(f"{which}: absent")
            overalls.append("inconclusive")
            continue
        report = check(system, term, args.upto, fuel)
        reports.append({"which": which, **report.to_dict()})
        lines += _report_lines(which, report)
        overalls.append(report.overall)
    payload = {"system": args.system, "upto": args.upto, "reports": reports}
    _emit(args, payload, lines)
    return _exit_code(overalls)


def cmd_head(args) -> int:
    term = parse_term(args.term, _environment(args))
    result = head_reduce(term, Fuel(args.fuel))
    trace = result.trace
    final = pretty(trace.final)
    status = "hnf" if result.reached_hnf else "out_of_fuel"
    payload = {"status": status, "h": trace.length, "final": final}
    lines = [final, f"h = {trace.length}" if result.reached_hnf
             else f"out of fuel after {trace.length} head steps"]
    if args.trace:
        # Each state's text is made as it is read: text mode prints one
        # state before it builds the next.
        states = map(pretty, islice(trace, trace.length))
        if args.json:
            payload["states"] = [*states, final]
        else:
            lines = chain(states, lines)
    _emit(args, payload, lines)
    return EXIT_PASS if result.reached_hnf else EXIT_FUEL


def cmd_eq(args) -> int:
    env = _environment(args)
    left = parse_term(args.left, env)
    right = parse_term(args.right, env)
    verdict = beta_eta_eq(left, right, Fuel(args.fuel))
    payload = {"verdict": verdict.kind, "reason": verdict.reason}
    _emit(args, payload, [str(verdict)])
    if verdict.is_equal:
        return EXIT_PASS
    if verdict.is_distinct:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


_FUNCTIONS = {
    "id": (harness.NumericFunction(1, lambda n: n), harness.DEFAULT_UPTO),
    "succ": (harness.NumericFunction(1, lambda n: n + 1), harness.DEFAULT_UPTO),
    "step01": (harness.NumericFunction(1, lambda n: 0 if n == 0 else 1), harness.DEFAULT_UPTO),
    "k": (harness.k_function(), 11),  # binary: the grid grows quadratically
}


def cmd_definable(args) -> int:
    system = builtin_system(args.system)
    term = parse_term(args.term, _environment(args))
    fn, default_upto = _FUNCTIONS[args.fn]
    upto = args.upto if args.upto is not None else default_upto
    points = list(product(range(upto), repeat=fn.arity))
    report = harness.check_definable(system, term, fn, points, Fuel(args.fuel))
    payload = {"system": args.system, "fn": args.fn, "upto": upto,
               "reports": [report.to_dict()]}
    _emit(args, payload, _report_lines(f"{args.fn} on {args.system}", report))
    return _exit_code([report.overall])


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        # One line, and not argparse's exit code 2, which means out of fuel.
        self.exit(EXIT_FAIL, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    fueled = argparse.ArgumentParser(add_help=False)
    fueled.add_argument("--fuel", type=int, default=DEFAULT_MAX_STEPS,
                        help="maximum beta steps per reduction (default %(default)s)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    # The system comes first among the positional arguments of a command.
    named = argparse.ArgumentParser(add_help=False)
    named.add_argument("system", metavar="{" + ",".join(SYSTEM_NAMES) + "}")

    terms = argparse.ArgumentParser(add_help=False)
    terms.add_argument("--defs", metavar="PATH",
                       help="definition file whose names are inlined into terms")
    terms.add_argument("--prelude", action="store_true",
                       help="preload I, T, F and the built-in S/P/Z combinators")

    parser = _ArgumentParser(
        prog="numlam",
        description="Workbench for numeral systems in the untyped lambda calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[fueled, common, terms],
                       help="beta-eta-normalize a term")
    p.add_argument("term")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("numeral", parents=[named, common],
                       help="print the n-th numeral of a system")
    p.add_argument("n", type=int)
    p.set_defaults(run=cmd_numeral)

    p = sub.add_parser("check", parents=[named, fueled, common],
                       help="run the combinator contracts of a built-in system")
    p.add_argument("which", choices=("all", *_SLOTS))
    p.add_argument("--upto", type=int, default=harness.DEFAULT_UPTO,
                   help="check indices below this bound (default %(default)s)")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("head", parents=[fueled, common, terms],
                       help="head-reduce a term and report the length")
    p.add_argument("term")
    p.add_argument("--trace", action="store_true",
                   help="print every intermediate state")
    p.set_defaults(run=cmd_head)

    p = sub.add_parser("eq", parents=[fueled, common, terms],
                       help="decide beta-eta-equality of two terms (with fuel)")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(run=cmd_eq)

    p = sub.add_parser("definable", parents=[named, fueled, common, terms],
                       help="check that a term defines a named numeric function")
    p.add_argument("term")
    p.add_argument("--fn", choices=sorted(_FUNCTIONS), required=True,
                   help="function to check against")
    p.add_argument("--upto", type=int, default=None,
                   help=f"bound for the point grid (default {harness.DEFAULT_UPTO}, "
                        f"or {_FUNCTIONS['k'][1]} for k)")
    p.set_defaults(run=cmd_definable)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:  # a usage error, or --help
        return exit_.code
    if getattr(args, "fuel", 1) < 1:
        print("fuel must be at least 1", file=sys.stderr)
        return EXIT_FAIL
    if getattr(args, "upto", None) is not None and args.upto < 0:
        print("upto must be at least 0", file=sys.stderr)
        return EXIT_FAIL
    try:
        return args.run(args)
    except ParseError as err:
        print(f"syntax error: {err}", file=sys.stderr)
        return EXIT_FAIL
    except (_DefsError, UnknownSystemError, OSError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_FAIL
    except UnicodeDecodeError as err:
        print(f"{args.defs}: not UTF-8 text ({err})", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
