"""Command-line entry point: manifest checks, the fixture gallery, and quick
expression evaluation."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import gallery
from .checks import Report, run_check, run_fixture
from .expr import EvalError, NestingError, ParseError, compile_batch, depth, names_a_coordinate, parse
from .manifest import ManifestError, load_manifest

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        # argparse reads an expression that starts with '-', such as -x, as an
        # unknown option: eval's first such argument is its expression
        if getattr(namespace, "expr", "") is None:
            if not extra:
                self.error("the following arguments are required: expr")
            namespace.expr = extra.pop(0)
        return namespace, extra


def _tolerance(text: str) -> float:
    """A --tol value: finite and positive, as a manifest's tolerance must be."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text}")
    return value


def _seed(text: str) -> int:
    """A --seed value: an integer in [0, 2^64), as a manifest's seed must be."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 unsigned bits, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="hfree", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_report_flags(p):
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument("--quiet", action="store_true", help="print the verdict only")

    for name, text in (
        ("check", "run the check described by a manifest"),
        ("verify-identity", "run a manifest in determinant-identity mode"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("manifest")
        add_report_flags(p)

    p_gal = sub.add_parser("gallery", help="list or run the built-in fixtures")
    gal_sub = p_gal.add_subparsers(dest="gallery_command", required=True)
    gal_sub.add_parser("list", help="print the fixture names")
    gal_sub.add_parser("show", help="print a fixture's manifest").add_argument("name")
    p_run = gal_sub.add_parser("run", help="run one fixture end to end")
    p_run.add_argument("name")
    p_run.add_argument("--samples", type=int, default=10000)
    p_run.add_argument("--seed", type=_seed, default=0)
    p_run.add_argument("--tol", type=_tolerance, default=1e-9)
    add_report_flags(p_run)

    p_eval = sub.add_parser(
        "eval", help="evaluate a DSL expression at a point", usage="%(prog)s [-h] [--at AT] expr"
    )
    p_eval.add_argument("expr", nargs="?")
    p_eval.add_argument(
        "--at",
        default="",
        help="comma-separated coordinate bindings, e.g. x=0,y=1.5",
    )
    return top


def _emit(report: Report, args) -> int:
    if args.json:
        print(report.to_json())
    elif args.quiet:
        print(report.verdict)
    else:
        print(f"verdict: {report.verdict}")
        print(f"points checked: {report.points_checked}")
        if report.worst_point is not None:
            pt = ", ".join(f"{v:.6g}" for v in report.worst_point)
            print(f"worst point: ({pt})  criterion: {report.worst_criterion:.6g}")
        for failure in report.failures[:5]:
            pt = ", ".join(f"{v:.6g}" for v in failure["point"])
            print(f"failure at ({pt}): {failure['reason']}")
        if len(report.failures) > 5:
            print(f"... and {len(report.failures) - 5} more failures")
        for note in report.fixture_notes:
            print(f"note: {note}")
    return report.exit_code


def _parse_bindings(spec: str) -> dict:
    point = {}
    if not spec:
        return point
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"binding {part!r} is not of the form name=value")
        name, _, value = part.partition("=")
        name = name.strip()
        if not names_a_coordinate(name):
            raise ValueError(f"binding {part!r}: {name!r} does not read as a coordinate in an expression")
        if name in point:
            raise ValueError(f"coordinate {name!r} bound twice")
        point[name] = float(value)
        if not math.isfinite(point[name]):
            raise ValueError(f"binding {part!r}: coordinate values must be finite")
    return point


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("check", "verify-identity"):
            manifest = load_manifest(args.manifest)
            if args.command == "verify-identity":
                manifest.mode = "identity"
            return _emit(run_check(manifest), args)
        if args.command == "gallery":
            if args.gallery_command == "list":
                for name in gallery.list_fixtures():
                    print(name)
                return EXIT_PASS
            try:
                if args.gallery_command == "show":
                    print(gallery.show(args.name), end="")
                    return EXIT_PASS
                fix = gallery.fixture(args.name)
            except KeyError as exc:  # its message, not the repr that str() of a KeyError is
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return EXIT_USAGE
            report = run_fixture(fix, samples=args.samples, seed=args.seed, tol=args.tol)
            return _emit(report, args)
        if args.command == "eval":
            point = _parse_bindings(args.at)
            expr = parse(args.expr)
            try:
                run = compile_batch([expr], tuple(point))
            except RecursionError:
                raise NestingError(depth(expr)) from None
            values, errors = run(np.array([list(point.values())]))
            if errors:
                raise errors[0][1]
            print(f"{float(values[0, 0]):.17g}")
            return EXIT_PASS
    except (ManifestError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EvalError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:  # a fault in hfree itself: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
