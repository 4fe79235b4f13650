"""Command-line entry point: reproduce the bound tables, export curve data,
and run verification suites, with CSV or JSON output.

Exit codes: 0 success, 1 check failure (including an optimizer that did
not converge), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import families, functionals, operators, optimize, verify

__all__ = ["main"]


def _format_number(value, precision: int) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.{precision}g}"


def _emit_rows(header: list[str], rows: list[list], args) -> None:
    """Write rows as CSV or JSON per ``args.format``, ``args.precision`` and
    ``args.out``."""
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_format_number(v, args.precision) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = [
            {
                key: (int(v) if isinstance(v, (int, np.integer))
                      else float(_format_number(v, args.precision)))
                for key, v in zip(header, row)
            }
            for row in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_table1(args) -> int:
    rows = []
    for m in args.m:
        record = optimize.maximize_W(m)
        k = operators._forward_k(m)
        # maximize_W's b lies in the feasible region, so t_0 needs no check
        t_0 = families._t_0(families._coefficient(record.b, k), k)
        rows.append(
            [m, record.b, record.d, t_0, record.value, functionals.gill_bound(m)]
        )
    _emit_rows(["m", "b", "d", "t_0", "W", "gill_bound"], rows, args)
    return 0


def cmd_curves(args) -> int:
    m = args.m
    k = operators._forward_k(m)
    rows = []
    for b in np.linspace(families.b_min(m), optimize._curve_scan_end(m), args.samples):
        b = float(b)
        # one coefficient x = 2 b^(-k) - 1 per row; d_min is the sign change
        # t_0 of the second piece: one value, two columns
        d_at, x, t_0 = optimize._checked_curve_point(b, k)
        rows.append([b, t_0, d_at, families._d_far(x, k), t_0,
                     functionals._W_at(b, d_at, k, x, t_0)])
    _emit_rows(["b", "d_min", "d_opt", "d_max", "t_0", "W_on_curve"], rows, args)
    return 0


def cmd_asymptotic(args) -> int:
    rows = [
        [
            optimize.x_infinity(1e-10),
            optimize.curve_supremum(),
            functionals.asymptotic_restricted(0.548, 1.164),
        ]
    ]
    _emit_rows(["x_infinity", "bound", "sample_value"], rows, args)
    return 0


def cmd_verify(args) -> int:
    names = list(verify.SUITE_NAMES) if args.suites == ["all"] else args.suites
    reports = verify.run_suite(names, args.seed)
    if args.format == "json":
        _write(verify.reports_to_json(reports, args.precision) + "\n", args)
    else:
        _emit_rows(
            ["name", "status", "worst_residual", "tolerance", "seed"],
            [
                [r.name, r.status.value, r.worst_residual, r.tolerance, r.seed]
                for r in reports
            ],
            args,
        )
    failing = [r.name for r in reports if r.status is verify.Status.FAIL]
    if failing:
        sys.stderr.write(f"failing suites: {', '.join(failing)}\n")
        return 1
    return 0


def _int_in(name: str, lo: int, hi: int):
    """An argparse type: an integer in [lo, hi]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {name} {text!r}") from exc
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"{name} must be in [{lo}, {hi}], got {value}"
            )
        return value

    return parse


_parse_m = _int_in("m", 1, optimize._M_MAX)


def _parse_m_list(text: str) -> list[int]:
    """An argparse type: a comma-separated list of m, each as ``_parse_m`` takes it."""
    values = [_parse_m(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError(f"bad m list {text!r}")
    return values


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument(
        "--precision", type=_int_in("precision", 3, 17), default=9,
        help="significant digits, 3..17",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaktype",
        description=(
            "Extremal lower bounds for the weak-type constants of the radial "
            "averaging operators and their adjoints."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="maximize the restricted ratio per m")
    p_table.add_argument(
        "--m", type=_parse_m_list, default=[1, 2, 3, 4],
        help="comma-separated list of m values",
    )
    _add_output_flags(p_table)
    p_table.set_defaults(func=cmd_table1)

    p_curves = sub.add_parser("curves", help="export the optimal-curve data for one m")
    p_curves.add_argument("--m", type=_parse_m, default=1)
    p_curves.add_argument("--samples", type=_int_in("samples", 2, 100_000), default=100)
    _add_output_flags(p_curves)
    p_curves.set_defaults(func=cmd_curves)

    p_asym = sub.add_parser("asymptotic", help="the large-m root and bound")
    _add_output_flags(p_asym)
    p_asym.set_defaults(func=cmd_asymptotic)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suites",
        type=lambda text: text.split(","),
        default=["all"],
        help=f"comma-separated suite names (default all): {', '.join(verify.SUITE_NAMES)}",
    )
    p_verify.add_argument("--seed", type=_int_in("seed", 0, 2**63 - 1), default=0)
    _add_output_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        sys.stderr.write(f"write failed: {exc}\n")
        return 1
    except optimize.ConvergenceError as exc:
        sys.stderr.write(f"optimizer failed: {exc}\n")
        return 1
    except ValueError as exc:
        parser.error(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
