"""Command-line front end.

Subcommands::

    lcpower solve-matrix <matrix-file>   dominant eigenpair of a matrix
    lcpower poly-root    <poly-file>     dominant root of a monic polynomial
    lcpower gershgorin   <matrix-file>   disk report and finiteness verdict

Solver settings come from ``--config`` (key = value lines) overridden by
explicit flags.  ``solve-matrix`` and ``poly-root`` write a JSON result
document (``--out``, default stdout) and optionally a CSV error table
(``--trace-out``): one row per sampled step, one column per exponent in
the final eigenvalue's support, values formatted ``%.5e`` and measured
against ``--reference`` when given, else against the final iterate.

Exit codes: 0 success, 2 usage, 3 parse error, 4 dominance uncertain,
5 not converged, 6 internal error.  Identical inputs and seeds produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .core import INF, LCNumber
from .errors import DominanceUncertainError, LCError, ParseError
from .linalg import all_eigenvalues_at_most_finite, gershgorin_disks
from .solver import EigenResult, IterationTrace, SolverConfig, poly_dominant_root, solve
from .textio import (CONFIG_KEYS, parse_config, parse_matrix, parse_polynomial,
                     parse_series, serialize_series)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMINANCE = 4
EXIT_NONCONVERGED = 5
EXIT_INTERNAL = 6

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcpower",
        description="Dominant eigenpairs over Levi-Civita / Puiseux series fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_solver_flags=True):
        p.add_argument("input", type=Path)
        if not with_solver_flags:
            return
        p.add_argument("--config", type=Path, default=None,
                       help="key = value config file")
        p.add_argument("--truncation", default=None, metavar="P/Q",
                       help="exponent window held by every iterate")
        p.add_argument("--max-iters", type=int, default=None, metavar="N")
        p.add_argument("--tol", type=float, default=None, metavar="X")
        p.add_argument("--check-window", default=None, metavar="P/Q",
                       help="stopping-rule window (default: the truncation)")
        p.add_argument("--norm", choices=("l2", "max"), default=None)
        p.add_argument("--start", default=None,
                       metavar="ones|random:SEED|file:PATH")
        p.add_argument("--reference", type=Path, default=None,
                       help="series file with the known solution, for the error table")
        p.add_argument("--trace-out", type=Path, default=None, metavar="CSV")
        p.add_argument("--out", type=Path, default=None, metavar="JSON")
        p.add_argument("--trace-every", type=int, default=10, metavar="N",
                       help="sample the trace every N steps (default 10)")
        p.add_argument("--trace-columns", type=int, default=12, metavar="N",
                       help="cap on error-table columns (default 12)")

    add_common(sub.add_parser("solve-matrix", help="dominant eigenpair of a matrix"))
    add_common(sub.add_parser("poly-root", help="dominant root of a monic polynomial"))
    add_common(sub.add_parser("gershgorin", help="Gershgorin disk report"),
               with_solver_flags=False)
    return parser


def _config_from_args(args) -> SolverConfig:
    """Config file values overridden by flags; ``SolverConfig`` supplies
    every key neither sets."""
    values = parse_config(args.config.read_text()) if args.config is not None else {}
    for key, _, _ in CONFIG_KEYS:
        flag = getattr(args, key, None)  # the complex_pi_* keys have no flag
        if flag is not None:
            values[key] = flag
    if "truncation" not in values:
        raise ParseError("truncation is required (flag --truncation or config file)")
    return SolverConfig(**{name: convert(values[key])
                           for key, name, convert in CONFIG_KEYS if key in values})


def _result_document(kind: str, input_path: Path, cfg: SolverConfig,
                     result: EigenResult) -> str:
    doc = {
        "kind": kind,
        "input": str(input_path),
        "eigenvalue": serialize_series(result.eigenvalue),
        "eigenvector": [serialize_series(e) for e in result.eigenvector],
        "q0": str(result.q0),
        "mu1": {"re": result.mu1.real, "im": result.mu1.imag},
        "iterations": result.iterations_used,
        "converged": result.converged,
        "pivot_tie_warning": result.pivot_tie_warning,
        "residual": result.residual,
        "residual_window": str(result.residual_window),
        "poly_residual": result.poly_residual,
        "config": {
            "truncation": str(cfg.truncation),
            "max_iters": cfg.max_iters,
            "tol": cfg.tol,
            "check_window": str(cfg.window),
            "norm": cfg.norm_kind,
            "start": (cfg.start if isinstance(cfg.start, str)
                      else [serialize_series(e) for e in cfg.start]),
            "complex_pi_iters": cfg.complex_pi_iters,
            "complex_pi_tol": cfg.complex_pi_tol,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _trace_csv(trace: IterationTrace, reference: Optional[LCNumber],
               every: int, max_columns: int) -> str:
    # only the sampled steps (the last one among them) are converted
    last_step = trace.steps[-1].step
    sampled = IterationTrace([s for s in trace.steps
                              if s.step % every == 0 or s.step == last_step])
    cols, rows = sampled.error_table(reference, max_columns)
    lines = ["step," + ",".join(f"t^{q}" for q in cols)]
    lines.extend(f"{step}," + ",".join(f"{e:.5e}" for e in errs) for step, errs in rows)
    return "\n".join(lines) + "\n"


def _write(path: Optional[Path], content: str):
    if path is None:
        sys.stdout.write(content)
    else:
        path.write_text(content)


def cmd_solve(args: argparse.Namespace, config: SolverConfig) -> int:
    """Run the solver on ``args.input``; write the result and trace documents."""
    text = args.input.read_text()
    if args.command == "poly-root":
        kind = "polynomial"
        result, trace = poly_dominant_root(parse_polynomial(text), config)
    else:
        kind = "matrix"
        result, trace = solve(parse_matrix(text), config)
    reference = None
    if args.reference is not None:
        reference = parse_series(args.reference.read_text())
    _write(args.out, _result_document(kind, args.input, config, result))
    if args.trace_out is not None:
        _write(args.trace_out,
               _trace_csv(trace, reference, args.trace_every, args.trace_columns))
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def cmd_gershgorin(input_path: Path) -> int:
    """Print each disk and the at-most-finite verdict."""
    disks = gershgorin_disks(parse_matrix(input_path.read_text()))
    lines = []
    for i, d in enumerate(disks):
        valid = "" if d.radius.valid_to == INF else f" (valid to exponent {d.radius.valid_to})"
        lines.append(f"disk {i}: center = {serialize_series(d.center)}; "
                     f"radius = {serialize_series(d.radius)}{valid}")
    verdict = all_eigenvalues_at_most_finite(disks)
    lines.append(f"all eigenvalues at most finite: {'yes' if verdict else 'no'}")
    _write(None, "\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gershgorin":
            return cmd_gershgorin(args.input)
        config = _config_from_args(args)
        paths = [p for p in (args.input, args.out, args.trace_out, args.reference)
                 if p is not None]
        if len(set(paths)) != len(paths):
            raise ParseError("input, output, trace and reference paths must be distinct")
        if args.trace_every < 1 or args.trace_columns < 1:
            raise ParseError("trace sampling stride and column cap must be >= 1")
        return cmd_solve(args, config)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DominanceUncertainError as exc:
        print(f"dominance uncertain: {exc}", file=sys.stderr)
        return EXIT_DOMINANCE
    except (LCError, OSError, ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
