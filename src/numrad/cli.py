"""Command-line front end.

Subcommands: ``radius`` (certified enclosure of one matrix), ``bounds``
(evaluate catalog entries on one matrix), ``study`` (random-matrix ensemble
run), ``catalog`` (list the registry).

Exit codes: 0 success, 1 input error (bad flags, malformed files, unknown
ids, an exponent that is not finite and at least 2, invalid family), a failed
decomposition certificate or identity cross-check, or arithmetic overflow,
2 enclosure target not reached (only ``radius`` still prints its best
estimate; a study records it as a failed draw), 3 a non-diagnostic bound was
violated.
T3-PRINTED is diagnostic and never drives the exit code.

Human output rounds to 6 significant digits; json and csv output carries 17.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds as catalog
from . import ensembles, matio
from .linalg import ConvergenceError
from .radius import EnclosureNotReached, RadiusConfig, numerical_radius

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNREACHED = 2
EXIT_VIOLATION = 3

# catalog entries a study can run; the sound single-matrix subset
STUDY_DEFAULT_BOUNDS = tuple(
    e.bound_id for e in catalog.catalog_list() if e.arity == 1 and not e.diagnostic
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit, so every usage
    problem funnels through the exit-code contract."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _h6(x: float) -> str:
    return format(float(x), ".6g")


def _add_matrix_flags(sp) -> None:
    sp.add_argument("--input", required=True, metavar="PATH", help="matrix file")
    sp.add_argument(
        "--format",
        choices=("auto", "matrixmarket", "json"),
        default="auto",
        help="input format (auto resolves .mtx/.mm/.json)",
    )


def _add_radius_flags(sp) -> None:
    sp.add_argument(
        "--grid", type=int, default=RadiusConfig.grid_points, help="initial sweep size"
    )
    sp.add_argument("--width", type=float, default=None, help="enclosure width target")


def _add_output_flags(sp, default: str) -> None:
    sp.add_argument(
        "--output", choices=("human", "json", "csv"), default=default,
        help=f"output format (default {default})",
    )
    sp.add_argument("--out", metavar="PATH", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="numrad", description="numerical radius enclosures and bound checks")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("radius", help="certified enclosure of the numerical radius")
    _add_matrix_flags(sp)
    _add_radius_flags(sp)
    _add_output_flags(sp, "human")
    sp.set_defaults(func=cmd_radius)

    sp = sub.add_parser("bounds", help="evaluate catalog entries on one matrix")
    _add_matrix_flags(sp)
    _add_radius_flags(sp)
    _add_output_flags(sp, "human")
    sp.add_argument(
        "--bounds", default="all", metavar="IDS",
        help="comma-separated catalog ids, or 'all'",
    )
    sp.add_argument("--r", type=float, default=2.0, help="exponent for COR/FUNC")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("study", help="run the catalog over a random ensemble")
    sp.add_argument("--family", required=True, help="ensemble family name")
    sp.add_argument("--dim", type=int, required=True, help="matrix dimension")
    sp.add_argument("--count", type=int, required=True, help="number of draws")
    _add_radius_flags(sp)
    sp.add_argument("--seed", type=int, default=0, help="ensemble seed")
    sp.add_argument(
        "--bounds", default=None, metavar="IDS",
        help="comma-separated catalog ids (default: all sound single-matrix entries)",
    )
    sp.add_argument("--r", type=float, default=2.0, help="exponent for COR/FUNC")
    _add_output_flags(sp, "json")
    sp.set_defaults(func=cmd_study)

    sp = sub.add_parser("catalog", help="list the bound registry")
    _add_output_flags(sp, "human")
    sp.set_defaults(func=cmd_catalog)

    return p


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out_path}")


def _load_square(args):
    fmt = "mm" if args.format == "matrixmarket" else args.format
    m = matio.load_matrix(args.input, fmt)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix is {m.shape[0]}x{m.shape[1]}, expected square")
    return m


def _radius_cfg(args) -> RadiusConfig:
    return RadiusConfig(grid_points=args.grid, target_width=args.width)


def _estimate_text(est, output: str) -> str:
    obj = {
        "lower": est.lower,
        "upper": est.upper,
        "width": est.width,
        "theta_star": est.theta_star,
        "grid_points": est.grid_points,
        "refinement_iters": est.refinement_iters,
    }
    if output == "human":
        return "".join(
            f"{k:<17}{_h6(v) if isinstance(v, float) else v}\n" for k, v in obj.items()
        )
    if output == "csv":
        head = ",".join(obj)
        row = ",".join(
            matio.g17(v) if isinstance(v, float) else str(v) for v in obj.values()
        )
        return f"{head}\n{row}\n"
    return matio.json_encode(obj) + "\n"


def cmd_radius(args) -> int:
    m = _load_square(args)
    cfg = _radius_cfg(args)
    code = EXIT_OK
    try:
        est = numerical_radius(m, cfg)
    except EnclosureNotReached as exc:
        est = exc.estimate
        code = EXIT_UNREACHED
        print(f"warning: {exc}", file=sys.stderr)
    _emit(_estimate_text(est, args.output), args.out)
    return code


def _split_bound_tokens(text: str | None, default: tuple[str, ...]):
    """Returns (tokens to run, arity-2 ids to report as skipped)."""
    if text is None:
        return list(default), []
    if text.strip().lower() == "all":
        run = [e.bound_id for e in catalog.catalog_list() if e.arity == 1]
        skip = [e.bound_id for e in catalog.catalog_list() if e.arity == 2]
        return run, skip
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty bound list")
    return tokens, []


def _row_status(violated: bool, slack: float, rhs: float) -> str:
    if violated:
        return "VIOLATED"
    if ensembles.is_tight(slack, rhs):
        return "TIGHT"
    return "OK"


def cmd_bounds(args) -> int:
    m = _load_square(args)
    cfg = _radius_cfg(args)
    tokens, skipped = _split_bound_tokens(args.bounds, ())
    ctx = catalog.MatrixContext(m, cfg)
    reports = [(token, catalog.evaluate(token, ctx, r=args.r)) for token in tokens]
    rows = [(token, *catalog.summary_row(rep)) for token, rep in reports]

    if args.output == "human":
        lines = [f"{'bound_id':<12} {'lhs':>14} {'rhs':>14} {'slack':>14} status"]
        for token, lhs, rhs, slack, violated in rows:
            status = _row_status(violated, slack, rhs)
            lines.append(
                f"{token:<12} {_h6(lhs):>14} {_h6(rhs):>14} {_h6(slack):>14} {status}"
            )
        for bid in skipped:
            lines.append(f"{bid:<12} skipped (needs two matrices)")
        text = "\n".join(lines) + "\n"
    elif args.output == "csv":
        lines = ["bound_id,lhs,rhs,slack,status"]
        for token, lhs, rhs, slack, violated in rows:
            status = _row_status(violated, slack, rhs)
            lines.append(
                f"{token},{matio.g17(lhs)},{matio.g17(rhs)},{matio.g17(slack)},{status}"
            )
        text = "\n".join(lines) + "\n"
    else:
        details = [catalog.report_dict(token, rep) for token, rep in reports]
        text = matio.json_encode({"bounds": details, "skipped": skipped}) + "\n"
    _emit(text, args.out)

    bad = any(
        violated and not catalog.resolve_bound_id(token, args.r)[0].diagnostic
        for token, _, _, _, violated in rows
    )
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_study(args) -> int:
    spec = ensembles.EnsembleSpec(args.family, args.dim, args.count, args.seed)
    tokens, _ = _split_bound_tokens(args.bounds, STUDY_DEFAULT_BOUNDS)
    report = ensembles.run_study(spec, tokens, _radius_cfg(args), r=args.r)

    if args.output == "csv":
        text = ensembles.to_csv(report)
    elif args.output == "human":
        stats = report.slack_stats
        text = (
            f"family           {spec.family}\n"
            f"dimension        {spec.dimension}\n"
            f"count            {spec.count}\n"
            f"bounds           {','.join(report.bound_ids)}\n"
            f"rows             {len(report.rows)}\n"
            f"violations       {len(report.violations)}\n"
            f"failures         {len(report.failures)}\n"
            f"slack min        {_h6(stats['min'])}\n"
            f"slack median     {_h6(stats['median'])}\n"
            f"slack max        {_h6(stats['max'])}\n"
            f"tight_fraction   {_h6(report.tight_fraction)}\n"
            f"elapsed_seconds  {_h6(report.elapsed_seconds)}\n"
            f"seeds_used       {spec.seed}\n"
        )
    else:
        text = ensembles.to_json(report)
    _emit(text, args.out)

    bad = any(
        not catalog.resolve_bound_id(row.bound_id, args.r)[0].diagnostic
        for row in report.violations
    )
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_catalog(args) -> int:
    entries = catalog.catalog_list()
    if args.output == "json":
        text = (
            matio.json_encode(
                [
                    {"id": e.bound_id, "description": e.description, "arity": e.arity}
                    for e in entries
                ]
            )
            + "\n"
        )
    elif args.output == "csv":
        lines = ["id,arity,description"]
        for e in entries:
            desc = e.description.replace('"', '""')
            lines.append(f'{e.bound_id},{e.arity},"{desc}"')
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{e.bound_id:<12} arity {e.arity}  {e.description}" for e in entries]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except (
        ValueError, OSError, ArithmeticError, ConvergenceError, catalog.IdentityCheckError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EnclosureNotReached as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHED


if __name__ == "__main__":
    sys.exit(main())
