"""Command-line front end.

Every subcommand emits one OutputRecord as CSV (default) or JSON to
stdout or --out. CSV carries `# key=value` comment lines (schema version,
command, parameters) before the header row; JSON carries the same content
with floats at 17 significant digits. Exit codes: 0 ok, 1 domain or
constraint error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

from . import bounds as bounds_mod
from . import parallel as parallel_mod
from .dynamics import OperatorSequence, apply_sequence
from .enumeration import (
    K_TOT_CAP,
    enumerate_max_probability,
    is_grk_form,
    render_fixed,
    render_percent,
    table_sweep,
)
from .errors import PartialSearchError, UsageError
from .space import angles as space_angles
from .space import check_qubits, grover_sine, new_search_space
from .statevec import verify_subspace

SCHEMA_VERSION = "1"


@dataclass
class OutputRecord:
    command: str
    parameters: dict[str, Any]
    rows: list[dict[str, Any]]
    schema_version: str = SCHEMA_VERSION
    exit_code: int = 0


# -- serialization ---------------------------------------------------------


def _fmt_float(x: float) -> str:
    # fixed 17-significant-digit form keeps emissions bit-stable
    return format(float(x), ".17g")


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


def render_csv(record: OutputRecord) -> str:
    out = io.StringIO()
    out.write(f"# schema_version={record.schema_version}\n")
    out.write(f"# command={record.command}\n")
    for key, value in record.parameters.items():
        out.write(f"# {key}={_csv_cell(value)}\n")
    if record.rows:
        writer = csv.writer(out, lineterminator="\n")
        header = list(record.rows[0].keys())
        writer.writerow(header)
        for row in record.rows:
            writer.writerow([_csv_cell(row.get(col)) for col in header])
    return out.getvalue()


def _json_value(value: Any, indent: int) -> str:
    pad = " " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return '"%s"' % value
        return _fmt_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        import json as _json

        return _json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {_json_value(str(k), 0)}: {_json_value(v, indent + 2)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {_json_value(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def render_json(record: OutputRecord) -> str:
    payload = {
        "schema_version": record.schema_version,
        "command": record.command,
        "parameters": record.parameters,
        "rows": record.rows,
    }
    return _json_value(payload, 0) + "\n"


# -- argument helpers --------------------------------------------------------


def parse_range(text: str) -> range:
    """'a..b' inclusive, or a single integer."""
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise UsageError(f"bad range {text!r}, expected <int> or a..b") from None
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    shared.add_argument("--out", default=None, help="output file (default stdout)")

    parser = argparse.ArgumentParser(
        prog="partial-search",
        description="Quantum partial search: subspace dynamics, sequence "
        "optimization, bounds, and parallel scheme comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("angles", parents=[shared], help="problem geometry and angles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser(
        "simulate", parents=[shared], help="apply one operator sequence exactly"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--seq",
        required=True,
        help="application-ordered tokens g:<count>,l:<count>,... "
        "(g:1,l:2 applies one global first, then two locals)",
    )

    p = sub.add_parser(
        "enumerate",
        parents=[shared],
        help=f"exhaustive optimum over all sequences (k_tot <= {K_TOT_CAP})",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ktot", required=True, help="budget, <int> or a..b")
    p.add_argument(
        "--all-ties", action="store_true", help="one row per co-optimal sequence"
    )

    p = sub.add_parser(
        "tables",
        parents=[shared],
        help="optimum grid over (m, k_tot) at table precision",
    )
    p.add_argument("--n", type=int, default=8)
    p.add_argument(
        "--which",
        choices=("pr", "e"),
        required=True,
        help="pr: success percentage; e: expected iterations",
    )
    p.add_argument("--m-range", default=None, help="a..b (default 2..n-1)")
    p.add_argument("--k-range", default="2..11", help="a..b (default 2..11)")

    p = sub.add_parser(
        "bounds",
        parents=[shared],
        help="analytic bounds vs exact integer scans",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument(
        "--ktot-range",
        default=None,
        help="a..b: per-budget probability comparison (needs --m)",
    )

    p = sub.add_parser(
        "parallel", parents=[shared], help="parallel scheme optimization"
    )
    p.add_argument(
        "--scheme",
        choices=("inner", "outer", "grk", "hybrid", "compare"),
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None, help="QPU count (single scheme)")
    p.add_argument(
        "--l-range", default=None, help="a..b, compare only (default 1..min(N,64))"
    )
    p.add_argument(
        "--no-k2", action="store_true", help="restrict hybrid to k2 = 0"
    )

    p = sub.add_parser(
        "verify",
        parents=[shared],
        help="cross-check subspace dynamics against the full statevector",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sequences", type=int, default=200)
    p.add_argument("--max-k", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=42)

    return parser


# -- subcommand implementations ----------------------------------------------


def _cmd_angles(args: argparse.Namespace) -> OutputRecord:
    space = new_search_space(args.n, args.m)
    row = {
        **asdict(space),
        **asdict(space_angles(space)),
        "sin_theta1": grover_sine(space.N),
        "sin_theta2": grover_sine(space.b),
        "sin_gamma": grover_sine(space.K),
    }
    return OutputRecord("angles", {"n": args.n, "m": args.m}, [row])


def _cmd_simulate(args: argparse.Namespace) -> OutputRecord:
    space = new_search_space(args.n, args.m)
    seq = OperatorSequence.from_token_spec(args.seq)
    st = apply_sequence(space, seq)
    row = {
        "n": space.n,
        "m": space.m,
        "tokens": seq.token_spec(),
        "product": seq.product_string(space),
        "queries": seq.total_queries,
        "block_probability": 1.0 - st.amp_bbar**2,
        "target_probability": st.amp_t**2,
        "amp_t": st.amp_t,
        "amp_bt": st.amp_bt,
        "amp_bbar": st.amp_bbar,
    }
    return OutputRecord(
        "simulate", {"n": args.n, "m": args.m, "seq": args.seq}, [row]
    )


def _cmd_enumerate(args: argparse.Namespace) -> OutputRecord:
    space = new_search_space(args.n, args.m)
    rows = []
    for k in parse_range(args.ktot):
        res = enumerate_max_probability(space, k)
        if args.all_ties:
            for i, seq in enumerate(res.optimal_sequences):
                rows.append(
                    {
                        "k_tot": k,
                        "tie_index": i,
                        "pr_max": res.pr_max,
                        "pr_percent": render_percent(res.pr_max),
                        "expected_iterations": res.expected_iterations,
                        "sequence": seq.product_string(space),
                        "tokens": seq.token_spec(),
                        "is_grk": is_grk_form(seq),
                    }
                )
        else:
            seq = res.canonical
            rows.append(
                {
                    "k_tot": k,
                    "pr_max": res.pr_max,
                    "pr_percent": render_percent(res.pr_max),
                    "expected_iterations": res.expected_iterations,
                    "e_rendered": render_fixed(res.expected_iterations),
                    "sequence": seq.product_string(space),
                    "tokens": seq.token_spec(),
                    "is_grk": is_grk_form(seq),
                    "num_ties": len(res.optimal_sequences),
                }
            )
    params = {"n": args.n, "m": args.m, "ktot": args.ktot, "all_ties": args.all_ties}
    return OutputRecord("enumerate", params, rows)


def _cmd_tables(args: argparse.Namespace) -> OutputRecord:
    m_range = parse_range(args.m_range) if args.m_range else range(2, args.n)
    k_range = parse_range(args.k_range)
    rows_out = []
    for row in table_sweep(args.n, list(m_range), list(k_range)):
        value = row.pr_percent if args.which == "pr" else row.e_rendered
        rows_out.append(
            {
                "n": row.n,
                "m": row.m,
                "k_tot": row.k_tot,
                "value": value,
                "sequence": row.sequence,
                "is_grk": row.is_grk,
            }
        )
    params = {
        "n": args.n,
        "which": args.which,
        "m_range": f"{m_range.start}..{m_range.stop - 1}",
        "k_range": f"{k_range.start}..{k_range.stop - 1}",
    }
    return OutputRecord("tables", params, rows_out)


def _cmd_bounds(args: argparse.Namespace) -> OutputRecord:
    params: dict[str, Any] = {"n": args.n}
    if args.ktot_range is not None:
        if args.m is None:
            raise UsageError("--ktot-range needs --m")
        params.update({"m": args.m, "ktot_range": args.ktot_range})
        space = new_search_space(args.n, args.m)
        comparison = bounds_mod.pr_bound_comparison(space, parse_range(args.ktot_range))
        return OutputRecord("bounds", params, [asdict(r) for r in comparison])

    if args.m is not None:
        params["m"] = args.m
    sweep = bounds_mod.min_expected_sweep(args.n, None if args.m is None else [args.m])
    return OutputRecord("bounds", params, [asdict(r) for r in sweep])


def _scheme_row(
    res: parallel_mod.SchemeResult | parallel_mod.SkippedScheme,
) -> dict[str, Any]:
    row = {
        "scheme": res.kind,
        "l": res.l,
        "admissible": isinstance(res, parallel_mod.SchemeResult),
    }
    for col in ("reason", "k1", "k2", "queries", "e_min", "pr_at_opt"):
        row[col] = getattr(res, col, None)
    return row


def _cmd_parallel(args: argparse.Namespace) -> OutputRecord:
    compare = args.scheme == "compare"
    if args.no_k2 and args.scheme != "hybrid":
        raise UsageError("--no-k2 applies to --scheme hybrid only")
    if compare and args.l is not None:
        raise UsageError("--l applies to a single scheme; use --l-range with compare")
    if not compare and args.l_range is not None:
        raise UsageError("--l-range applies to --scheme compare only")
    n = args.n
    check_qubits(n)
    N = 1 << n
    params: dict[str, Any] = {"scheme": args.scheme, "n": n}
    if args.no_k2:
        params["no_k2"] = True

    if compare:
        l_values = (
            list(parse_range(args.l_range))
            if args.l_range
            else list(range(1, min(N, 64) + 1))
        )
        params["l_range"] = f"{l_values[0]}..{l_values[-1]}"
        results, skipped = parallel_mod.compare_schemes(N, l_values)
        rows = [_scheme_row(r) for r in [*results, *skipped]]
        rows.sort(key=lambda r: (r["l"], parallel_mod.SCHEME_KINDS.index(r["scheme"])))
        return OutputRecord("parallel", params, rows)

    if args.l is None:
        raise UsageError("--l is required for a single scheme")
    params["l"] = args.l
    if args.scheme == "inner":
        res = parallel_mod.inner_min(N, args.l)
    elif args.scheme == "outer":
        res = parallel_mod.outer_min(N, args.l)
    else:
        space = parallel_mod.space_for_parallelism(n, args.l)
        if args.scheme == "grk":
            res = parallel_mod.grk_parallel_min(space, args.l)
        else:
            res = parallel_mod.hybrid_min(space, args.l, allow_k2=not args.no_k2)
    return OutputRecord("parallel", params, [_scheme_row(res)])


def _cmd_verify(args: argparse.Namespace) -> OutputRecord:
    if args.sequences < 1 or args.max_k < 1:
        raise UsageError("--sequences and --max-k must be >= 1")
    if not 0.0 <= args.tol < math.inf:
        raise UsageError("--tol must be finite and >= 0")
    report = verify_subspace(
        args.n,
        args.m,
        num_random_sequences=args.sequences,
        max_k=args.max_k,
        tol=args.tol,
        seed=args.seed,
    )
    params = {
        "n": args.n,
        "m": args.m,
        "sequences": args.sequences,
        "max_k": args.max_k,
        "tol": args.tol,
        "seed": args.seed,
    }
    row = report
    if args.format == "csv":
        # the per-failure detail only fits the JSON shape
        row = {
            "n": report["n"],
            "m": report["m"],
            "max_deviation": report["max_deviation"],
            "worst_sequence": report["worst_case"]["sequence"],
            "worst_target_index": report["worst_case"]["target_index"],
            "num_failures": len(report["failures"]),
            "passed": report["passed"],
        }
    return OutputRecord("verify", params, [row], exit_code=0 if report["passed"] else 1)


_COMMANDS = {
    "angles": _cmd_angles,
    "simulate": _cmd_simulate,
    "enumerate": _cmd_enumerate,
    "tables": _cmd_tables,
    "bounds": _cmd_bounds,
    "parallel": _cmd_parallel,
    "verify": _cmd_verify,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        record = _COMMANDS[args.command](args)
    except PartialSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1

    text = render_csv(record) if args.format == "csv" else render_json(record)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return record.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
