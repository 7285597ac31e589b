"""Command-line surface: one binary, machine-readable output.

This module alone knows the output formats: the field names, their order,
and the CSV and JSON encodings of the ``sample`` header and records, the
``dist`` rows and the ``bounds`` report with the formula behind each field.
The library returns values; one CSV line writer serves every table.

Exit codes are stable: 0 success, 1 runtime or numeric failure, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

from .errors import _check_count
from .matrices import (
    fingerprint,
    haar_unitary,
    load_matrix,
    load_unitary,
    save_matrix,
    unitarity_defect,
)
from .permanent import (
    permanent_glynn,
    permanent_naive,
    permanent_ryser,
    repeated_column_expansion,
)
from .portstats import occupied_ports_pmf, sampling_cost_bounds, solve_tail_crossings
from .sampler import sample_batch
from .validate import (
    brute_force_distribution,
    chi_square_fit,
    empirical_counts,
    total_variation_distance,
)

VERIFY_TVD_LIMIT = 0.02
VERIFY_P_LIMIT = 0.001

_FORMULAS = {
    "tail_half_width": "2*sqrt((1+rho)/N*ln(2/epsilon))",
    "radix": "max(1, (1+rho)/(1+delta))",
    "bunching_cutoff": "ln(N/(rho*epsilon))/ln((1+rho)/rho)",
    "prob_lower_log2": "log2(N * 2^((1-delta)*N/(1+rho)))",
    "prob_upper_log2": "log2(N * (1+r)^(N/r))",
    "sample_lower_log2": "log2(N * 2^((1-delta)*N/(1+rho)) + M*N^2)",
    "sample_upper_log2": "log2((m+2) * N * (1+r)^(N/r) + M*N^2)",
    "n_equiv": "N/(1+rho)",
}


def _complex_str(value: complex) -> str:
    # adding 0.0 folds negative zeros so identity permanents print as 1+0j
    return f"{value.real + 0.0:.12g}{value.imag + 0.0:+.12g}j"


def _csv_line(values) -> str:
    """One CSV line: lists as space-separated items, anything else by ``str``."""
    return ",".join(" ".join(map(str, v)) if isinstance(v, list) else str(v) for v in values) + "\n"


def _output(path):
    """Context manager for the ``--out`` file, or for stdout when none is given."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def cmd_haar(args) -> int:
    u = haar_unitary(args.dim, args.seed)
    save_matrix(args.out, u)
    print(f"unitarity defect: {unitarity_defect(u.matrix):.3e}")
    return 0


def cmd_permanent(args) -> int:
    matrix = load_matrix(args.matrix)
    if args.multiplicities is None:
        evaluator = {"naive": permanent_naive, "ryser": permanent_ryser}.get(args.method, permanent_glynn)
        print(_complex_str(evaluator(matrix)))
        return 0
    try:
        mult = [float(t) for t in args.multiplicities.split(",")]
    except ValueError:
        raise ValueError(f"--multiplicities must be comma-separated numbers, got {args.multiplicities!r}") from None
    value, steps = repeated_column_expansion(matrix, mult)
    print(_complex_str(value))
    print(f"gray_steps: {steps}")
    return 0


def cmd_sample(args) -> int:
    u = load_unitary(args.unitary)
    batch = sample_batch(u, args.bosons, args.count, args.seed)
    header = {
        "unitary_sha256": fingerprint(u.matrix),
        "n_bosons": args.bosons,
        "n_ports": u.dim,
        "master_seed": args.seed,
        "count": args.count,
    }
    fields = ("idx", "ports", "config", "ops")
    rows = (
        (i, list(seq.ports), seq.configuration(batch.n_ports).tolist(), ops)
        for i, (seq, ops) in enumerate(zip(batch.samples, batch.gray_steps))
    )
    with _output(args.out) as out:
        if args.format == "csv":
            out.write(_csv_line(fields))
            out.writelines(map(_csv_line, rows))
        elif args.format == "json":
            json.dump({**header, "samples": [dict(zip(fields, row)) for row in rows]}, out)
            out.write("\n")
        else:  # jsonl
            out.write(json.dumps(header) + "\n")
            out.writelines(json.dumps(dict(zip(fields, row))) + "\n" for row in rows)
    return 0


def cmd_dist(args) -> int:
    dist = occupied_ports_pmf(args.bosons, args.modes)
    header = ["n", "P_exact", "P", "B"]
    rows = list(zip(dist.support(), map(str, dist.exact), dist.pmf.tolist(), dist.envelope.tolist()))
    # the exact column is formatted once, and every line before any output
    # opens, so a refused density or a column past str()'s digit limit writes nothing
    if args.plot_data:
        delta_minus, delta_plus = solve_tail_crossings(args.bosons / args.modes)
        scale = args.bosons / (1.0 + args.bosons / args.modes)
        n_minus, n_plus = (1.0 - delta_minus) * scale, (1.0 + delta_plus) * scale
        tags = ("left-tail" if n <= n_minus else "right-tail" if n >= n_plus else "core" for n in dist.support())
        header.append("region")
        rows = [(*row, tag) for row, tag in zip(rows, tags)]
    table = [_csv_line(header), *map(_csv_line, rows)]
    with _output(args.out) as out:
        out.writelines(table)
    return 0


def cmd_bounds(args) -> int:
    report = sampling_cost_bounds(args.bosons, args.modes, args.epsilon)
    print(json.dumps({**dataclasses.asdict(report), "formulas": _FORMULAS}, indent=2))
    return 0


def cmd_verify(args) -> int:
    u = load_unitary(args.unitary)
    _check_count(args.samples, "--samples")
    exact = brute_force_distribution(u, args.bosons)
    batch = sample_batch(u, args.bosons, args.samples, args.seed)
    counts = empirical_counts(batch)
    tvd = total_variation_distance(counts, exact)
    _, pvalue = chi_square_fit(counts, exact)
    print(f"tvd: {tvd:.6f}")
    print(f"chi_square_p: {pvalue:.6g}")
    ok = tvd < VERIFY_TVD_LIMIT and pvalue > VERIFY_P_LIMIT
    print("verdict: " + ("pass" if ok else "fail"))
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonbunch",
        description="Boson sampling in the collision regime: permanents, exact samples, port statistics, cost bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("haar", help="generate a Haar-random unitary as JSON")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_haar)

    p = sub.add_parser("permanent", help="evaluate a matrix permanent from a JSON matrix file")
    p.add_argument("--matrix", required=True)
    how = p.add_mutually_exclusive_group()
    # no argparse default: the group lets a value identical to the default through
    how.add_argument("--method", choices=("naive", "ryser", "glynn"), help="default glynn")
    how.add_argument(
        "--multiplicities",
        help="comma-separated column repetition counts: the repeated-column expansion, not with --method",
    )
    p.set_defaults(handler=cmd_permanent)

    p = sub.add_parser("sample", help="draw configurations from the output distribution")
    p.add_argument("--unitary", required=True)
    p.add_argument("--bosons", "-n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=("jsonl", "json", "csv"), default="jsonl")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("dist", help="occupied-port distribution table as CSV")
    p.add_argument("--bosons", "-n", type=int, required=True)
    p.add_argument("--modes", "-m", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--plot-data", action="store_true")
    p.set_defaults(handler=cmd_dist)

    p = sub.add_parser("bounds", help="operation-count bound report as JSON")
    p.add_argument("--bosons", "-n", type=int, required=True)
    p.add_argument("--modes", "-m", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("verify", help="validate sampler output against brute-force enumeration")
    p.add_argument("--unitary", required=True)
    p.add_argument("--bosons", "-n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BrokenPipeError as exc:  # the reader closed stdout: not a usage error
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
