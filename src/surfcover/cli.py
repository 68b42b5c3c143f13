"""Command-line surface.

Reports are emitted as JSON (rationals as "p/q" strings, never floats that
round) or CSV. With a fixed seed and config every subcommand writes byte
identical output; wall-clock timings are therefore opt-in via --timings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction

from . import acceptance
from .characters import BudgetExceededError, get_table, hom_count, witten_zeta
from .homspace import (
    DEFAULT_MAX_VISITS,
    enumerate_homs,
    exact_expectation,
    get_sampler,
    run_sampled_stats,
    sample_hom,
    stream_for,
)
from .limits import limit_product_moment
from .observables import joint_moment, spec_from_json, spec_from_text, spec_to_text
from .perms import cycles_str, evaluate_word
from .verify import (
    ExperimentPlan,
    fit_inverse_n,
    run_convergence,
    run_cycle_convergence,
    run_independence,
)
from .words import word_from_text


def _format_value(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return v


def _decimal(v):
    if isinstance(v, Fraction):
        return float(v)
    return v


def emit_report(report, fmt: str = "json") -> bytes:
    """Serialize a report dict (or list of row dicts) to stable bytes."""
    if fmt == "json":
        return (json.dumps(report, indent=2, default=_format_value) + "\n").encode()
    if fmt == "csv":
        rows = report if isinstance(report, list) else report.get("rows", [report])
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _format_value(v) for k, v in row.items()})
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")


def _write_output(data: bytes, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def read_config(path: str) -> dict:
    """Flat key=value file; blank lines and # comments are skipped."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


_CONFIG_INT_KEYS = {"n", "g", "seed", "samples", "budget_visits", "max_d", "count"}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    # keys a subcommand does not take are skipped so one file can drive many
    if getattr(args, "config", None):
        file_values = read_config(args.config)
        for key, raw in file_values.items():
            if hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, int(raw) if key in _CONFIG_INT_KEYS else raw)
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfcover",
        description="Fixed-point and cycle statistics of random surface-group actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=False, sampling=False):
        p.add_argument("-n", type=int, default=None, help="degree of the symmetric group")
        p.add_argument("-g", type=int, default=None, help="genus (default 2)")
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--format", default=None, choices=["json", "csv"])
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--timings", action="store_true", help="include runtime_ms")
        p.add_argument("--budget-visits", dest="budget_visits", type=int, default=None)
        if spec:
            p.add_argument("--spec", default=None, help='e.g. \'gamma="a1" exps=[2,3] pow=1; delta="a2" exps=[4]\'')
        if sampling:
            p.add_argument("--samples", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("characters", help="print the character table as CSV")
    common(p)
    p = sub.add_parser("zeta", help="Witten zeta value")
    common(p)
    p.add_argument("-s", type=int, required=True)
    p = sub.add_parser("hom-count", help="number of homomorphism points")
    common(p)
    p = sub.add_parser("enumerate", help="exact expectation (or count) by enumeration")
    common(p, spec=True)
    p = sub.add_parser("sample", help="draw homomorphism points")
    common(p, spec=True, sampling=True)
    p.add_argument("--count", type=int, default=None, help="number of points to draw")
    p.add_argument("--word", default=None, help="report the image of this word")
    p = sub.add_parser("estimate", help="Monte Carlo expectation of a spec")
    common(p, spec=True, sampling=True)
    p = sub.add_parser("predict", help="exact limit prediction for a spec")
    common(p, spec=True)
    p = sub.add_parser("verify-convergence", help="joint moment against its limit over n")
    common(p, spec=True, sampling=True)
    p.add_argument("--n-values", default=None, help="comma separated, e.g. 2,3,4,8")
    p = sub.add_parser("verify-independence", help="joint versus product of groups over n")
    common(p, spec=True, sampling=True)
    p.add_argument("--n-values", default=None)
    p = sub.add_parser("verify-cycles", help="short cycle statistics at one n")
    common(p, spec=True, sampling=True)
    p.add_argument("--words", default=None, help="comma separated words, e.g. a1,a2")
    p.add_argument("--max-d", dest="max_d", type=int, default=None)
    p = sub.add_parser("selftest", help="run the acceptance criteria")
    common(p, sampling=True)
    p.add_argument("--only", default=None, help="comma separated criterion numbers")
    return parser


def _defaults(args) -> None:
    if getattr(args, "g", None) is None:
        args.g = 2
    if args.g < 2:
        raise ValueError("genus must be >= 2")
    if getattr(args, "format", None) is None:
        args.format = "json"
    if getattr(args, "seed", None) is None:
        args.seed = 0
    if getattr(args, "samples", None) is None:
        args.samples = 100_000
    if getattr(args, "budget_visits", None) is None:
        args.budget_visits = DEFAULT_MAX_VISITS
    if getattr(args, "count", None) is None:
        args.count = 1
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if getattr(args, "max_d", None) is None:
        args.max_d = 3


def _n_values(args, fallback) -> tuple[int, ...]:
    raw = getattr(args, "n_values", None)
    if raw is None:
        return fallback
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _require_n(args) -> int:
    if args.n is None:
        raise ValueError(f"{args.command} needs -n")
    if args.n < 1:
        raise ValueError("-n must be >= 1")
    return args.n


def _parse_spec(raw, genus: int):
    """Accept either the text syntax or a JSON object with a groups list."""
    if not raw:
        raise ValueError("this command needs --spec")
    if raw.lstrip().startswith("{"):
        return spec_from_json(raw, genus)
    return spec_from_text(raw, genus)


def _plan_from_args(args) -> ExperimentPlan:
    return ExperimentPlan(
        spec=_parse_spec(args.spec, args.g),
        n_values=_n_values(args, (2, 3, 4)),
        samples=args.samples,
        seed=args.seed,
        budget_visits=args.budget_visits,
    )


def _convergence_rows(report):
    rows = []
    for r in report.rows:
        rows.append(
            {
                "n": r.n,
                "method": r.method,
                "joint": r.joint,
                "joint_decimal": _decimal(r.joint),
                "joint_stderr": r.joint_stderr,
                "product_of_groups": r.product_of_groups,
                "product_decimal": _decimal(r.product_of_groups),
                "prediction": r.prediction,
                "prediction_decimal": _decimal(r.prediction),
                "abs_error": r.abs_error,
                "n_times_error": r.n_times_error,
                "gap": r.gap,
                "gap_stderr": r.gap_stderr,
            }
        )
    return rows


def run_command(args) -> tuple[bytes, int]:
    """Execute one parsed command; returns (output bytes, exit code)."""
    started = time.monotonic()
    _defaults(args)
    fmt = args.format

    def finish(report, code=0):
        if args.timings and isinstance(report, dict):
            report["runtime_ms"] = int((time.monotonic() - started) * 1000)
        return emit_report(report, fmt), code

    if args.command == "characters":
        table = get_table(_require_n(args)).freeze()
        labels = ["+".join(str(p) for p in mu) or "0" for mu in table.partitions]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["partition"] + labels)
        for label, row in zip(labels, zip(*table.matrix)):
            writer.writerow([label, *row])
        return buf.getvalue().encode(), 0

    if args.command == "zeta":
        value = witten_zeta(_require_n(args), args.s)
        return (f"{value.numerator}/{value.denominator}\n" if value.denominator != 1 else f"{value.numerator}\n").encode(), 0

    if args.command == "hom-count":
        return (str(hom_count(_require_n(args), args.g)) + "\n").encode(), 0

    if args.command == "enumerate":
        _require_n(args)
        if args.spec:
            spec = _parse_spec(args.spec, args.g)
            value = exact_expectation(args.n, args.g, spec, max_visits=args.budget_visits)
            return finish(
                {
                    "n": args.n,
                    "g": args.g,
                    "spec": spec_to_text(spec),
                    "method": "enumerate",
                    "value": value,
                    "value_decimal": float(value),
                }
            )
        count = enumerate_homs(args.n, args.g, lambda h: None, max_visits=args.budget_visits)
        return finish({"n": args.n, "g": args.g, "method": "enumerate", "count": count})

    if args.command == "sample":
        _require_n(args)
        plan = get_sampler(args.n, args.g)
        rng = stream_for(args.seed)
        word = word_from_text(args.word, args.g) if args.word else None
        points = []
        for index in range(args.count):
            h = sample_hom(plan, rng)
            entry = {
                "index": index,
                "generator_cycles": [cycles_str(p) for p in h.images],
            }
            if word is not None:
                entry["word_image_cycles"] = cycles_str(evaluate_word(h, word))
            points.append(entry)
        return finish({"n": args.n, "g": args.g, "seed": args.seed, "points": points})

    if args.command == "estimate":
        _require_n(args)
        spec = _parse_spec(args.spec, args.g)
        stats = run_sampled_stats(
            get_sampler(args.n, args.g),
            {"joint": lambda h: joint_moment(h, spec)},
            args.samples,
            args.seed,
        )
        return finish(
            {
                "n": args.n,
                "g": args.g,
                "spec": spec_to_text(spec),
                "method": "sample",
                "mean": stats.mean("joint"),
                "stderr": stats.stderr("joint"),
                "samples": stats.samples,
                "seed": args.seed,
            }
        )

    if args.command == "predict":
        spec = _parse_spec(args.spec, args.g)
        limit = limit_product_moment(spec)
        return finish(
            {
                "spec": spec_to_text(spec),
                "value": limit.value,
                "value_decimal": float(limit.value),
                "warnings": list(limit.warnings),
            }
        )

    if args.command in ("verify-convergence", "verify-independence"):
        plan = _plan_from_args(args)
        report = (
            run_convergence(plan)
            if args.command == "verify-convergence"
            else run_independence(plan)
        )
        rows = _convergence_rows(report)
        errors = [(r.n, r.abs_error) for r in report.rows]
        payload = {
            "spec": report.spec_text,
            "seed": report.seed,
            "samples": report.samples,
            "prediction": report.prediction,
            "rows": rows,
        }
        code = 0
        if len(errors) >= 3:
            fit = fit_inverse_n(errors)
            payload["fitted_C"] = fit.coefficient
            payload["max_n_times_error"] = fit.max_n_times_error
        # sampled rows may sit O(1/n) away from the limit; allow for that
        sampled = [r for r in report.rows if r.joint_stderr is not None]
        for r in sampled:
            allowance = 3 * r.joint_stderr + (1.0 + abs(float(r.prediction))) * 0.75 / r.n
            if abs(r.joint - float(r.prediction)) > allowance:
                code = 1
        return finish(payload, code)

    if args.command == "verify-cycles":
        _require_n(args)
        if not args.words:
            raise ValueError("verify-cycles needs --words")
        words = [word_from_text(tok, args.g) for tok in args.words.split(",")]
        report = run_cycle_convergence(words, args.max_d, args.n, args.samples, seed=args.seed)
        rows = [
            {
                "word": i.word_index,
                "d": i.cycle_length,
                "mean": i.mean,
                "stderr": i.stderr,
                "prediction": i.prediction,
                "prediction_decimal": _decimal(i.prediction),
            }
            for i in report.rows
        ]
        covs = [
            {
                "words": list(c.word_indices),
                "lengths": list(c.cycle_lengths),
                "covariance": c.covariance,
                "covariance_stderr": c.covariance_stderr,
            }
            for c in report.covariances
        ]
        # allow the known O(1/n) drift on top of the statistical band
        code = 0
        for i in report.rows:
            if abs(i.mean - float(i.prediction)) > 3 * i.stderr + 0.75 / report.n:
                code = 1
        payload = {
            "n": report.n,
            "samples": report.samples,
            "seed": report.seed,
            "rows": rows,
            "covariances": covs,
        }
        return finish(payload, code)

    if args.command == "selftest":
        only = None
        if args.only:
            only = [int(tok) for tok in args.only.split(",") if tok.strip()]
        results = acceptance.run_all(
            only=only, samples=args.samples, seed=args.seed, echo=print
        )
        failed = [r.number for r in results if not r.passed]
        payload = {
            "criteria": [
                {
                    "number": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "details": r.details,
                }
                for r in results
            ],
            "failed": failed,
        }
        return finish(payload, 1 if failed else 0)

    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        output, code = run_command(args)
    except (ValueError, ArithmeticError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_output(output, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
