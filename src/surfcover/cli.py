"""Command-line surface.

Reports are emitted as JSON (rationals as "p/q" strings, never floats that
round) or CSV. With a fixed seed and config every subcommand writes byte
identical output; wall-clock timings are therefore opt-in via --timings.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from fractions import Fraction
from functools import partial

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


# Values for arguments that neither a flag nor --config gives.
DEFAULTS = {
    "g": 2,
    "format": "json",
    "seed": 0,
    "samples": 100_000,
    "budget_visits": DEFAULT_MAX_VISITS,
    "count": 1,
    "max_d": 3,
    "n_values": "2,3,4",
}
_INT_KEYS = {"n"} | {key for key, value in DEFAULTS.items() if isinstance(value, int)}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Resolve every argument no flag gave, from --config and then DEFAULTS,
    and range-check the result."""
    # keys a subcommand does not take are skipped so one file can drive many
    if args.config:
        for key, raw in read_config(args.config).items():
            if hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, int(raw) if key in _INT_KEYS else raw)
    for key, value in DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    if args.g < 2:
        raise ValueError("genus must be >= 2")
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if args.needs_n:
        if args.n is None:
            raise ValueError(f"{args.command} needs -n")
        if args.n < 1:
            raise ValueError("-n must be >= 1")
    return args


def _parse_spec(raw, genus: int):
    """Accept either the text syntax or a JSON object with a groups list."""
    if not raw:
        raise ValueError("this command needs --spec")
    if raw.lstrip().startswith("{"):
        return spec_from_json(raw, genus)
    return spec_from_text(raw, genus)


# Each handler returns (report, exit code); a report is raw bytes or a dict
# that run_command serializes in the chosen format.


def _characters(args):
    table = get_table(args.n).freeze()
    labels = ["+".join(str(p) for p in mu) or "0" for mu in table.partitions]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["partition"] + labels)
    for label, row in zip(labels, zip(*table.matrix)):
        writer.writerow([label, *row])
    return buf.getvalue().encode(), 0


def _zeta(args):
    return f"{_format_value(witten_zeta(args.n, args.s))}\n".encode(), 0


def _hom_count(args):
    return f"{hom_count(args.n, args.g)}\n".encode(), 0


def _enumerate(args):
    if not args.spec:
        count = enumerate_homs(args.n, args.g, lambda h: None, max_visits=args.budget_visits)
        return {"n": args.n, "g": args.g, "method": "enumerate", "count": count}, 0
    spec = _parse_spec(args.spec, args.g)
    value = exact_expectation(args.n, args.g, spec, max_visits=args.budget_visits)
    return {
        "n": args.n, "g": args.g, "spec": spec_to_text(spec), "method": "enumerate",
        "value": value, "value_decimal": float(value),
    }, 0


def _sample(args):
    plan = get_sampler(args.n, args.g)
    rng = stream_for(args.seed)
    word = word_from_text(args.word, args.g) if args.word else None
    points = []
    for index in range(args.count):
        h = sample_hom(plan, rng)
        entry = {"index": index, "generator_cycles": [cycles_str(p) for p in h.images]}
        if word is not None:
            entry["word_image_cycles"] = cycles_str(evaluate_word(h, word))
        points.append(entry)
    return {"n": args.n, "g": args.g, "seed": args.seed, "points": points}, 0


def _estimate(args):
    spec = _parse_spec(args.spec, args.g)
    observables = {"joint": lambda h: joint_moment(h, spec)}
    stats = run_sampled_stats(get_sampler(args.n, args.g), observables, args.samples, args.seed)
    return {
        "n": args.n, "g": args.g, "spec": spec_to_text(spec), "method": "sample",
        "mean": stats.mean("joint"), "stderr": stats.stderr("joint"),
        "samples": stats.samples, "seed": args.seed,
    }, 0


def _predict(args):
    spec = _parse_spec(args.spec, args.g)
    limit = limit_product_moment(spec)
    return {
        "spec": spec_to_text(spec),
        "value": limit.value,
        "value_decimal": float(limit.value),
        "warnings": list(limit.warnings),
    }, 0


# the display-only decimal column that follows each exact ConvergenceRow field
_DECIMAL_KEYS = {
    "joint": "joint_decimal",
    "product_of_groups": "product_decimal",
    "prediction": "prediction_decimal",
}


def _convergence_row(row) -> dict:
    out = {}
    for field in dataclasses.fields(row):
        out[field.name] = value = getattr(row, field.name)
        if field.name in _DECIMAL_KEYS:
            out[_DECIMAL_KEYS[field.name]] = _decimal(value)
    return out


def _verify_over_n(runner, args):
    spec = _parse_spec(args.spec, args.g)
    n_values = tuple(int(tok) for tok in args.n_values.split(",") if tok.strip())
    report = runner(ExperimentPlan(spec, n_values, args.samples, args.seed, args.budget_visits))
    payload = {
        "spec": report.spec_text,
        "seed": report.seed,
        "samples": report.samples,
        "prediction": report.prediction,
        "rows": [_convergence_row(r) for r in report.rows],
    }
    if len(report.rows) >= 3:
        fit = fit_inverse_n([(r.n, r.abs_error) for r in report.rows])
        payload["fitted_C"] = fit.coefficient
        payload["max_n_times_error"] = fit.max_n_times_error
    # sampled rows may sit O(1/n) away from the limit; allow for that
    code = 0
    for r in report.rows:
        if r.joint_stderr is None:
            continue
        allowance = 3 * r.joint_stderr + (1.0 + abs(float(r.prediction))) * 0.75 / r.n
        if abs(r.joint - float(r.prediction)) > allowance:
            code = 1
    return payload, code


def _verify_cycles(args):
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
    return {
        "n": report.n, "samples": report.samples, "seed": report.seed,
        "rows": rows, "covariances": covs,
    }, code


def _selftest(args):
    only = None
    if args.only:
        only = [int(tok) for tok in args.only.split(",") if tok.strip()]
    results = acceptance.run_all(only=only, samples=args.samples, seed=args.seed, echo=print)
    failed = [r.number for r in results if not r.passed]
    criteria = [
        {"number": r.number, "name": r.name, "passed": r.passed, "details": r.details}
        for r in results
    ]
    return {"criteria": criteria, "failed": failed}, 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfcover",
        description="Fixed-point and cycle statistics of random surface-group actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, needs_n=False, spec=False, sampling=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, needs_n=needs_n)
        p.add_argument("-n", type=int, default=None, help="degree of the symmetric group")
        p.add_argument("-g", type=int, default=None, help="genus (default 2)")
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--format", default=None, choices=["json", "csv"])
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--timings", action="store_true", help="include runtime_ms")
        p.add_argument("--budget-visits", dest="budget_visits", type=int, default=None)
        if spec:
            example = """'gamma="a1" exps=[2,3] pow=1; delta="a2" exps=[4]'"""
            p.add_argument("--spec", default=None, help=f"e.g. {example}")
        if sampling:
            p.add_argument("--samples", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
        return p

    command("characters", _characters, "print the character table as CSV", needs_n=True)
    p = command("zeta", _zeta, "Witten zeta value", needs_n=True)
    p.add_argument("-s", type=int, required=True)
    command("hom-count", _hom_count, "number of homomorphism points", needs_n=True)
    command("enumerate", _enumerate, "exact expectation (or count) by enumeration",
            needs_n=True, spec=True)
    p = command("sample", _sample, "draw homomorphism points",
                needs_n=True, spec=True, sampling=True)
    p.add_argument("--count", type=int, default=None, help="number of points to draw")
    p.add_argument("--word", default=None, help="report the image of this word")
    command("estimate", _estimate, "Monte Carlo expectation of a spec",
            needs_n=True, spec=True, sampling=True)
    command("predict", _predict, "exact limit prediction for a spec", spec=True)
    p = command("verify-convergence", partial(_verify_over_n, run_convergence),
                "joint moment against its limit over n", spec=True, sampling=True)
    p.add_argument("--n-values", default=None, help="comma separated, e.g. 2,3,4,8")
    p = command("verify-independence", partial(_verify_over_n, run_independence),
                "joint versus product of groups over n", spec=True, sampling=True)
    p.add_argument("--n-values", default=None)
    p = command("verify-cycles", _verify_cycles, "short cycle statistics at one n",
                needs_n=True, spec=True, sampling=True)
    p.add_argument("--words", default=None, help="comma separated words, e.g. a1,a2")
    p.add_argument("--max-d", dest="max_d", type=int, default=None)
    p = command("selftest", _selftest, "run the acceptance criteria", sampling=True)
    p.add_argument("--only", default=None, help="comma separated criterion numbers")
    return parser


def run_command(args) -> tuple[bytes, int]:
    """Execute one parsed and merged command; returns (output bytes, exit code)."""
    started = time.monotonic()
    report, code = args.handler(args)
    if isinstance(report, dict):
        if args.timings:
            report["runtime_ms"] = int((time.monotonic() - started) * 1000)
        report = emit_report(report, args.format)
    return report, code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output, code = run_command(_merge_config(args))
        _write_output(output, args.out)
    except (OSError, ValueError, ArithmeticError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
