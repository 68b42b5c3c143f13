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
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from typing import NamedTuple

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
    # JSON writes tuples, lists and dicts itself, so only CSV cells reach these
    if isinstance(v, tuple):  # such as a covariance's word pair
        return " ".join(map(str, v))
    if isinstance(v, (list, dict)):
        raise ValueError("a CSV cell cannot hold a list or dict")
    return v


def emit_report(report, fmt: str = "json") -> bytes:
    """Serialize a report dict (or list of row dicts) to stable bytes. CSV writes
    each list of rows as a table with its own header, blank-line separated."""
    if fmt == "json":
        return (json.dumps(report, indent=2, default=_format_value) + "\n").encode()
    if fmt == "csv":
        tables = [report] if isinstance(report, list) else [
            v for v in report.values() if isinstance(v, list)] or [[report]]
        buf = io.StringIO()
        for rows in filter(None, tables):
            if not all(isinstance(row, dict) for row in rows):
                raise ValueError("a CSV table needs a list of records")
            buf.write("\r\n" if buf.tell() else "")
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({k: _format_value(v) for k, v in row.items()} for row in rows)
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


class Flag(NamedTuple):
    options: tuple[str, ...]
    kwargs: dict  # for add_argument: type, help, choices, action or required
    default: object = None  # the value when neither the flag nor --config gives one
    check: Callable | None = None  # value -> error message, or None when it is fine


def _at_least(low, name):
    return lambda value: f"{name} must be >= {low}" if value < low else None


FORMATS = ("json", "csv")
# Every flag, declared once; build_parser names the ones each command reads.
FLAGS = {
    "n": Flag(("-n",), dict(type=int, help="degree of S_n"), None, _at_least(1, "-n")),
    "g": Flag(("-g",), dict(type=int, help="genus (default 2)"), 2, _at_least(2, "genus")),
    "s": Flag(("-s",), dict(type=int, required=True)),
    "spec": Flag(("--spec",), dict(help="""e.g. 'g="a1" exps=[2,3] pow=1; d="a2" exps=[4]'""")),
    "word": Flag(("--word",), dict(help="report the image of this word")),
    "words": Flag(("--words",), dict(help="comma separated words, e.g. a1,a2")),
    "count": Flag(("--count",), dict(type=int, help="number of points to draw"), 1,
                  _at_least(1, "--count")),
    "n_values": Flag(("--n-values",), dict(help="comma separated, e.g. 2,3,4,8"), "2,3,4"),
    "max_d": Flag(("--max-d",), dict(type=int), 3),
    "samples": Flag(("--samples",), dict(type=int), 100_000, _at_least(2, "--samples")),
    "seed": Flag(("--seed",), dict(type=int), 0),
    "budget_visits": Flag(("--budget-visits",), dict(type=int), DEFAULT_MAX_VISITS),
    "only": Flag(("--only",), dict(help="comma separated criterion numbers")),
    "format": Flag(("--format",), dict(choices=FORMATS), "json",
                   lambda value: None if value in FORMATS else f"unknown format {value!r}"),
    "timings": Flag(("--timings",), dict(action="store_true", help="include runtime_ms")),
    "config": Flag(("--config",), dict(help="flat key=value config file")),
    "out": Flag(("--out",), dict(help="output file (default stdout)")),
}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Resolve the command's flags that no flag gave, from --config and then the
    default, and range-check them; config keys the command does not take are skipped."""
    config = read_config(args.config) if args.config else {}
    for key, flag in FLAGS.items():
        if not hasattr(args, key):
            continue
        value = getattr(args, key)
        if value is None:
            value = flag.kwargs.get("type", str)(config[key]) if key in config else flag.default
            setattr(args, key, value)
        if value is None and key == "n":
            raise ValueError(f"{args.command} needs -n")
        if flag.check and (message := flag.check(value)):
            raise ValueError(message)
    return args


def _parse_spec(raw, genus: int):
    """Accept the text syntax or JSON, which must be an object with a groups list."""
    if not raw:
        raise ValueError("this command needs --spec")
    if raw.lstrip().startswith(("{", "[")):
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


# the display-only decimal column that follows each exact report row field
_DECIMAL_KEYS = {
    "joint": "joint_decimal",
    "product_of_groups": "product_decimal",
    "prediction": "prediction_decimal",
}


def _row(row) -> dict:
    out = {}
    for field in dataclasses.fields(row):
        out[field.name] = value = getattr(row, field.name)
        if field.name in _DECIMAL_KEYS:
            out[_DECIMAL_KEYS[field.name]] = float(value)
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
        "rows": [_row(r) for r in report.rows],
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
    # allow the known O(1/n) drift on top of the statistical band
    code = 0
    for i in report.rows:
        if abs(i.mean - float(i.prediction)) > 3 * i.stderr + 0.75 / report.n:
            code = 1
    return {
        "n": report.n, "samples": report.samples, "seed": report.seed,
        "rows": [_row(r) for r in report.rows],
        "covariances": [_row(c) for c in report.covariances],
    }, code


def _selftest(args):
    only = None
    if args.only is not None:
        only = [int(tok) for tok in args.only.split(",") if tok.strip()]
        if not only:
            raise ValueError("--only names no criterion")
        for number in only:
            if number not in acceptance.CRITERIA:
                raise ValueError(f"unknown criterion {number}")
    echo = partial(print, file=sys.stderr)
    results = acceptance.run_all(only=only, samples=args.samples, seed=args.seed, echo=echo)
    failed = [r.number for r in results if not r.passed]
    criteria = []
    for r in results:
        entry = {"number": r.number, "name": r.name, "passed": r.passed, "details": r.details}
        if args.timings:
            entry["runtime_ms"] = int(r.elapsed_s * 1000)
        criteria.append(entry)
    return {"criteria": criteria, "failed": failed}, 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfcover",
        description="Fixed-point and cycle statistics of random surface-group actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *keys):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for key in (*keys, "config", "out"):
            p.add_argument(*FLAGS[key].options, dest=key, **FLAGS[key].kwargs)

    report = ("format", "timings")
    over_n = ("g", "spec", "n_values", "samples", "seed", "budget_visits", *report)
    command("characters", _characters, "print the character table as CSV", "n")
    command("zeta", _zeta, "Witten zeta value", "n", "s")
    command("hom-count", _hom_count, "number of homomorphism points", "n", "g")
    command("enumerate", _enumerate, "exact expectation (or count) by enumeration",
            "n", "g", "spec", "budget_visits", *report)
    command("sample", _sample, "draw homomorphism points",
            "n", "g", "seed", "count", "word", "timings")
    command("estimate", _estimate, "Monte Carlo expectation of a spec",
            "n", "g", "spec", "samples", "seed", *report)
    command("predict", _predict, "exact limit prediction for a spec", "g", "spec", "timings")
    command("verify-convergence", partial(_verify_over_n, run_convergence),
            "joint moment against its limit over n", *over_n)
    command("verify-independence", partial(_verify_over_n, run_independence),
            "joint versus product of groups over n", *over_n)
    command("verify-cycles", _verify_cycles, "short cycle statistics at one n",
            "n", "g", "words", "max_d", "samples", "seed", *report)
    command("selftest", _selftest, "run the acceptance criteria",
            "only", "samples", "seed", "timings")
    return parser


def run_command(args) -> tuple[bytes, int]:
    """Execute one parsed and merged command; returns (output bytes, exit code)."""
    started = time.monotonic()
    report, code = args.handler(args)
    if isinstance(report, dict):
        if args.timings:
            report["runtime_ms"] = int((time.monotonic() - started) * 1000)
        # sample, predict and selftest nest lists in a record and write JSON only
        report = emit_report(report, getattr(args, "format", "json"))
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
