"""One instance of one workload, in a fresh process, through the public API.

Run by ``run.py``; prints one JSON report line. Every plan, table, bucket
set and slab is a process-level cache in the library, so each instance runs
in its own process and pays the cold cost a CLI invocation pays.

Untraced, the instance calls the library's own runners (``run_sampled_stats``,
``run_cycle_convergence``, ``exact_expectation``). Traced, it re-drives the
same work from public calls with a span around each call into a layer;
``checks.py`` requires both to produce identical results.
"""

import time

T0 = time.perf_counter()  # process start, before the library is imported

import argparse
import json
import random
import resource
import sys
from contextlib import nullcontext
from functools import partial
from pathlib import Path

import surfcover
from surfcover.characters import get_table, hom_count
from surfcover.homspace import (
    SampledStats,
    Seed,
    enumerate_homs,
    exact_expectation,
    generator_fix_expectation,
    get_buckets,
    get_sampler,
    run_sampled_stats,
    sample_hom,
    stream_for,
)
from surfcover.limits import factorization_identity_holds, limit_product_moment
from surfcover.observables import (
    ObservableGroup,
    ObservableSpec,
    cycle_count,
    fixed_points,
    joint_moment,
    spec_from_text,
)
from surfcover.verify import run_cycle_convergence
from surfcover.words import Word, is_identity, word_from_text

import checks
import spans

# Work per instance, sized so that one instance takes a few seconds here and
# several fit in one measured run.
MC_SAMPLES = 500
CYCLE_SAMPLES = 1000
PLAN_BURST = 500
JOINT15 = 'gamma="a1" exps=[2,3]; delta="a2" exps=[4]'
CYCLE_WORDS = ("a1", "a2", "b3")
MAX_D = 3
SHARDS = 16  # run_sampled_stats' default, repeated by the traced re-drive

# (exponents, power) per group of each exact spec. Only the words are drawn
# from the seed, all of one length, so the work per instance is comparable
# across seeds. The last shape is the heavy limit-oracle case.
EXACT_SHAPES = (
    (((1,), 1),),
    (((2, 3), 1), ((4,), 1)),
    (((2, 3, 4, 6), 3), ((12,), 2)),
)
EXACT_WORD_LENGTH = 3
assert len(EXACT_SHAPES) == checks.EXACT_SPECS


def random_word(rng: random.Random, genus: int, length: int) -> Word:
    """Uniform freely reduced word of the given length."""
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        letter = (rng.randrange(2 * genus), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return Word(tuple(letters), genus)


def exact_specs(seed: int, genus: int = 2) -> list[ObservableSpec]:
    """One spec per shape, with distinct non-identity words drawn from the seed."""
    rng = random.Random(f"surfcover-bench:exact:{seed}")
    specs = []
    for shape in EXACT_SHAPES:
        words: list[Word] = []
        while len(words) < len(shape):
            word = random_word(rng, genus, EXACT_WORD_LENGTH)
            if not is_identity(word) and word not in words:
                words.append(word)
        groups = tuple(
            ObservableGroup(word, exps, power) for word, (exps, power) in zip(words, shape)
        )
        specs.append(ObservableSpec(groups, genus))
    return specs


class OpFailed(Exception):
    """An operation raised; later operations of the instance cannot run."""


class Instance:
    """Timings, operation outcomes and (when traced) spans of one instance."""

    def __init__(self, workload: str, traced: bool, references: bool):
        self.tracer = spans.Tracer() if traced else None
        self.references = references
        self.report = {
            "workload": workload,
            "traced": traced,
            "setup_s": None,
            "wall_s": None,
            "items": 0,
            "items_s": 0.0,
            "peak_rss_mb": None,
            "ops": {},
            "references": {} if references else None,
            "layers": None,
        }

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def call(self, name: str, fn, *args):
        """fn(*args), inside a span when traced."""
        with self.span(name):
            return fn(*args)

    def op(self, name: str, fn):
        """Run one operation; a raise is recorded as its failure."""
        try:
            value = fn()
        except Exception as exc:  # counted as a failed operation, then reported
            self.report["ops"][name] = {"error": f"{type(exc).__name__}: {exc}", "result": None}
            raise OpFailed(name) from exc
        self.report["ops"][name] = {"error": None, "result": None}
        return value

    def setup_done(self) -> None:
        self.report["setup_s"] = time.perf_counter() - T0

    def results_exist(self) -> None:
        self.report["wall_s"] = time.perf_counter() - T0
        self.report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def count_items(self, items: int, seconds: float) -> None:
        self.report["items"] += items
        self.report["items_s"] += seconds

    def set_result(self, name: str, result: dict, reference=None) -> None:
        """``reference`` computes the op's reference values; only the first
        instance of a run calls it."""
        self.report["ops"][name]["result"] = result
        if self.references and reference is not None:
            self.report["references"][name] = reference()

    def set_layers(self, n: int, points: int = 0) -> None:
        if self.tracer:
            classes = len(get_table(n).partitions)
            self.report["layers"] = spans.layer_metrics(self.tracer.spans, classes, points)


# ---------------------------------------------------------------------------
# Shared steps


def build_plan(inst: Instance, n: int, genus: int):
    inst.call(spans.FREEZE, get_table(n).freeze)
    return inst.call(spans.PLAN, get_sampler, n, genus)


def drive_sampled_stats(inst: Instance, plan, evaluators: dict, samples: int, seed: int, pairs=()):
    """run_sampled_stats' loop from public calls, with a span around each call."""
    shards = min(SHARDS, samples)
    stats = SampledStats(evaluators.keys(), samples, shards)
    for nx, ny in pairs:
        stats.track_pair(nx, ny)
    span = inst.tracer.span
    for shard in range(shards):
        rng = stream_for(Seed(seed), shard)
        for _ in range(samples // shards + (1 if shard < samples % shards else 0)):
            with span(spans.SAMPLE):
                h = sample_hom(plan, rng)
            values = {}
            for name, (layer, fn) in evaluators.items():
                with span(layer):
                    values[name] = fn(h)
            with span(spans.ADD):
                stats.add(shard, values)
    return stats


def sampled_stats(inst: Instance, plan, evaluators: dict, samples: int, seed: int) -> SampledStats:
    start = time.perf_counter()
    if inst.tracer:
        stats = drive_sampled_stats(inst, plan, evaluators, samples, seed)
    else:
        plain = {name: fn for name, (_, fn) in evaluators.items()}
        stats = run_sampled_stats(plan, plain, samples, Seed(seed), shards=SHARDS)
    inst.count_items(samples, time.perf_counter() - start)
    return stats


def fix_reference(mean: float, stderr: float, n: int, genus: int) -> dict:
    return {"mean": mean, "stderr": stderr, "exact": str(generator_fix_expectation(n, genus))}


# ---------------------------------------------------------------------------
# Workloads


def fixed_point_sampling(inst: Instance, seed: int, n: int, genus: int, samples: int, joint15: bool):
    """mc_g2_n16 (joint15 and fixed points) and plan_g2_n20 (fixed points only)."""
    plan = inst.op("plan", lambda: build_plan(inst, n, genus))
    inst.setup_done()
    a1 = word_from_text("a1", genus)
    evaluators = {"fix_a1": (spans.FIXED, partial(fixed_points, w=a1))}
    if joint15:
        spec = spec_from_text(JOINT15, genus)
        evaluators["joint15"] = (spans.JOINT, partial(joint_moment, spec=spec))
    stats = inst.op("estimate", lambda: sampled_stats(inst, plan, evaluators, samples, seed))
    inst.results_exist()
    inst.set_result("plan", {"total_weight": plan.total_weight})
    inst.set_result(
        "estimate",
        {"sums": stats.sums, "sumsqs": stats.sumsqs},
        lambda: fix_reference(stats.mean("fix_a1"), stats.stderr("fix_a1"), n, genus),
    )
    inst.set_layers(n)


def mc_g2_n16(inst: Instance, seed: int) -> None:
    fixed_point_sampling(inst, seed, 16, 2, MC_SAMPLES, joint15=True)


def plan_g2_n20(inst: Instance, seed: int) -> None:
    fixed_point_sampling(inst, seed, 20, 2, PLAN_BURST, joint15=False)


def cycles_g3_n10(inst: Instance, seed: int) -> None:
    n, genus = 10, 3
    plan = inst.op("plan", lambda: build_plan(inst, n, genus))
    inst.setup_done()
    words = [word_from_text(w, genus) for w in CYCLE_WORDS]

    def estimate():
        start = time.perf_counter()
        if inst.tracer is None:
            report = run_cycle_convergence(words, MAX_D, n, CYCLE_SAMPLES, seed, shards=SHARDS)
            out = (
                [row.mean for row in report.rows],
                [row.stderr for row in report.rows],
                [cov.covariance for cov in report.covariances],
            )
        else:
            # The evaluator names and pair order of run_cycle_convergence.
            evaluators = {
                f"c{i}_{d}": (spans.CYCLE, partial(cycle_count, w=w, d=d))
                for i, w in enumerate(words)
                for d in range(1, MAX_D + 1)
            }
            pairs = [
                (f"c{i}_{d1}", f"c{j}_{d2}")
                for i in range(len(words))
                for j in range(i + 1, len(words))
                for d1 in range(1, MAX_D + 1)
                for d2 in range(1, MAX_D + 1)
            ]
            stats = drive_sampled_stats(inst, plan, evaluators, CYCLE_SAMPLES, seed, pairs)
            out = (
                [stats.mean(name) for name in evaluators],
                [stats.stderr(name) for name in evaluators],
                [stats.covariance(x, y) for x, y in pairs],
            )
        inst.count_items(CYCLE_SAMPLES, time.perf_counter() - start)
        return out

    means, stderrs, covariances = inst.op("estimate", estimate)
    inst.results_exist()
    inst.set_result("plan", {"total_weight": plan.total_weight})
    # c0_1 counts the fixed points of a1.
    inst.set_result(
        "estimate",
        {"means": means, "covariances": covariances},
        lambda: fix_reference(means[0], stderrs[0], n, genus),
    )
    inst.set_layers(n)


def exact_g2_n4(inst: Instance, seed: int) -> None:
    n, genus = 4, 2
    specs = exact_specs(seed, genus)
    buckets = inst.op("buckets", lambda: inst.call(spans.BUCKETS, get_buckets, n))
    inst.setup_done()
    results = []
    points_total = 0
    for i, spec in enumerate(specs):

        def columns(spec=spec):
            if inst.tracer is None:
                start = time.perf_counter()
                value = exact_expectation(n, genus, spec)
                seconds = time.perf_counter() - start
                inst.count_items(hom_count(n, genus), seconds)
                result = {"value": str(value)}
            else:
                total = 0

                def visitor(h):
                    nonlocal total
                    with inst.tracer.span(spans.JOINT):
                        total += joint_moment(h, spec)

                points = inst.call(spans.ENUMERATE, enumerate_homs, n, genus, visitor)
                result = {"visitor_sum": total, "points": points}
            result["limit"] = str(inst.call(spans.LIMIT, limit_product_moment, spec).value)
            return result

        results.append(inst.op(f"spec{i}", columns))
        points_total += results[-1].get("points", 0)
    inst.results_exist()
    inst.set_result("buckets", {"total_pairs": buckets.total_pairs()})
    for i, (spec, result) in enumerate(zip(specs, results)):
        inst.set_result(
            f"spec{i}",
            result,
            lambda spec=spec: {"factorization_identity": factorization_identity_holds(spec)},
        )
    inst.set_layers(n, points_total)


WORKLOADS = {
    "mc_g2_n16": mc_g2_n16,
    "cycles_g3_n10": cycles_g3_n10,
    "exact_g2_n4": exact_g2_n4,
    "plan_g2_n20": plan_g2_n20,
}
assert WORKLOADS.keys() == checks.OPS.keys()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warmup", action="store_true", help="import everything and exit")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(surfcover.__file__).resolve().parent.parent != src:
        print(f"surfcover was imported from {surfcover.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.warmup:
        print(json.dumps({}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    inst = Instance(args.workload, bool(args.trace), bool(args.references))
    try:
        WORKLOADS[args.workload](inst, args.seed % 2**64)
    except OpFailed:
        pass
    for op in checks.OPS[args.workload]:
        inst.report["ops"].setdefault(op, {"error": "not run", "result": None})
    print(json.dumps(inst.report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
