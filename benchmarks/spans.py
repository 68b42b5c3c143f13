"""In-memory spans recorded around calls into the library, and the per-layer
numbers derived from them.

A span is ``[name, parent, start, end]``: ``parent`` is the index of the
enclosing span in the same list, or -1 at top level. Spans are opened and
closed by the benchmark's own code, never inside ``src/``.
"""

from __future__ import annotations

import math
from time import perf_counter


class Tracer:
    """Records nested spans in call order; one tracer per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else -1
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, parent, perf_counter(), 0.0])
        tracer._open.append(self.index)

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][3] = perf_counter()
        self.tracer._open.pop()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


# Span names, one per public entry point the benchmark calls.
FREEZE = "characters.freeze"
PLAN = "homspace.get_sampler"
BUCKETS = "homspace.get_buckets"
SAMPLE = "homspace.sample_hom"
ADD = "homspace.SampledStats.add"
ENUMERATE = "homspace.enumerate_homs"
JOINT = "observables.joint_moment"
CYCLE = "observables.cycle_count"
FIXED = "observables.fixed_points"
LIMIT = "limits.limit_product_moment"


def layer_metrics(spans, classes: int, points: int) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    ``classes`` is p(n) of the table in use and ``points`` the homomorphism
    points enumerate_homs reported; neither is a span.
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    sample_durations = []
    for (name, _, start, end), self_s in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        if name == SAMPLE:
            sample_durations.append(end - start)
    sample_total = sum(sample_durations)
    first_tenth = sample_durations[: math.ceil(len(sample_durations) / 10)]
    metrics = {
        "characters.freeze_s": total.get(FREEZE, 0.0),
        "characters.classes": classes,
        "homspace.plan_build_s": total.get(PLAN, 0.0),
        "homspace.buckets_build_s": total.get(BUCKETS, 0.0),
        "homspace.sample_hom.calls": calls.get(SAMPLE, 0),
        "homspace.sample_hom.self_s": own.get(SAMPLE, 0.0),
        "homspace.sample_hom.p50_us": percentile(sample_durations, 50) * 1e6,
        "homspace.sample_hom.p99_us": percentile(sample_durations, 99) * 1e6,
        "homspace.sample_hom.first_tenth_share": (
            sum(first_tenth) / sample_total if sample_total > 0 else 0.0
        ),
        "homspace.SampledStats.add.calls": calls.get(ADD, 0),
        "homspace.SampledStats.add.self_s": own.get(ADD, 0.0),
        "homspace.enumerate_homs.points": points,
        "homspace.enumerate_homs.self_s": own.get(ENUMERATE, 0.0),
    }
    for prefix, name in (
        ("observables.joint_moment", JOINT),
        ("observables.cycle_count", CYCLE),
        ("observables.fixed_points", FIXED),
        ("limits.limit_product_moment", LIMIT),
    ):
        metrics[prefix + ".calls"] = calls.get(name, 0)
        metrics[prefix + ".self_s"] = own.get(name, 0.0)
    return metrics
