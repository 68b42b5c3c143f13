"""Desk-scale experiment drivers: convergence, independence, cycle statistics.

Each driver walks a list of n values, computing the observable exactly where
enumeration fits the budget and by seeded Monte Carlo elsewhere, then lines
the results up against the exact limit predictions. Exact rows carry
rationals and are bit-identical across runs; sampled rows carry a mean and a
standard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .homspace import (
    DEFAULT_MAX_VISITS,
    exact_means,
    get_sampler,
    hom_count,
    run_sampled_stats,
)
from .limits import limit_cycle_moment, limit_product_moment
from .observables import ObservableSpec, cycle_count, joint_moment, spec_to_text
from .words import IdentityWordError, is_identity

ENUMERATE = "enumerate"
SAMPLE = "sample"


@dataclass(frozen=True)
class ExperimentPlan:
    spec: ObservableSpec
    n_values: tuple[int, ...]
    samples: int = 100_000
    seed: int = 0
    budget_visits: int = DEFAULT_MAX_VISITS

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n values must be strictly increasing")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")

    def method_for(self, n: int) -> str:
        return ENUMERATE if hom_count(n, self.spec.genus) <= self.budget_visits else SAMPLE


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    method: str
    joint: object
    joint_stderr: float | None
    product_of_groups: object
    prediction: Fraction
    abs_error: float
    n_times_error: float
    gap: float
    gap_stderr: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    spec_text: str
    seed: int
    samples: int
    prediction: Fraction
    rows: tuple[ConvergenceRow, ...]


def _group_observables(spec: ObservableSpec):
    """Callables for the joint observable and each single-group observable."""
    evaluators = {"joint": lambda h: joint_moment(h, spec)}
    for i, sub in enumerate(spec.single_group_specs()):
        evaluators[f"group{i}"] = (lambda s: lambda h: joint_moment(h, s))(sub)
    return evaluators


def _row(n: int, plan: ExperimentPlan, prediction: Fraction) -> ConvergenceRow:
    """The joint mean and the product of the group means at n, exact from one
    enumeration within the visit budget and sampled from one stream beyond it."""
    spec = plan.spec
    evaluators = _group_observables(spec)
    names = [f"group{i}" for i in range(len(spec.groups))]
    method = plan.method_for(n)
    if method == ENUMERATE:
        means = exact_means(n, spec.genus, evaluators, plan.budget_visits)
        joint, stderr, gap_stderr = means["joint"], None, None
        product = prod((means[name] for name in names), start=Fraction(1))
        gap = joint - product
    else:
        stats = run_sampled_stats(get_sampler(n, spec.genus), evaluators, plan.samples, plan.seed)
        joint, stderr = stats.mean("joint"), stats.stderr("joint")
        gap, product, gap_stderr = stats.gap("joint", names)
    # float - Fraction is float(a) - float(b), so both kinds of row share one formula
    err = abs(joint - prediction)
    return ConvergenceRow(
        n=n,
        method=method,
        joint=joint,
        joint_stderr=stderr,
        product_of_groups=product,
        prediction=prediction,
        abs_error=float(err),
        n_times_error=float(n * err),
        gap=float(abs(gap)),
        gap_stderr=gap_stderr,
    )


def run_convergence(plan: ExperimentPlan) -> ConvergenceReport:
    """Joint moment, per-group product and limit prediction for each n."""
    prediction = limit_product_moment(plan.spec).value
    return ConvergenceReport(
        spec_text=spec_to_text(plan.spec),
        seed=plan.seed,
        samples=plan.samples,
        prediction=prediction,
        rows=tuple(_row(n, plan, prediction) for n in plan.n_values),
    )


def run_independence(plan: ExperimentPlan) -> ConvergenceReport:
    """Same rows as convergence with the joint-versus-product gap in focus."""
    if len(plan.spec.groups) < 2:
        raise ValueError("independence runs need at least two groups")
    return run_convergence(plan)


@dataclass(frozen=True)
class CycleRow:
    word: int
    d: int
    mean: float
    stderr: float
    prediction: Fraction


@dataclass(frozen=True)
class CycleCovRow:
    words: tuple[int, int]
    lengths: tuple[int, int]
    covariance: float
    covariance_stderr: float


@dataclass(frozen=True)
class CycleReport:
    n: int
    samples: int
    seed: int
    rows: tuple[CycleRow, ...]
    covariances: tuple[CycleCovRow, ...]


def run_cycle_convergence(
    words, max_d: int, n: int, samples: int, seed: int = 0, shards: int = 16
) -> CycleReport:
    """Sampled means of short-cycle counts against 1/d, plus cross covariances."""
    words = list(words)
    if not words:
        raise ValueError("need at least one word")
    if max_d < 1 or max_d > n:
        raise ValueError("cycle lengths must satisfy 1 <= d <= n")
    genus = words[0].genus
    # refused before the plan is built, which takes seconds and hundreds of MB past n = 20
    for w in words:
        if is_identity(w):
            raise IdentityWordError("cycle statistics need a non-identity word")
        if w.genus != genus:
            raise ValueError("all words must have the same genus")
    sampler = get_sampler(n, genus)
    lengths = range(1, max_d + 1)
    evaluators = {}
    for i, w in enumerate(words):
        for d in lengths:
            evaluators[f"c{i}_{d}"] = (lambda wi, di: lambda h: cycle_count(h, wi, di))(w, d)
    keys = [
        ((i, j), (d1, d2))
        for i in range(len(words))
        for j in range(i + 1, len(words))
        for d1 in lengths
        for d2 in lengths
    ]
    pairs = [(f"c{i}_{d1}", f"c{j}_{d2}") for (i, j), (d1, d2) in keys]
    stats = run_sampled_stats(sampler, evaluators, samples, seed, pairs=pairs, shards=shards)
    rows = tuple(
        CycleRow(
            word=i,
            d=d,
            mean=stats.mean(f"c{i}_{d}"),
            stderr=stats.stderr(f"c{i}_{d}"),
            prediction=limit_cycle_moment([(i, d, 1)]),
        )
        for i in range(len(words))
        for d in lengths
    )
    covs = tuple(
        CycleCovRow(
            words=indices,
            lengths=ds,
            covariance=stats.covariance(*pair),
            covariance_stderr=stats.covariance_stderr(*pair),
        )
        for (indices, ds), pair in zip(keys, pairs)
    )
    return CycleReport(n=n, samples=samples, seed=seed, rows=rows, covariances=covs)


@dataclass(frozen=True)
class InverseFit:
    coefficient: float
    residuals: tuple[float, ...]
    max_n_times_error: float


def fit_inverse_n(points) -> InverseFit:
    """Least squares fit of error = C / n over (n, error) pairs."""
    points = [(int(n), float(e)) for n, e in points]
    if len(points) < 3:
        raise ValueError("need at least 3 points to fit")
    if any(e < 0 for _, e in points):
        raise ValueError("errors must be non-negative")
    num = sum(e / n for n, e in points)
    den = sum(1 / n**2 for n, _ in points)
    coeff = num / den
    residuals = tuple(e - coeff / n for n, e in points)
    return InverseFit(
        coefficient=coeff,
        residuals=residuals,
        max_n_times_error=max(n * e for n, e in points),
    )
