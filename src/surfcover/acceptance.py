"""The acceptance criteria as callable checks.

Each criterion returns its verdict and a one-line summary; `run_criterion`
times it and applies its time limit from `CRITERIA`. The CLI selftest and the
test suite both run these. Tolerances are pinned here, not in the callers.
Sampled criteria share one stream of points per n so the whole battery needs
a single Monte Carlo pass at each size.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import factorial, isfinite, sqrt
from operator import mul

from .characters import class_size, commutator_count, get_table, hom_count
from .homspace import (
    Seed,
    enumerate_homs,
    generator_fix_expectation,
    generator_spec_expectation,
    get_sampler,
    handle_product_means,
    run_sampled_stats,
    sample_hom,
    stream_for,
)
from .limits import bell_number, limit_cycle_moment, limit_product_moment
from .observables import (
    ObservableGroup,
    ObservableSpec,
    cycle_count,
    cycles_from_fixed_points,
    d_count,
    divisors,
    joint_moment,
)
from .perms import (
    commutator,
    compose,
    cycle_type,
    d_cycle_count,
    evaluate_word,
    fix_count,
    identity,
)
from .verify import fit_inverse_n
from .words import (
    Word,
    concat,
    conjugated_word,
    dehn_reduce,
    inverse_word,
    relator,
    word_from_text,
)

GENUS = 2
SAMPLED_N = (8, 12, 16)
CYCLE_D = (1, 2, 3)
EXACT_N = (2, 3, 4)
# At 1e5 samples the expected total-variation distance of a perfect sampler
# from uniform over 486 points is about 0.028, above the 0.02 tolerance;
# 3e5 samples put the noise floor near 0.016 so the test measures the
# sampler, not the sample size.
UNIFORMITY_SAMPLES = 300_000
CHI2_Z_999 = 3.090232306167813


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed_s: float

    def line(self) -> str:
        """The [PASS]/[FAIL] line that selftest and the test suite print."""
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number} ({self.name}): {self.details}"


def _chi2_quantile(p_z: float, df: int) -> float:
    """Wilson-Hilferty approximation, accurate to ~0.1% at these df."""
    t = 2.0 / (9.0 * df)
    return df * (1.0 - t + p_z * sqrt(t)) ** 3


def _word(text: str) -> Word:
    return word_from_text(text, GENUS)


class AcceptanceContext:
    """Shared heavyweight artifacts: sampled statistics and exact rows."""

    def __init__(self, samples: int = 100_000, seed: int = 0):
        if samples < 100_000:
            raise ValueError("the criteria require at least 1e5 samples")
        self.samples = samples
        self.seed = seed
        self._stats = {}
        self._exact_cycles = {}
        self.a1 = _word("a1")
        self.a2 = _word("a2")
        self.spec15 = ObservableSpec(
            (ObservableGroup(self.a1, (2, 3)), ObservableGroup(self.a2, (4,))), GENUS
        )

    def sampled_stats(self, n: int):
        if n not in self._stats:
            gamma, delta = self.spec15.groups
            moment = lambda *groups: partial(joint_moment, spec=ObservableSpec(groups, GENUS))
            evaluators = {
                "joint15": moment(gamma, delta),
                "g_gamma": moment(gamma),
                "g_delta": moment(delta),
                "ctrl_joint": moment(ObservableGroup(self.a1, (1, 2))),
                "ctrl_2": moment(ObservableGroup(self.a1, (2,))),
            }
            for i, w in ((1, self.a1), (2, self.a2)):
                evaluators.update((f"c{i}_{d}", partial(cycle_count, w=w, d=d)) for d in CYCLE_D)
            pairs = [(f"c1_{x}", f"c2_{y}") for x, y in itertools.product(CYCLE_D, CYCLE_D)]
            self._stats[n] = run_sampled_stats(
                get_sampler(n, GENUS), evaluators, self.samples, Seed(self.seed, n), pairs
            )
        return self._stats[n]

    def fixed_point_fit(self):
        """|E_n[F(a1)] - 1| by n, exact at EXACT_N and sampled at SAMPLED_N,
        and its O(1/n) fit."""
        errors = {n: float(abs(generator_fix_expectation(n, GENUS) - 1)) for n in EXACT_N}
        errors.update((n, abs(self.sampled_stats(n).mean("c1_1") - 1.0)) for n in SAMPLED_N)
        return errors, fit_inverse_n(errors.items())

    def exact_cycle_moments(self, n: int):
        """Exact finite-n E_n[C_d] of any generator by d, and Cov_n[C_d1(a1),
        C_d2(a2)] by (d1, d2), from one pass of per-handle character sums."""
        if n not in self._exact_cycles:
            count = {d: (lambda kappa, d=d: kappa.count(d)) for d in CYCLE_D}
            pairs = list(itertools.product(CYCLE_D, CYCLE_D))
            terms = [(count[d],) for d in CYCLE_D] + [(count[x], count[y]) for x, y in pairs]
            values = handle_product_means(n, GENUS, terms)
            means = dict(zip(CYCLE_D, values))
            joint = values[len(CYCLE_D):]
            covs = {(x, y): v - means[x] * means[y] for (x, y), v in zip(pairs, joint)}
            self._exact_cycles[n] = (means, covs)
        return self._exact_cycles[n]


# ---------------------------------------------------------------------------
# criteria


def criterion_hom_counts(ctx: AcceptanceContext) -> tuple[bool, str]:
    """Formula counts match exhaustive quadruple loops for n = 2, 3, 4."""
    observed = {}
    for n in (2, 3, 4):
        perms = list(itertools.permutations(range(n)))
        ident = identity(n)
        count = 0
        for x1 in perms:
            for y1 in perms:
                lead = commutator(x1, y1)
                for x2 in perms:
                    for y2 in perms:
                        if compose(lead, commutator(x2, y2)) == ident:
                            count += 1
        observed[n] = count
    expected = {n: hom_count(n, 2) for n in (2, 3, 4)}
    passed = observed == expected and observed[2] == 16 and observed[3] == 486
    return passed, f"brute force {observed}, formula {expected}"


S5_REFERENCE = {
    # rows: irreducible; columns: classes (5),(4,1),(3,2),(3,1,1),(2,2,1),(2,1,1,1),(1^5)
    (5,): (1, 1, 1, 1, 1, 1, 1),
    (4, 1): (-1, 0, -1, 1, 0, 2, 4),
    (3, 2): (0, -1, 1, -1, 1, 1, 5),
    (3, 1, 1): (1, 0, 0, 0, -2, 0, 6),
    (2, 2, 1): (0, 1, -1, -1, 1, -1, 5),
    (2, 1, 1, 1): (-1, 0, 1, 1, 0, -2, 4),
    (1, 1, 1, 1, 1): (1, -1, -1, 1, 1, -1, 1),
}


def criterion_characters(ctx: AcceptanceContext) -> tuple[bool, str]:
    """Full S5 table vs. reference; exact orthogonality; dimension sums."""
    table5 = get_table(5)
    table_ok = all(
        table5.row(lam) == S5_REFERENCE[lam] for lam in table5.partitions
    )
    ortho_ok = True
    for n in range(1, 9):
        t = get_table(n).freeze()
        nf = factorial(n)
        rows = list(zip(*t.matrix))
        for i, row in enumerate(rows):
            for j, row2 in enumerate(rows):
                inner = sum(map(mul, map(mul, t.class_sizes, row), row2))
                if inner != (nf if i == j else 0):
                    ortho_ok = False
    dims_ok = all(
        sum(d * d for d in get_table(n).dims) == factorial(n) for n in range(1, 13)
    )
    return table_ok and ortho_ok and dims_ok, (
        f"S5 table match={table_ok}, orthogonality n<=8={ortho_ok}, "
        f"dim^2 sums n<=12={dims_ok}"
    )


def criterion_frobenius(ctx: AcceptanceContext) -> tuple[bool, str]:
    """Commutator-pair counts: non-negative, total (n!)^2, S3 brute force."""
    totals_ok = True
    nonneg_ok = True
    for n in range(1, 9):
        total = 0
        for mu in get_table(n).partitions:
            value = commutator_count(n, mu)
            if value < 0:
                nonneg_ok = False
            total += class_size(mu) * value
        if total != factorial(n) ** 2:
            totals_ok = False
    # brute force over all 36 pairs of S3
    perms3 = list(itertools.permutations(range(3)))
    brute = Counter()
    for a in perms3:
        for b in perms3:
            brute[cycle_type(commutator(a, b))] += 1
    s3_expected = {(1, 1, 1): 18, (2, 1): 0, (3,): 9}
    s3_ok = all(
        brute.get(mu, 0) == commutator_count(3, mu) * class_size(mu)
        and commutator_count(3, mu) == per_element
        for mu, per_element in s3_expected.items()
    )
    return totals_ok and nonneg_ok and s3_ok, (
        f"totals n<=8={totals_ok}, non-negative={nonneg_ok}, S3 (18,0,9)={s3_ok}"
    )


def criterion_sampler_uniformity(ctx: AcceptanceContext) -> tuple[bool, str]:
    """Sampled law at n=3 vs. the enumerated 486-point uniform law."""
    support = []
    enumerate_homs(3, GENUS, support.append)
    support_set = set(support)
    plan = get_sampler(3, GENUS)
    n_samples = UNIFORMITY_SAMPLES
    counts: Counter = Counter()
    relator_ok = True
    rng = stream_for(Seed(ctx.seed, 3), 999)
    ident = identity(3)
    for _ in range(n_samples):
        h = sample_hom(plan, rng)
        if h not in support_set:
            relator_ok = False
            break
        prod = identity(3)
        for i in range(GENUS):
            prod = compose(prod, commutator(h.images[2 * i], h.images[2 * i + 1]))
        if prod != ident:
            relator_ok = False
            break
        counts[h] += 1
    expected = n_samples / 486
    chi2 = sum((counts.get(h, 0) - expected) ** 2 / expected for h in support)
    quantile = _chi2_quantile(CHI2_Z_999, 485)
    tv = 0.5 * sum(abs(counts.get(h, 0) / n_samples - 1 / 486) for h in support)
    return relator_ok and tv < 0.02 and chi2 < quantile, (
        f"TV={tv:.4f} (<0.02), chi2={chi2:.1f} (<{quantile:.1f}), "
        f"relator on all samples={relator_ok}, {n_samples} samples"
    )


def _set_partition_count(m: int) -> int:
    """Count set partitions of {1..m} by direct enumeration."""
    if m == 0:
        return 1
    count = 0
    blocks: list[list[int]] = []

    def place(item: int):
        nonlocal count
        if item == m:
            count += 1
            return
        for block in blocks:
            block.append(item)
            place(item + 1)
            block.pop()
        blocks.append([item])
        place(item + 1)
        blocks.pop()

    place(0)
    return count


def criterion_limit_oracle(ctx: AcceptanceContext) -> tuple[bool, str]:
    """Worked 15 value, divisor-count limits, Bell-number moments."""
    fifteen_ok = limit_product_moment(ctx.spec15).value == 15
    divisor_ok = all(
        limit_product_moment(
            ObservableSpec((ObservableGroup(ctx.a1, (a,)),), GENUS)
        ).value
        == d_count(a)
        for a in range(1, 49)
    )
    bell_ok = all(bell_number(m) == _set_partition_count(m) for m in range(11))
    return fifteen_ok and divisor_ok and bell_ok, (
        f"15-spec={fifteen_ok}, d(a) a<=48={divisor_ok}, Bell m<=10={bell_ok}"
    )


def _band(stats, name: str, n: int, centre: Fraction):
    """Whether a sampled mean lies within 3 standard errors of its exact
    finite-n mean, with a line giving the centre, the estimate and the z-score."""
    mean, stderr = stats.mean(name), stats.stderr(name)
    offset = mean - float(centre)
    inside = abs(offset) <= 3 * stderr
    z = offset / stderr if stderr > 0 else float("inf")
    text = (
        f"n={n} exact={float(centre):.5f} mean={mean:.5f}+-{stderr:.5f} "
        f"z={z:+.2f} (|z|<=3: {inside})"
    )
    return inside, text


def criterion_convergence(ctx: AcceptanceContext) -> tuple[bool, str]:
    """Mean fixed points of a generator a1 and its convergence to d(a1) = 1.

    Each sampled mean (n = 8, 12, 16) is tested against the exact finite-n
    mean E_n[F(a1)] from the character-sum closed form: it must lie within
    3 standard errors of it. Convergence to the limit 1 is tested on the
    exact means at n = 2, 3, 4 and the sampled errors through an O(1/n) fit.
    """
    errors, fit = ctx.fixed_point_fit()
    lines = [f"n={n} exact={generator_fix_expectation(n, GENUS)}" for n in EXACT_N]
    band_ok = True
    for n in SAMPLED_N:
        inside, text = _band(ctx.sampled_stats(n), "c1_1", n, generator_fix_expectation(n, GENUS))
        band_ok = band_ok and inside
        lines.append(f"{text} |mean-1|={errors[n]:.5f}")
    finite_ok = isfinite(fit.max_n_times_error)
    largest = max(SAMPLED_N)
    decay_ok = errors[largest] < 5 * fit.coefficient / largest
    return band_ok and finite_ok and decay_ok, (
        "; ".join(lines)
        + f"; C_fit={fit.coefficient:.4f}, max n*e={fit.max_n_times_error:.3f}, "
        f"e_{largest}<5C/{largest}={decay_ok}"
    )


def criterion_independence(ctx: AcceptanceContext) -> tuple[bool, str]:
    """Joint moment of joint15 = F(a1^2)F(a1^3)F(a2^4), the joint-versus-product
    gap, and the same-base negative control.

    The sampled mean at n=16 is tested against the exact finite-n mean
    E_16[joint15] from the per-handle character sums: it must lie within
    3 standard errors of it. Convergence to the limit 15 is tested on exact
    values: the limit oracle gives 15, and |E_n[joint15] - 15| falls strictly
    over n = 8, 12, 16.
    """
    stats16 = ctx.sampled_stats(16)
    stats8 = ctx.sampled_stats(8)
    exact15 = {n: generator_spec_expectation(n, GENUS, ctx.spec15) for n in SAMPLED_N}
    close_ok, close_text = _band(stats16, "joint15", 16, exact15[16])
    limit_ok = limit_product_moment(ctx.spec15).value == 15
    distances = [abs(exact15[n] - 15) for n in SAMPLED_N]
    falling_ok = all(d1 > d2 for d1, d2 in zip(distances, distances[1:]))
    factors = ("g_gamma", "g_delta")
    gap16, _, gap16_se = stats16.gap("joint15", factors)
    gap8, _, _ = stats8.gap("joint15", factors)
    gap_ok = abs(gap16) < abs(gap8) or abs(gap16) <= 2 * gap16_se

    c_fit = ctx.fixed_point_fit()[1].coefficient
    control_gap = abs(stats16.gap("ctrl_joint", ("c1_1", "ctrl_2"))[0])
    control_ok = control_gap > 5 * c_fit / 16
    return close_ok and limit_ok and falling_ok and gap_ok and control_ok, (
        f"joint15 {close_text}; "
        f"|E_n-15| n={','.join(map(str, SAMPLED_N))}: "
        f"{', '.join(f'{float(d):.3f}' for d in distances)} (falling={falling_ok}); "
        f"limit 15={limit_ok}; "
        f"gap16={gap16:+.3f}+-{gap16_se:.3f} vs gap8={gap8:+.3f} (ok={gap_ok}); "
        f"control gap={control_gap:.3f} > 5C/n={5 * c_fit / 16:.3f} ({control_ok})"
    )


def criterion_cycle_statistics(ctx: AcceptanceContext) -> tuple[bool, str]:
    """Short-cycle means C_d(a1), C_d(a2) and cross-word covariances at n=16,
    each within 3 standard errors of its exact finite-n value. Convergence to
    the limits 1/d and 0 is tested on exact values: the limit oracle gives
    them, and every |E_n - 1/d| and |Cov_n| falls strictly over n = 8, 12, 16.
    """
    stats = ctx.sampled_stats(16)
    means16, covs16 = ctx.exact_cycle_moments(16)
    lines = []
    means_ok = True
    for word, d in itertools.product((1, 2), CYCLE_D):
        inside, text = _band(stats, f"c{word}_{d}", 16, means16[d])
        means_ok = means_ok and inside
        lines.append(f"c{word}_{d} {text}")
    cov_ok = True
    worst = 0.0
    for (d1, d2), exact in covs16.items():
        offset = stats.covariance(f"c1_{d1}", f"c2_{d2}") - float(exact)
        cov_se = stats.covariance_stderr(f"c1_{d1}", f"c2_{d2}")
        cov_ok = cov_ok and abs(offset) <= 3 * cov_se
        worst = max(worst, abs(offset) / cov_se if cov_se > 0 else float("inf"))
    limits = {d: limit_cycle_moment([(0, d, 1)]) for d in CYCLE_D}
    limit_ok = all(limits[d] == Fraction(1, d) for d in CYCLE_D) and all(
        limit_cycle_moment([(0, x, 1), (1, y, 1)]) == limits[x] * limits[y] for x, y in covs16
    )
    exact = [ctx.exact_cycle_moments(n) for n in SAMPLED_N]
    series = [[abs(means[d] - limits[d]) for means, _ in exact] for d in CYCLE_D]
    series += [[abs(covs[key]) for _, covs in exact] for key in covs16]
    falling_ok = all(a > b for s in series for a, b in zip(s, s[1:]))
    return means_ok and cov_ok and limit_ok and falling_ok, (
        "; ".join(lines)
        + f"; max |cov-Cov_16|/se={worst:.2f} (<=3: {cov_ok}); "
        f"limits 1/d and 0={limit_ok}; {len(series)} exact distances falling over "
        f"n={','.join(map(str, SAMPLED_N))}={falling_ok}"
    )


def criterion_structural_identities(ctx: AcceptanceContext) -> tuple[bool, str]:
    """Power, inversion, conjugation and reduction identities on every
    enumerated point for n <= 4."""
    base_words = [_word("a1"), _word("a1 b1")]
    conjugator = _word("b2")
    rel = relator(GENUS)
    dehn_pairs = []
    for w in base_words:
        padded = concat(w, rel)
        padded = concat(conjugated_word(padded, conjugator), rel)
        reduced = dehn_reduce(padded)
        dehn_pairs.append((padded, reduced))
    failures = []

    def check(h):
        for w in base_words:
            img = evaluate_word(h, w)
            inv_img = evaluate_word(h, inverse_word(w))
            if fix_count(img) != fix_count(inv_img):
                failures.append(("inverse", w))
            conj_img = evaluate_word(h, conjugated_word(w, conjugator))
            if fix_count(img) != fix_count(conj_img):
                failures.append(("conjugate", w))
            fixes, powered = {}, identity(h.n)
            for a in range(1, 7):
                powered = compose(powered, img)  # img^a by direct composition
                fixes[a] = fix_count(powered)
                expected = sum(
                    d * d_cycle_count(img, d) for d in divisors(a) if d <= h.n
                )
                if fixes[a] != expected:
                    failures.append(("power", w, a))
            for r in range(1, 5):
                direct = d_cycle_count(img, r) if r <= h.n else 0
                data = {q: fixes[q] for q in divisors(r)}
                if r <= h.n and cycles_from_fixed_points(data, r) != direct:
                    failures.append(("mobius", w, r))
        for padded, reduced in dehn_pairs:
            if evaluate_word(h, padded) != evaluate_word(h, reduced):
                failures.append(("dehn", padded))

    counts = {}
    for n in EXACT_N:
        counts[n] = enumerate_homs(n, GENUS, check)
        if failures:
            break
    passed = not failures and counts == {n: hom_count(n, GENUS) for n in EXACT_N}
    return passed, (
        f"checked {sum(counts.values())} points over n={list(counts)}, "
        f"failures={len(failures)}"
    )


# number -> (name, check, wall-clock limit in seconds or None)
CRITERIA = {
    1: ("hom counts", criterion_hom_counts, 60.0),
    2: ("character table", criterion_characters, 30.0),
    3: ("commutator counts", criterion_frobenius, 30.0),
    4: ("sampler exactness", criterion_sampler_uniformity, 60.0),
    5: ("limit oracle", criterion_limit_oracle, 5.0),
    6: ("convergence to d(a)", criterion_convergence, None),
    7: ("asymptotic independence", criterion_independence, None),
    8: ("cycle statistics", criterion_cycle_statistics, None),
    9: ("structural identities", criterion_structural_identities, 120.0),
}


def run_criterion(number: int, ctx: AcceptanceContext) -> CriterionResult:
    """Run one criterion and time it. At or over its limit it fails, and only
    then do its details give the time taken."""
    name, check, limit = CRITERIA[number]
    start = time.monotonic()
    passed, details = check(ctx)
    elapsed = time.monotonic() - start
    if limit is not None and elapsed >= limit:
        passed = False
        details += f"; took {elapsed:.1f}s, limit {limit:.0f}s"
    return CriterionResult(number, name, passed, details, elapsed)


def run_all(only=None, samples: int = 100_000, seed: int = 0, echo=None):
    """Run the requested criteria, printing one pass/fail line per criterion."""
    ctx = AcceptanceContext(samples=samples, seed=seed)
    results = []
    for number in sorted(set(only or CRITERIA)):
        result = run_criterion(number, ctx)
        results.append(result)
        if echo is not None:
            echo(result.line())
    return results
