import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest

from surfcover import limits
from surfcover.characters import BudgetExceededError
from surfcover.limits import (
    bell_number,
    distinctness_warnings,
    factorization_identity_holds,
    limit_cycle_moment,
    limit_product_moment,
    poisson_moment,
    stirling2,
)
from surfcover.observables import (
    ObservableGroup,
    ObservableSpec,
    d_count,
    divisors,
    spec_from_text,
)
from surfcover.words import word_from_text

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]

# three groups: the heavy a1 group alone has limit moment 3169875308 and each
# [12] pow=2 group 64 (both by a cumulant recursion), so the moment is 3169875308 * 64**2
THREE_GROUPS = 'a="a1" exps=[2,3,4,6] pow=3; b="a2" exps=[12] pow=2; c="b1" exps=[12] pow=2'
FOUR_GROUPS = THREE_GROUPS + '; d="b2" exps=[12] pow=2'


def w(text):
    return word_from_text(text, 2)


def group(text, exps, power=1):
    return ObservableGroup(w(text), tuple(exps), power)


def spec_of(*groups):
    return ObservableSpec(tuple(groups), 2)


def test_stirling_triangle():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    for m in range(9):
        assert sum(stirling2(m, j) for j in range(m + 1)) == BELL[m]


def test_poisson_moment_basics():
    lam = Fraction(3, 7)
    assert poisson_moment(lam, 0) == 1
    assert poisson_moment(lam, 1) == lam
    assert poisson_moment(lam, 2) == lam * lam + lam
    assert poisson_moment(1, 3) == 5
    with pytest.raises(ValueError):
        poisson_moment(0, 2)
    with pytest.raises(ValueError):
        poisson_moment(Fraction(1, 2), -1)


def test_bell_numbers():
    for m, value in enumerate(BELL):
        assert bell_number(m) == value


def test_worked_fifteen_example():
    spec = spec_of(group("a1", [2, 3]), group("a2", [4]))
    limit = limit_product_moment(spec)
    assert limit.value == 15
    assert limit.warnings == ()
    parts = [limit_product_moment(s).value for s in spec.single_group_specs()]
    assert parts == [5, 3]


def test_single_word_limits_are_divisor_counts():
    for a in range(1, 49):
        value = limit_product_moment(spec_of(group("a1", [a]))).value
        assert value == d_count(a)


def test_power_two_moment():
    spec = spec_of(group("a1", [1], power=2))
    assert limit_product_moment(spec).value == 2  # second moment of a mean-1 Poisson


def test_mean_shadow_of_expansion():
    # substituting each variable by its mean turns the limit into a product
    # of divisor counts
    from surfcover.limits import _expand_group

    rng = random.Random(3)
    for _ in range(40):
        groups = []
        for gi in range(rng.randrange(1, 4)):
            exps = [rng.randrange(1, 9) for _ in range(rng.randrange(1, 3))]
            groups.append(group(f"a{gi % 2 + 1}" if gi < 2 else "b1", exps))
        spec = spec_of(*groups)
        shadow = Fraction(1)
        for g in spec.groups:
            group_shadow = Fraction(0)
            for mono, coeff in _expand_group(g).items():
                term = Fraction(coeff)
                for k, m in mono:
                    term *= Fraction(1, k) ** m
                group_shadow += term
            shadow *= group_shadow
        expected = Fraction(1)
        for g in spec.groups:
            for a in g.exponents:
                expected *= d_count(a) ** g.power
        assert shadow == expected


def test_three_group_moment_pinned():
    spec = spec_from_text(THREE_GROUPS, 2)
    assert limit_product_moment(spec).value == 12983809261568 == 3169875308 * 64**2


def test_four_group_moment_pinned():
    spec = spec_from_text(FOUR_GROUPS, 2)
    assert limit_product_moment(spec).value == 830963792740352 == 3169875308 * 64**3


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first], *part]
        for i in range(len(part)):
            yield [*part[:i], [first, *part[i]], *part[i + 1:]]


def cumulant_reference(g):
    # X_a = sum over k | a of k P_k with independent P_k ~ Poisson(1/k), so the
    # joint cumulant of X_{a_1}, ..., X_{a_r} is sigma_{r-1}(gcd); moments
    # are sums over set partitions of products of cumulants
    factors = list(g.exponents) * g.power
    return sum(
        prod(sum(k ** (len(block) - 1) for k in divisors(gcd(*block))) for block in part)
        for part in set_partitions(factors)
    )


def test_limit_matches_moment_cumulant_reference():
    rng = random.Random(23)
    words = ["a1", "a2", "b1"]
    for _ in range(120):
        groups = []
        for i in range(rng.randrange(1, 4)):
            exps = [rng.randrange(1, 13) for _ in range(rng.randrange(1, 4))]
            groups.append(group(words[i], exps, rng.randrange(1, 7 // len(exps) + 1)))
        spec = spec_of(*groups)
        references = [cumulant_reference(g) for g in spec.groups]
        assert [limit_product_moment(s).value for s in spec.single_group_specs()] == references
        assert limit_product_moment(spec).value == prod(references)


def test_oversized_group_expansion_is_refused_up_front():
    # the fourth factor would form 37 820 * 60 products and keep 595 665
    # monomials; the whole expansion would run out of memory
    spec = spec_from_text('g="a1" exps=[5040,5040] pow=3', 2)
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        limit_product_moment(spec)
    assert time.monotonic() - start < 5


def test_heavy_group_expansion_peaks_at_1528_products(monkeypatch):
    heavy = spec_from_text('a="a1" exps=[2,3,4,6] pow=3; b="a2" exps=[12] pow=2', 2)
    value = limit_product_moment(heavy).value
    assert value == 3169875308 * 64
    monkeypatch.setattr(limits, "MAX_GROUP_TERMS", 382 * 4)
    assert limit_product_moment(heavy).value == value
    monkeypatch.setattr(limits, "MAX_GROUP_TERMS", 382 * 4 - 1)
    with pytest.raises(BudgetExceededError):
        limit_product_moment(heavy)


def test_limit_cycle_moment():
    assert limit_cycle_moment([(0, 1, 1)]) == 1
    assert limit_cycle_moment([(0, 2, 1)]) == Fraction(1, 2)
    assert limit_cycle_moment([(0, 1, 2)]) == 2
    # independence across groups: covariance contribution factors
    joint = limit_cycle_moment([(0, 1, 1), (1, 1, 1)])
    assert joint == limit_cycle_moment([(0, 1, 1)]) * limit_cycle_moment([(1, 1, 1)])
    # same variable twice merges exponents instead of factoring
    assert limit_cycle_moment([(0, 2, 1), (0, 2, 1)]) == poisson_moment(
        Fraction(1, 2), 2
    )
    # every entry and pair of entries over a grid, against the product of
    # independent Poisson(1/d) moments over the merged coordinates
    grid = list(itertools.product(range(2), range(1, 5), range(4)))
    for entries in itertools.chain(([e] for e in grid), itertools.product(grid, repeat=2)):
        merged = Counter()
        for group_index, length, power in entries:
            merged[group_index, length] += power
        expected = prod(poisson_moment(Fraction(1, d), e) for (_, d), e in merged.items())
        assert limit_cycle_moment(entries) == expected, entries


def test_factorization_identity_random_specs():
    rng = random.Random(41)
    words = ["a1", "a2", "b1"]
    for trial in range(200):
        t = rng.randrange(1, 4)
        groups = []
        for i in range(t):
            # two exponents occasionally; large powers of long lists explode
            # the expansion without testing anything new
            r = 2 if trial % 10 == 0 else 1
            exps = [rng.randrange(1, 13) for _ in range(r)]
            power = rng.randrange(1, 4) if r == 1 else 1
            groups.append(group(words[i], exps, power))
        assert factorization_identity_holds(spec_of(*groups))


def test_fifteen_factorizes():
    spec = spec_of(group("a1", [2, 3]), group("a2", [4]))
    assert factorization_identity_holds(spec)
    single = spec_of(group("a1", [2]))
    assert factorization_identity_holds(single)


def test_uncertified_specs_warn():
    # conjugate words share abelianization, so distinctness stays unknown
    spec = spec_of(group("a1", [1]), group("b1 a1 b1'", [1]))
    warnings = distinctness_warnings(spec)
    assert any("distinctness" in note for note in warnings)
    assert limit_product_moment(spec).warnings == warnings
    # proper powers leave primitivity unknown
    spec2 = spec_of(group("a1^2", [1]))
    assert any("primitivity" in note for note in distinctness_warnings(spec2))
    # the happy path stays silent
    spec3 = spec_of(group("a1", [1]), group("a2", [2]))
    assert distinctness_warnings(spec3) == ()
