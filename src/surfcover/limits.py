"""Exact limiting values for the fixed-point and cycle observables.

In the large-n limit the fixed-point count of the a-th power of a primitive
word behaves like the divisor-weighted sum over k | a of k times an
independent Poisson variable with mean 1/k, with one independent Poisson
family per distinct unoriented primitive class. Moments of any product of
such variables are finite rational numbers, computed here by expanding each
group into monomials, evaluating each Poisson factor through its
Stirling-number moment formula, and multiplying the groups' values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod

from .characters import BudgetExceededError
from .observables import ObservableGroup, ObservableSpec, divisors
from .words import DISTINCT, PRIMITIVE, distinct_in_p0_certificate, primitivity_certificate


@lru_cache(maxsize=None)
def stirling2(m: int, j: int) -> int:
    """Number of ways to split m labeled items into j non-empty blocks."""
    if m < 0 or j < 0:
        raise ValueError("arguments must be >= 0")
    if m == 0 and j == 0:
        return 1
    if m == 0 or j == 0 or j > m:
        return 0
    return j * stirling2(m - 1, j) + stirling2(m - 1, j - 1)


@lru_cache(maxsize=None)
def poisson_moment(lam, m: int) -> Fraction:
    """Exact m-th raw moment of a Poisson variable with mean lam > 0."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("the Poisson parameter must be positive")
    if m < 0:
        raise ValueError("moment order must be >= 0")
    return sum((stirling2(m, j) * lam**j for j in range(m + 1)), Fraction(0))


def bell_number(m: int) -> int:
    value = poisson_moment(1, m)
    assert value.denominator == 1
    return value.numerator


# A monomial maps a divisor k to the exponent of its Poisson(1/k) variable;
# a polynomial maps monomials to integer coefficients.
Monomial = tuple[tuple[int, int], ...]

# Most monomial products one step of a group's expansion may form. A step of
# 0.9e6 products keeps about 0.5e6 monomials in about 230 MB, and takes about
# 2 s on a 2-core x86-64 host under Python 3.11.
MAX_GROUP_TERMS = 10**6


def _expand_group(group: ObservableGroup) -> dict:
    """Distribute one group's product into monomials in its Poisson variables."""
    poly: dict[Monomial, int] = {(): 1}
    for _ in range(group.power):
        for a in group.exponents:
            ks = divisors(a)
            if len(poly) * len(ks) > MAX_GROUP_TERMS:
                raise BudgetExceededError(
                    f"a group's limit expansion would pass {MAX_GROUP_TERMS} terms"
                )
            out: dict[Monomial, int] = {}
            for mono, coeff in poly.items():
                for k in ks:
                    counts = dict(mono)
                    counts[k] = counts.get(k, 0) + 1
                    new_mono = tuple(sorted(counts.items()))
                    out[new_mono] = out.get(new_mono, 0) + coeff * k
            poly = out
    return poly


def _moment_of_monomial(mono) -> Fraction:
    value = Fraction(1)
    for k, exponent in mono:
        value *= poisson_moment(Fraction(1, k), exponent)
    return value


def _poly_value(poly: dict) -> Fraction:
    return sum(
        (coeff * _moment_of_monomial(mono) for mono, coeff in poly.items()),
        Fraction(0),
    )


def distinctness_warnings(spec: ObservableSpec) -> tuple[str, ...]:
    """Certificate results the limit formula relies on but cannot verify."""
    warnings = []
    for i, group in enumerate(spec.groups):
        if primitivity_certificate(group.word) != PRIMITIVE:
            warnings.append(f"group {i + 1}: primitivity of the base word is uncertified")
    for (i, gi), (j, gj) in combinations(enumerate(spec.groups), 2):
        if distinct_in_p0_certificate(gi.word, gj.word) != DISTINCT:
            warnings.append(
                f"groups {i + 1} and {j + 1}: unoriented-class distinctness is uncertified"
            )
    return tuple(warnings)


@dataclass(frozen=True)
class LimitValue:
    value: Fraction
    spec: ObservableSpec
    warnings: tuple[str, ...]


def limit_product_moment(spec: ObservableSpec) -> LimitValue:
    """Exact limit of the mean of the spec's joint observable.

    Distinct groups contribute independent Poisson families, so the value is
    the product of the groups' values, each from its own expansion. A step
    of an expansion past MAX_GROUP_TERMS raises BudgetExceededError.
    """
    value = prod((_poly_value(_expand_group(g)) for g in spec.groups), start=Fraction(1))
    if value < 0:
        raise ArithmeticError("a moment came out negative")
    return LimitValue(value, spec, distinctness_warnings(spec))


def limit_cycle_moment(entries) -> Fraction:
    """Limit of a mixed moment of cycle counts.

    `entries` lists (group index, cycle length, power); counts for distinct
    groups or distinct lengths are independent in the limit, so identical
    coordinates merge exponents and everything else factors.
    """
    merged: dict[tuple[int, int], int] = {}
    for group, length, power in entries:
        if length < 1 or power < 0:
            raise ValueError("cycle length must be >= 1 and power >= 0")
        key = (group, length)
        merged[key] = merged.get(key, 0) + power
    return _moment_of_monomial((length, power) for (_, length), power in merged.items())


def factorization_identity_holds(spec: ObservableSpec) -> bool:
    """The joint limit equals the product of the single-group limits, which
    holds by construction: limit_product_moment multiplies the groups' values."""
    joint = limit_product_moment(spec).value
    product = Fraction(1)
    for sub in spec.single_group_specs():
        product *= limit_product_moment(sub).value
    return joint == product
