"""Observables on homomorphism points: fixed points, short cycles, moments.

A moment specification is a list of groups, each carrying a base word, a list
of exponents and an outer power. Evaluated at a homomorphism point it is the
product over groups of (product over exponents of the fixed-point count of
the powered word), raised to the group's power. Since F(p^a) is the sum of
d C_d(p) over d | a, that value is computed from the cycle type of each word's
image (`ObservableGroup.value`). Identity words are rejected up front; the
ambient group is torsion free, so powers of a non-identity word never need
re-checking.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache

from .perms import HomPoint, d_cycle_count, evaluate_word, fix_count
from .words import IdentityWordError, Word, is_identity, power_word, word_from_text, word_to_text


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius is defined on positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


@lru_cache(maxsize=None)
def divisors(a: int) -> tuple[int, ...]:
    if a < 1:
        raise ValueError("divisors of positive integers only")
    small, large = [], []
    d = 1
    while d * d <= a:
        if a % d == 0:
            small.append(d)
            if d != a // d:
                large.append(a // d)
        d += 1
    return tuple(small + large[::-1])


def d_count(a: int) -> int:
    """Number of positive divisors."""
    return len(divisors(a))


@dataclass(frozen=True)
class ObservableGroup:
    word: Word
    exponents: tuple[int, ...]
    power: int = 1

    def __post_init__(self) -> None:
        if not self.exponents:
            raise ValueError("a group needs at least one exponent")
        if any(a < 1 for a in self.exponents):
            raise ValueError("exponents must be >= 1")
        if self.power < 1:
            raise ValueError("group power must be >= 1")
        if is_identity(self.word):
            raise IdentityWordError("observable words must not be the identity")

    def value(self, kappa) -> int:
        """The group's observable on any image of cycle type kappa: p^a fixes
        exactly the points on the cycles of p whose length divides a."""
        value = 1
        for a in self.exponents:
            value *= sum(d for d in kappa if a % d == 0)
        return value**self.power


@dataclass(frozen=True)
class ObservableSpec:
    groups: tuple[ObservableGroup, ...]
    genus: int

    def __post_init__(self) -> None:
        for g in self.groups:
            if g.word.genus != self.genus:
                raise ValueError("group word genus differs from spec genus")

    def single_group_specs(self) -> list["ObservableSpec"]:
        return [ObservableSpec((g,), self.genus) for g in self.groups]


def fixed_points(h: HomPoint, w: Word) -> int:
    """Fixed points of the image of w, its 1-cycles; rejects the identity word."""
    return cycle_count(h, w, 1)


def cycle_count(h: HomPoint, w: Word, d: int) -> int:
    """Number of d-cycles in the image of w; rejects the identity word."""
    if is_identity(w):
        raise IdentityWordError("cycle statistics need a non-identity word")
    if not 1 <= d <= h.n:
        raise ValueError(f"cycle length {d} out of range for n={h.n}")
    return h.cycle_type_of(w).count(d)


def power_identity_holds(h: HomPoint, w: Word, a: int) -> bool:
    """Fixed points of w^a, evaluated as the word w^a, match the weighted
    cycle counts of w, always."""
    if is_identity(w):
        raise IdentityWordError("identity word rejected")
    img = evaluate_word(h, w)
    powered = evaluate_word(h, power_word(w, a))
    return fix_count(powered) == sum(
        d * d_cycle_count(img, d) for d in divisors(a) if d <= h.n
    )


def cycles_from_fixed_points(values, r: int) -> int:
    """Recover the r-cycle count from fixed-point counts of powers.

    `values` maps each divisor q of r to the fixed-point count of the q-th
    power. Inconsistent data fails the integrality check loudly.
    """
    if r < 1:
        raise ValueError("cycle length must be >= 1")
    total = 0
    for d in divisors(r):
        q = r // d
        if q not in values:
            raise ValueError(f"missing fixed-point value for power {q}")
        total += mobius(d) * values[q]
    quotient, remainder = divmod(total, r)
    if remainder:
        raise ArithmeticError("fixed-point data inconsistent with any cycle count")
    return quotient


def joint_moment(h: HomPoint, spec: ObservableSpec) -> int:
    """Product over groups of each group's value on its word's cycle type."""
    if h.genus != spec.genus:
        raise ValueError("genus mismatch")
    result = 1
    for group in spec.groups:
        result *= group.value(h.cycle_type_of(group.word))
    return result


_GROUP_RE = re.compile(
    r"""^\s*(?P<label>[A-Za-z_][A-Za-z_0-9]*)\s*=\s*"(?P<word>[^"]*)"
        (?:\s+exps\s*=\s*\[(?P<exps>[0-9,\s]*)\])?
        (?:\s+pow\s*=\s*(?P<pow>[0-9]+))?\s*$""",
    re.VERBOSE,
)


def spec_from_text(text: str, genus: int) -> ObservableSpec:
    """Parse 'gamma="a1" exps=[2,3] pow=1; delta="a2" exps=[4]' into a spec."""
    groups = []
    stripped = text.strip()
    if stripped:
        for chunk in stripped.split(";"):
            if not chunk.strip():
                continue
            m = _GROUP_RE.match(chunk)
            if m is None:
                raise ValueError(f"bad spec group {chunk.strip()!r}")
            word = word_from_text(m.group("word"), genus)
            exps_text = m.group("exps")  # omitted means [1]; an empty list is refused
            exponents = (1,) if exps_text is None else tuple(
                int(tok) for tok in exps_text.split(",") if tok.strip()
            )
            power = int(m.group("pow") or 1)
            groups.append(ObservableGroup(word, exponents, power))
    return ObservableSpec(tuple(groups), genus)


def spec_to_text(spec: ObservableSpec) -> str:
    chunks = []
    for i, g in enumerate(spec.groups):
        exps = ",".join(str(a) for a in g.exponents)
        chunks.append(f'g{i + 1}="{word_to_text(g.word)}" exps=[{exps}] pow={g.power}')
    return "; ".join(chunks)


def spec_from_json(obj, genus: int | None = None) -> ObservableSpec:
    """Spec from {"genus": g, "groups": [{"word": text, "exps": [ints], "pow": int}]};
    genus, exps and pow are optional. Any other shape, or a JSON genus other
    than a given `genus`, raises ValueError."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or not isinstance(obj.get("groups"), list):
        raise ValueError("spec JSON must be an object with a list of groups")
    g = obj.get("genus", genus)
    if type(g) is not int:  # bools refused too
        raise ValueError("spec JSON needs an integer genus")
    if genus is not None and g != genus:
        raise ValueError(f"spec JSON genus {g} differs from requested genus {genus}")
    groups = []
    for entry in obj["groups"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("word"), str):
            raise ValueError("each spec group needs a string word")
        exps, power = entry.get("exps", [1]), entry.get("pow", 1)
        if type(exps) is not list or any(type(v) is not int for v in [*exps, power]):
            raise ValueError("spec group exps must be a list of integers, pow an integer")
        groups.append(ObservableGroup(word_from_text(entry["word"], g), tuple(exps), power))
    return ObservableSpec(tuple(groups), g)
