"""Word algebra for the genus-g surface group.

The group is generated by 2g letters arranged in handle pairs: index 2*i is
the first generator of handle i, index 2*i+1 its partner. The single defining
relator is the product over all handles of x^-1 y^-1 x y. A letter is a pair
(generator_index, sign) with sign +1 or -1, and words are kept freely reduced
at all times.

The word problem is decided by repeated replacement of any subword that covers
strictly more than half of some cyclic rotation of the relator (or its
inverse) with the shorter complementary piece. Each replacement strictly
shortens the word, and for genus >= 2 the relator has no repeated length-2
cyclic subword, which is what makes this greedy procedure complete.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, lru_cache
from math import gcd

MIN_GENUS = 2

Letter = tuple[int, int]

DISTINCT = "distinct"
PRIMITIVE = "primitive"
UNKNOWN = "unknown"


class IdentityWordError(ValueError):
    """An operation that requires a non-identity word was given the identity."""


def _check_genus(genus: int) -> None:
    if not isinstance(genus, int) or genus < MIN_GENUS:
        raise ValueError(f"genus must be an integer >= {MIN_GENUS}, got {genus!r}")


@dataclass(frozen=True)
class Word:
    """A freely reduced word over the surface-group generators."""

    letters: tuple[Letter, ...]
    genus: int

    def __post_init__(self) -> None:
        _check_genus(self.genus)
        width = 2 * self.genus
        for idx, sign in self.letters:
            if not 0 <= idx < width:
                raise ValueError(
                    f"generator index {idx} out of range for genus {self.genus}"
                )
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        for (i1, s1), (i2, s2) in zip(self.letters, self.letters[1:]):
            if i1 == i2 and s1 == -s2:
                raise ValueError("word is not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_to_text(self)


def _reduce_letters(raw) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for idx, sign in raw:
        if stack and stack[-1][0] == idx and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((idx, sign))
    return tuple(stack)


def free_reduce(raw, genus: int) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    _check_genus(genus)
    width = 2 * genus
    letters = []
    for idx, sign in raw:
        if not 0 <= idx < width:
            raise ValueError(f"generator index {idx} out of range for genus {genus}")
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        letters.append((idx, sign))
    return Word(_reduce_letters(letters), genus)


def inverse_word(w: Word) -> Word:
    return Word(tuple((idx, -sign) for idx, sign in reversed(w.letters)), w.genus)


def concat(u: Word, v: Word) -> Word:
    """Free product of two words, reduced."""
    if u.genus != v.genus:
        raise ValueError("genus mismatch")
    return Word(_reduce_letters(u.letters + v.letters), u.genus)


def conjugated_word(w: Word, by: Word) -> Word:
    """The word by^-1 * w * by, reduced."""
    return concat(concat(inverse_word(by), w), by)


def power_word(base: Word, a: int) -> Word:
    """Free reduction of `base` repeated `a` times."""
    if a < 1:
        raise ValueError(f"exponent must be >= 1, got {a}")
    return Word(_reduce_letters(base.letters * a), base.genus)


@lru_cache(maxsize=None)
def relator(genus: int) -> Word:
    """The defining relator: product over handles of x^-1 y^-1 x y."""
    _check_genus(genus)
    letters: list[Letter] = []
    for i in range(genus):
        a, b = 2 * i, 2 * i + 1
        letters += [(a, -1), (b, -1), (a, 1), (b, 1)]
    return Word(tuple(letters), genus)


@lru_cache(maxsize=None)
def _relator_rotations(genus: int) -> tuple[tuple[Letter, ...], ...]:
    base = relator(genus).letters
    inv = tuple((idx, -sign) for idx, sign in reversed(base))
    rotations = []
    for seq in (base, inv):
        for k in range(len(seq)):
            rotations.append(seq[k:] + seq[:k])
    return tuple(rotations)


def _match_length(letters, start, rotation) -> int:
    n = min(len(letters) - start, len(rotation))
    k = 0
    while k < n and letters[start + k] == rotation[k]:
        k += 1
    return k


def dehn_reduce(w: Word) -> Word:
    """Shorten w until it has no subword longer than half the relator.

    The output represents the same group element as w and is empty exactly
    when w is the identity.
    """
    half = 2 * w.genus
    rotations = _relator_rotations(w.genus)
    letters = list(w.letters)
    while True:
        hit = None
        for i in range(len(letters)):
            best_len = half
            best_rot = None
            for rot in rotations:
                m = _match_length(letters, i, rot)
                if m > best_len:
                    best_len = m
                    best_rot = rot
            if best_rot is not None:
                hit = (i, best_len, best_rot)
                break
        if hit is None:
            return Word(tuple(letters), w.genus)
        i, length, rot = hit
        # rot = matched * tail with rot trivial in the group, so the matched
        # segment equals the inverse of tail and the swap strictly shortens.
        tail = rot[length:]
        replacement = [(idx, -sign) for idx, sign in reversed(tail)]
        letters[i:i + length] = replacement
        letters = list(_reduce_letters(letters))


@cache
def is_identity(w: Word) -> bool:
    return len(dehn_reduce(w)) == 0


def abelianize(w: Word) -> tuple[int, ...]:
    """Exponent sum per generator; a conjugation invariant."""
    vec = [0] * (2 * w.genus)
    for idx, sign in w.letters:
        vec[idx] += sign
    return tuple(vec)


def distinct_in_p0_certificate(u: Word, v: Word) -> str:
    """Sound one-sided test that u and v generate different unoriented classes.

    Returns DISTINCT only when the abelianizations rule out u being conjugate
    to v or to v^-1. UNKNOWN carries no information.
    """
    if is_identity(u) or is_identity(v):
        raise IdentityWordError("certificate requires non-identity words")
    au, av = abelianize(u), abelianize(v)
    if au != av and au != tuple(-x for x in av):
        return DISTINCT
    return UNKNOWN


def primitivity_certificate(w: Word) -> str:
    """Sound one-sided test that w is not a proper power.

    A proper power u^a has every exponent sum divisible by a, so a gcd of 1
    certifies primitivity. UNKNOWN carries no information.
    """
    if is_identity(w):
        raise IdentityWordError("certificate requires a non-identity word")
    g = 0
    for x in abelianize(w):
        g = gcd(g, abs(x))
    return PRIMITIVE if g == 1 else UNKNOWN


_TOKEN_RE = re.compile(r"^([ab])([1-9][0-9]*)('?)(?:\^(-?[0-9]+))?$")


def word_from_text(text: str, genus: int) -> Word:
    """Parse words like "a1^2 b1' a2" (apostrophe inverts, ^k repeats)."""
    _check_genus(genus)
    letters: list[Letter] = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if m is None:
            raise ValueError(f"bad word token {token!r}")
        kind, num, prime, exp = m.groups()
        handle = int(num)
        if handle > genus:
            raise ValueError(f"generator {token!r} needs genus >= {handle}")
        idx = 2 * (handle - 1) + (1 if kind == "b" else 0)
        sign = -1 if prime else 1
        count = 1 if exp is None else int(exp)
        if count < 0:
            sign, count = -sign, -count
        letters.extend([(idx, sign)] * count)
    return free_reduce(letters, genus)


def word_to_text(w: Word) -> str:
    parts = []
    i = 0
    letters = w.letters
    while i < len(letters):
        idx, sign = letters[i]
        j = i
        while j < len(letters) and letters[j] == (idx, sign):
            j += 1
        run = j - i
        name = ("a" if idx % 2 == 0 else "b") + str(idx // 2 + 1)
        if sign < 0:
            name += "'"
        if run > 1:
            name += f"^{run}"
        parts.append(name)
        i = j
    return " ".join(parts)
