"""Dense permutations of {0,...,n-1} with left-to-right composition.

compose(p, q) applies p first and q second, i.e. compose(p, q)[i] = q[p[i]].
This matches the way loops lift through a cover, and every word evaluation
here sticks to the same convention so that relator checks and commutators
agree bit for bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import eq

from .words import Word

Permutation = tuple[int, ...]


def identity(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p first, then q."""
    if len(p) != len(q):
        raise ValueError("size mismatch")
    return tuple(q[v] for v in p)


def inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def conjugate(p: Permutation, by: Permutation) -> Permutation:
    """by^-1 * p * by under left-to-right composition: relabel p through by."""
    if len(p) != len(by):
        raise ValueError("size mismatch")
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[by[i]] = by[v]
    return tuple(out)


def commutator(p: Permutation, q: Permutation) -> Permutation:
    """p^-1 q^-1 p q, composed left to right."""
    return compose(compose(compose(inverse(p), inverse(q)), p), q)


def cycles(p: Permutation) -> list[list[int]]:
    """Cycle decomposition including fixed points, each cycle led by its minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = p[start]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = p[v]
        out.append(cyc)
    return out


def cycle_type(p) -> tuple[int, ...]:
    """Cycle lengths of a tuple or list, fixed points included, longest first."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if not seen[start]:
            seen[start] = True
            size = 1
            v = p[start]
            while v != start:
                seen[v] = True
                size += 1
                v = p[v]
            lengths.append(size)
    lengths.sort(reverse=True)
    return tuple(lengths)


def fix_count(p: Permutation) -> int:
    return sum(map(eq, p, range(len(p))))


def d_cycle_count(p: Permutation, d: int) -> int:
    if not 1 <= d <= len(p):
        raise ValueError(f"cycle length {d} out of range for n={len(p)}")
    return cycle_type(p).count(d)


@dataclass(frozen=True)
class HomPoint:
    """Images of the 2g generators under one homomorphism to S_n.

    images[2*i] and images[2*i+1] are the images of handle i's generator pair.
    Construction checks that every image is a permutation of range(n) and then
    checks the relator in one pass, tracing range(n) through a_i^-1 b_i^-1 a_i
    b_i handle by handle, so every HomPoint in circulation is a genuine
    homomorphism. The generators' inverses are computed there once and kept
    for evaluate_word; like the cycle-type cache they take no part in
    equality, hashing or repr.
    """

    images: tuple[Permutation, ...]
    genus: int
    n: int
    _inverses: tuple = field(default=(), init=False, repr=False, compare=False)
    _types: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        images = self.images
        if len(images) != 2 * self.genus:
            raise ValueError("need one image per generator")
        points = list(range(self.n))
        for p in images:
            if sorted(p) != points:
                raise ValueError("every image must be a permutation of range(n)")
        inverses = tuple(map(inverse, images))
        object.__setattr__(self, "_inverses", inverses)
        trace = points
        for a, b, a_inv, b_inv in zip(images[::2], images[1::2], inverses[::2], inverses[1::2]):
            trace = [b[a[b_inv[a_inv[v]]]] for v in trace]
        if trace != points:
            raise ValueError("images do not satisfy the surface relator")

    def cycle_type_of(self, w: Word) -> tuple[int, ...]:
        """cycle_type(evaluate_word(self, w)), computed once per point and word."""
        types = self._types.get(w)
        if types is None:
            types = self._types[w] = cycle_type(evaluate_word(self, w))
        return types


def evaluate_word(h: HomPoint, w: Word) -> Permutation:
    """Product of generator images along the word, left to right."""
    if w.genus != h.genus:
        raise ValueError("genus mismatch")
    steps = [h.images[i] if sign > 0 else h._inverses[i] for i, sign in w.letters]
    if not steps:
        return identity(h.n)
    result = steps[0]
    for img in steps[1:]:
        result = [img[v] for v in result]
    return tuple(result)


def cycles_str(p: Permutation) -> str:
    """One-line cycle notation with 1-based points, fixed points omitted."""
    parts = [
        "(" + " ".join(str(v + 1) for v in c) + ")" for c in cycles(p) if len(c) > 1
    ]
    return "".join(parts) if parts else "()"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> Permutation:
    """Inverse of cycles_str for permutations of {1,...,n} as displayed."""
    stripped = text.replace(" ", "")
    if stripped in ("", "()"):
        return identity(n)
    if "".join(_CYCLE_RE.sub("", text).split()):
        raise ValueError(f"bad cycle notation {text!r}")
    mapping = list(range(n))
    used = set()
    for body in _CYCLE_RE.findall(text):
        points = [int(tok) - 1 for tok in body.split()]
        if not points:
            continue
        for v in points:
            if not 0 <= v < n or v in used:
                raise ValueError(f"bad cycle notation {text!r}")
            used.add(v)
        for a, b in zip(points, points[1:] + points[:1]):
            mapping[a] = b
    return tuple(mapping)
