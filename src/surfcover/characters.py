"""Exact symmetric-group character arithmetic and solution counting.

Everything in this module is integer or rational arithmetic; floating point
is deliberately absent because the alternating character sums that feed the
counting formulas cancel catastrophically in floats.

Character values come from the signed border-strip (Murnaghan-Nakayama)
recursion on the abacus: a partition of m is a bit mask of its m beta numbers
(first-column hook lengths), and adding a strip of length k moves one bead
from b to a free b + k, with sign (-1)^(number of beads passed). A table's
values are built all at once, on first use, as a dense class-major matrix,
each class's vector scattered from the non-zero values of a smaller class's
through these strip additions. A table of more than MAX_TABLE_ENTRIES
entries is refused with BudgetExceededError before anything is built, as is
any table past MAX_TABLE_N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import factorial
from operator import mul

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    tup = tuple(parts)
    for x in tup:
        if not isinstance(x, int) or x <= 0:
            raise ValueError(f"partition parts must be positive integers: {tup!r}")
    for a, b in zip(tup, tup[1:]):
        if a < b:
            raise ValueError(f"partition parts must be weakly decreasing: {tup!r}")
    return tup


@lru_cache(maxsize=None)
def _partitions(n: int, max_part: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic (largest-first) order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return list(_partitions(n, n))


def _hook_product(lam: Partition) -> int:
    """Product of the hook lengths of a partition, which is not checked."""
    cols = [0] * (lam[0] if lam else 0)
    for row_len in lam:
        for j in range(row_len):
            cols[j] += 1
    product = 1
    for i, row_len in enumerate(lam):
        for j in range(row_len):
            product *= row_len - j + cols[j] - i - 1
    return product


def dim_irrep(lam: Partition) -> int:
    """Dimension by the hook length formula: n! over the product of hooks."""
    lam = check_partition(lam)
    n = sum(lam)
    q, r = divmod(factorial(n), _hook_product(lam))
    if r:
        raise ArithmeticError(f"hook product does not divide n! for {lam!r}")
    return q


def _centralizer_size(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu, which is
    not checked: the product of k^m m! over parts k of multiplicity m."""
    size = 1
    mult: dict[int, int] = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for length, m in mult.items():
        size *= length**m * factorial(m)
    return size


def centralizer_size(mu: Partition) -> int:
    return _centralizer_size(check_partition(mu))


def class_size(mu: Partition) -> int:
    mu = check_partition(mu)
    return factorial(sum(mu)) // _centralizer_size(mu)


class BudgetExceededError(RuntimeError):
    """Predicted work exceeds the configured budget; nothing was truncated."""


# p(n)^2 entries admitted by freeze(): n = 28 (13,823,524 entries) builds,
# and a genus-2 plan on it peaks near 270 MB; n = 29 (20,839,225 entries)
# is refused.
MAX_TABLE_ENTRIES = 16_000_000
# Largest n with a table at all: listing the p(n) partitions with their hook
# products and class sizes takes 3.0 s and 174 MB at n = 50 (one 2-core host,
# Python 3.11), and p(60) is 4.7 times p(50).
MAX_TABLE_N = 50


@cache
def _bead_masks(m: int) -> dict[int, int]:
    """Each partition of m as a bit mask of its m beta numbers, mapped to its
    index in partitions(m)."""
    masks = {}
    for i, lam in enumerate(_partitions(m, m)):
        mask = (1 << (m - len(lam))) - 1
        for row, part in enumerate(lam):
            mask |= 1 << (part + m - 1 - row)
        masks[mask] = i
    return masks


@cache
def _additions(m: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each partition of m - k, by index: (index in partitions(m), sign)
    for each border strip of length k that can be added to it.

    With m beads, adding a k-strip moves one bead b to a free b + k; the
    sign is the parity of the beads it passes.
    """
    larger = _bead_masks(m)
    low, passed = (1 << k) - 1, (1 << (k - 1)) - 1
    out = []
    for small in _bead_masks(m - k):
        mask = (small << k) | low
        strips = []
        for b in range(mask.bit_length()):
            if mask >> b & 1 and not mask >> (b + k) & 1:
                sign = -1 if ((mask >> (b + 1)) & passed).bit_count() & 1 else 1
                strips.append((larger[mask ^ (1 << b) ^ (1 << (b + k))], sign))
        out.append(tuple(strips))
    return tuple(out)


class CharacterTable:
    """Exact character values of one symmetric group.

    ``matrix[class][irrep]`` holds every value, indexed by position in
    ``partitions``. It is built all at once by freeze() (which chi() calls
    on first use) and is read-only afterwards. freeze() refuses a table of
    more than MAX_TABLE_ENTRIES entries with BudgetExceededError before
    building anything; the dimensions, hook products and class sizes need
    no values and are available up to n = MAX_TABLE_N.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be >= 0")
        if n > MAX_TABLE_N:
            raise BudgetExceededError(f"no character table past S_{MAX_TABLE_N}, got n={n}")
        self.n = n
        self.partitions: tuple[Partition, ...] = tuple(partitions(n))
        self.index = {lam: i for i, lam in enumerate(self.partitions)}
        fact = factorial(n)
        self.hook_products = tuple(map(_hook_product, self.partitions))
        self.centralizer_sizes = tuple(map(_centralizer_size, self.partitions))
        self.dims = tuple(fact // h for h in self.hook_products)
        if any(d * h != fact for d, h in zip(self.dims, self.hook_products)):
            raise ArithmeticError(f"a hook product does not divide {n}!")
        self.class_sizes = tuple(fact // c for c in self.centralizer_sizes)
        self.matrix: tuple[tuple[int, ...], ...] | None = None

    def chi(self, lam: Partition, mu: Partition) -> int:
        """Exact character value of the irreducible `lam` on the class `mu`;
        the parts of `mu` may come in any order."""
        return self.column(sorted(mu, reverse=True))[self._position(lam)]

    def column(self, mu: Partition) -> tuple[int, ...]:
        """Values of every irreducible on the class `mu`, in partition order."""
        return self.freeze().matrix[self._position(mu)]

    def row(self, lam: Partition) -> tuple[int, ...]:
        l = self._position(lam)
        return tuple(column[l] for column in self.freeze().matrix)

    def _position(self, shape: Partition) -> int:
        """Index of `shape` in partitions; ValueError unless it partitions n."""
        position = self.index.get(tuple(shape))
        if position is None:
            raise ValueError(f"{check_partition(shape)!r} is not a partition of {self.n}")
        return position

    def freeze(self) -> "CharacterTable":
        """Build the matrix if it is not built yet; returns the table."""
        if self.matrix is None:
            entries = len(self.partitions) ** 2
            if entries > MAX_TABLE_ENTRIES:
                raise BudgetExceededError(
                    f"character table of S_{self.n} has {entries} entries, "
                    f"over the limit of {MAX_TABLE_ENTRIES}"
                )
            matrix = self._columns()
            if matrix[self.index[(1,) * self.n]] != self.dims:
                raise ArithmeticError("identity column differs from the dimensions")
            self.matrix = matrix
        return self

    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """Murnaghan-Nakayama over class suffixes, in one depth-first pass.

        A suffix is the tail of a class partition; parts are added smallest
        first, so a suffix of size m whose largest part is k extends only by
        parts >= k. Its vector holds its values over partitions(m), and a
        child's vector is scattered from the parent's non-zero values over
        the strip additions of the added part. Suffixes of size n are the
        columns.
        """
        n = self.n
        columns: list = [None] * len(self.partitions)

        def visit(suffix: Partition, size: int, values: list[int]) -> None:
            if size == n:
                columns[self.index[suffix]] = tuple(values)
                return
            for k in range(suffix[0] if suffix else 1, n - size + 1):
                left = n - size - k
                if 0 < left < k:  # no room for a later part >= k
                    continue
                child = [0] * len(_bead_masks(size + k))
                for value, strips in zip(values, _additions(size + k, k)):
                    if value:
                        for i, sign in strips:
                            child[i] += sign * value
                visit((k,) + suffix, size + k, child)

        visit((), 0, [1])
        return tuple(columns)


@cache
def get_table(n: int) -> CharacterTable:
    return CharacterTable(n)


def witten_zeta(n: int, s: int) -> Fraction:
    """Sum over irreducibles of dim^-s."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 1:
        raise ValueError("s must be >= 1")
    table = get_table(n)
    return sum((Fraction(1, d**s) for d in table.dims), Fraction(0))


def hom_count(n: int, genus: int) -> int:
    """Number of 2g-tuples of permutations satisfying the surface relator.

    Equals (n!)^(2g-1) times the zeta value at 2g-2; computed here as
    n! * sum of hook-product powers, which is manifestly an integer.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if genus < 2:
        raise ValueError("genus must be >= 2")
    table = get_table(n)
    return factorial(n) * sum(h ** (2 * genus - 2) for h in table.hook_products)


def commutator_count(n: int, mu: Partition) -> int:
    """Number of pairs (a, b) whose commutator lands on a fixed element of class mu."""
    table = get_table(n)
    total = sum(map(mul, table.column(mu), table.hook_products))
    if total < 0:
        raise ArithmeticError(f"negative commutator count for {mu!r}")
    return total


def factorization_count(kappa1: Partition, kappa2: Partition, sigma: Partition) -> int:
    """Number of (x, y) with x in class kappa1, y in class kappa2 and x*y equal
    to a fixed representative of class sigma."""
    n = sum(check_partition(kappa1))
    table = get_table(n)
    columns = zip(
        table.column(kappa1), table.column(kappa2), table.column(sigma), table.hook_products
    )
    total = sum(a * b * c * h for a, b, c, h in columns)
    scaled = class_size(kappa1) * class_size(kappa2) * total
    q, r = divmod(scaled, factorial(n) ** 2)
    if r or q < 0:
        raise ArithmeticError("factorization count is not a non-negative integer")
    return q
