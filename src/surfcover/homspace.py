"""The uniform probability space of surface-group homomorphisms into S_n.

Three access modes, all exact:

* full enumeration through commutator buckets (small n), and exact means
  over one first pair (a1, b1) per orbit of simultaneous conjugation,
  weighted by its orbit size,
* exactly uniform sampling driven by character-sum class weights (moderate n),
* Monte Carlo estimation over the sampler with reproducible seeded streams.

The sampler picks the conjugacy class of each commutator block with its exact
integer weight, then draws a uniform pair inside the chosen fiber. Transport
rejects pairs (a_mu, b), mu drawn with probability |mu|/n! and a_mu a fixed
representative, then conjugates by a uniform transporter; it is exact since
commutator classes are conjugation invariant. The uniform-class route keeps a
uniform a in a uniform class mu iff a*sigma has type mu, so P(a) is
proportional to 1/|mu|, hence to |C(a)|, the fibre's law. Transport runs iff
|C_K| <= p(n), the route with fewer expected trials.

The first block mixes a bulk set of classes, drawn as uniform pairs kept by an
exact integer Bernoulli test, with the rest drawn by class (see `sample_hom`).

At genus >= 3 each middle block first draws a class pair: its own class and
the class of the product after it. The cumulative table for that draw is
built once per (class of the product so far, blocks left) from integer dot
products of dense character rows, and its total must equal the plan's block
count for that class. The block is then uniform on {u in K_u : r*u in K_s}, r
the product so far, and is placed by rejection from the smaller of K_u and
K_s: u -> r*u maps that set one-to-one onto {v in K_s : r^-1*v in K_u}, so a
uniform v kept iff r^-1*v is in K_u gives the same law, and both sides keep
the same count, so the smaller class takes fewer expected trials.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod, sqrt
from operator import mul

from .characters import (
    BudgetExceededError,
    CharacterTable,
    get_table,
    hom_count,
)
from .observables import ObservableSpec, joint_moment
from .perms import (
    HomPoint,
    Permutation,
    commutator,
    compose,
    conjugate,
    cycle_type,
    cycles,
    fix_count,
    inverse,
)

PAIR_MATERIALIZE_LIMIT = 6
DEFAULT_MAX_VISITS = 10**9


# ---------------------------------------------------------------------------
# Seeded random streams


@dataclass(frozen=True)
class Seed:
    """64-bit seed plus a stream index; equal pairs replay equal draws."""

    value: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.value < 2**64:
            raise ValueError("seed value must fit in 64 bits")
        if self.stream < 0:
            raise ValueError("stream index must be >= 0")


def stream_for(seed, *indices: int) -> random.Random:
    """Stream for (seed, indices), seeded by the SHA-256 of its key; an int
    seed means Seed(seed) and is range-checked."""
    if not isinstance(seed, Seed):
        seed = Seed(int(seed))
    key = "surfcover:%d:%s" % (seed.value, ":".join(map(str, (seed.stream, *indices))))
    return random.Random(int.from_bytes(hashlib.sha256(key.encode()).digest(), "big"))


@functools.cache
def _class_representative(mu) -> Permutation:
    """The permutation of cycle type mu whose cycles run over consecutive
    blocks: (0 1 .. mu_1-1)(mu_1 .. mu_1+mu_2-1)..."""
    out: list[int] = []
    for length in mu:
        start = len(out)
        out += range(start + 1, start + length)
        out.append(start)
    return tuple(out)


def _decode_perm(code: int, n: int) -> list[int]:
    """Factorial-base decode; a bijection from range(n!) onto permutations."""
    items = list(range(n))
    out = []
    for k in range(n, 0, -1):
        code, r = divmod(code, k)
        out.append(items.pop(r))
    return out


def uniform_in_class(mu, n: int, rng: random.Random) -> Permutation:
    """Uniform permutation with cycle type mu, by chopping a random arrangement
    (one decoded rank) into consecutive cycles."""
    if sum(mu) != n:
        raise ValueError("cycle type size mismatch")
    return conjugate(_class_representative(mu), _decode_perm(rng.randrange(factorial(n)), n))


def uniform_conjugator(p: Permutation, q: Permutation, rng: random.Random) -> Permutation:
    """Uniform t with conjugate(p, t) == q: the cycles of q of each length are
    shuffled, then each cycle of p of that length maps onto the next one at a
    uniform rotation. Raises ValueError unless p and q have one cycle type."""
    by_length: dict[int, tuple[list, list]] = {}
    for c in cycles(p):
        by_length.setdefault(len(c), ([], []))[0].append(c)
    for c in cycles(q):
        by_length.setdefault(len(c), ([], []))[1].append(c)
    if any(len(sources) != len(images) for sources, images in by_length.values()):
        raise ValueError("permutations are not conjugate")
    t = [0] * len(p)
    for length, (sources, images) in by_length.items():
        rng.shuffle(images)
        for src, dst in zip(sources, images):
            offset = rng.randrange(length)
            for j, x in enumerate(src):
                t[x] = dst[(j + offset) % length]
    return tuple(t)


# ---------------------------------------------------------------------------
# Commutator buckets and enumeration


class CommutatorBuckets(dict):
    """Every pair (a, b) of S_n keyed by its commutator, in sorted key order,
    each list in lexicographic order. Every pair is stored as a tuple, so n
    is at most PAIR_MATERIALIZE_LIMIT = 6: at n = 7 the 2.5e7 pairs would
    take gigabytes, for a walk over at least 2.7e11 points that no visit
    budget admits."""

    def total_pairs(self) -> int:
        return sum(map(len, self.values()))


def check_bucket_size(n: int) -> None:
    """Raise ValueError unless get_buckets(n) can be built."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > PAIR_MATERIALIZE_LIMIT:
        raise ValueError(
            f"buckets support n <= {PAIR_MATERIALIZE_LIMIT}; use the sampler beyond that"
        )


@functools.cache
def get_buckets(n: int) -> CommutatorBuckets:
    """Every pair of S_n, bucketed by commutator, built once per n;
    n > PAIR_MATERIALIZE_LIMIT raises ValueError."""
    check_bucket_size(n)
    perms = list(itertools.permutations(range(n)))
    buckets: dict[Permutation, list] = {}
    for a in perms:
        for b in perms:
            buckets.setdefault(commutator(a, b), []).append((a, b))
    return CommutatorBuckets(sorted(buckets.items()))


def _every_pair(n: int):
    """(commutator, (a, b), 1) for every pair of S_n, in get_buckets order."""
    for sigma, pairs in get_buckets(n).items():
        for pair in pairs:
            yield sigma, pair, 1


@functools.cache
def _orbit_buckets(n: int) -> tuple:
    """Sorted (commutator, (a_mu, b), weight) records: one pair per orbit of
    C(a_mu) acting on b by conjugation, for every class mu, weighted by
    |K_mu| * |orbit|, the size of the pair's orbit under simultaneous
    conjugation by S_n. Each b is the first of its orbit in lexicographic
    order, found by marking orbits. By Burnside there are sum_mu |C(a_mu)|
    records, and the weights of the records of one a_mu sum to |K_mu| * n!."""
    check_bucket_size(n)
    table = get_table(n)
    perms = list(itertools.permutations(range(n)))
    records = []
    for mu, size in zip(table.partitions, table.class_sizes):
        a = _class_representative(mu)
        centralizer = [t for t in perms if conjugate(a, t) == a]
        seen: set[Permutation] = set()
        for b in perms:
            if b not in seen:
                orbit = {conjugate(b, t) for t in centralizer}
                seen |= orbit
                records.append((commutator(a, b), (a, b), size * len(orbit)))
    return tuple(sorted(records))


def _walk(n: int, genus: int, first):
    """(weight, images) of every point whose first block is the pair of a
    record of `first`, in enumeration order: records in order, then block by
    block, commutator values in key order, each point carrying its first
    record's weight. Later blocks draw from every pair of S_n, and the last
    block, fixed by the product before it, is looked up in its bucket."""
    buckets = get_buckets(n)

    def blocks(prefix: Permutation, blocks_left: int, images: tuple):
        if blocks_left == 1:
            for pair in buckets.get(inverse(prefix), ()):
                yield images + pair
            return
        for sigma, pairs in buckets.items():
            nxt = compose(prefix, sigma)
            for a, b in pairs:
                yield from blocks(nxt, blocks_left - 1, images + (a, b))

    for sigma, pair, weight in first:
        for images in blocks(sigma, genus - 1, pair):
            yield weight, images


def _visit_walk(n: int, genus: int, first, visit, max_visits: int) -> int:
    """Call visit(weight, point) on every point of _walk(n, genus, first(n));
    returns the weight total. A walk is refused when Hom(Gamma, S_n) has more
    than max_visits points, before first(n) is built, and the weights must sum
    to that point count."""
    expected = hom_count(n, genus)
    if expected > max_visits:
        raise BudgetExceededError(
            f"enumeration needs {expected} visits, budget is {max_visits}"
        )
    total = 0
    for weight, images in _walk(n, genus, first(n)):
        visit(weight, HomPoint(images, genus, n))
        total += weight
    if total != expected:
        raise AssertionError("enumeration count disagrees with the character count")
    return total


def enumerate_homs(n: int, genus: int, visitor, max_visits: int = DEFAULT_MAX_VISITS) -> int:
    """Visit every homomorphism point exactly once; returns the visit count."""
    return _visit_walk(n, genus, _every_pair, lambda w, h: visitor(h), max_visits)


def exact_means(
    n: int, genus: int, specs: dict, max_visits: int = DEFAULT_MAX_VISITS
) -> dict[str, Fraction]:
    """Exact rational mean of each named spec's joint moment, from one walk.

    The walk visits only the points whose first pair (a1, b1) is the pair of
    a record of `_orbit_buckets(n)`: a1 a class representative a_mu and b1
    one element per orbit of C(a_mu) acting by conjugation, weighted by
    |K_mu| * |orbit|. That is exact: a joint moment depends only on the
    cycle types of word images, so it does not change when all 2g images
    are conjugated by one t.
    Conjugation by t maps {phi : phi(a1) = a_mu} one-to-one onto
    {phi : phi(a1) = t^-1 a_mu t}, and for t in C(a_mu) it maps
    {phi : phi(a1) = a_mu, phi(b1) = b} onto the same set with phi(b1) =
    t^-1 b t. The weights sum to the point count, or the walk raises
    AssertionError. A spec of another genus raises ValueError before any
    work. The visit budget counts every point of Hom(Gamma, S_n), not the
    visited ones.
    """
    if any(spec.genus != genus for spec in specs.values()):
        raise ValueError("spec genus differs from requested genus")
    totals = dict.fromkeys(specs, 0)

    def add(weight: int, h: HomPoint) -> None:
        for name, spec in specs.items():
            totals[name] += weight * joint_moment(h, spec)

    points = _visit_walk(n, genus, _orbit_buckets, add, max_visits)
    return {name: Fraction(total, points) for name, total in totals.items()}


def exact_expectation(
    n: int, genus: int, spec: ObservableSpec, max_visits: int = DEFAULT_MAX_VISITS
) -> Fraction:
    """Exact rational mean of the spec's joint observable over every point."""
    return exact_means(n, genus, {"joint": spec}, max_visits)["joint"]


def generator_fix_expectation(n: int, genus: int) -> Fraction:
    """Exact mean fixed-point count of a single generator's image."""
    return handle_product_means(n, genus, [(lambda kappa: kappa.count(1),)])[0]


def handle_product_means(n: int, genus: int, terms) -> list[Fraction]:
    """Exact mean of each term, a tuple of class functions (callables on a
    cycle type) of generators x_1..x_m on distinct handles. With classes K_i,
    #{phi : phi(x_i) in K_i for all i}
        = n!^(2g-1-m) * prod |K_i| * sum_lam d_lam^(2-2g) * prod chi_lam(K_i)^2,
    so a mean needs per-irreducible sums sum_K |K| chi_lam(K)^2 f(K), made in
    O(p(n)^2) once per distinct class function and with no enumeration. A
    term of more functions than there are handles raises ValueError.
    """
    terms = list(terms)
    if any(len(term) > genus for term in terms):
        raise ValueError(f"a term has more class functions than the {genus} handles")
    table = get_table(n).freeze()

    @functools.cache
    def irrep_sums(f) -> list[int]:
        row = [0] * len(table.hook_products)
        for kappa, column, size in zip(table.partitions, table.matrix, table.class_sizes):
            mass = size * f(kappa)
            if mass:
                row = [r + mass * c * c for r, c in zip(row, column)]
        return row

    weights = irrep_sums(lambda kappa: 1)
    scales = [h ** (2 * genus - 2) for h in table.hook_products]
    means = []
    for term in terms:
        rows = [irrep_sums(f) for f in term]
        weights_total = sum(s * w ** len(rows) for s, w in zip(scales, weights))
        value_total = sum(s * prod(r[l] for r in rows) for l, s in enumerate(scales))
        # Both totals carry the same factor n!^(1-m); with f = 1 the count is hom_count.
        if weights_total * factorial(n) != hom_count(n, genus) * factorial(n) ** len(rows):
            raise ArithmeticError("class weights disagree with the point count")
        means.append(Fraction(value_total, weights_total))
    return means


def generator_spec_expectation(n: int, genus: int, spec: ObservableSpec) -> Fraction:
    """Exact mean of a spec whose groups each watch one generator, one handle
    each, by `handle_product_means`. A word other than a single generator
    letter, or two groups on one handle (as in ``a1 b1``), is not
    class-separable and raises ValueError.
    """
    if spec.genus != genus:
        raise ValueError("spec genus differs from requested genus")
    handles = []
    for group in spec.groups:
        if len(group.word.letters) != 1:
            raise ValueError(f"word {group.word} is not a single generator")
        handles.append(group.word.letters[0][0] // 2)
    if len(set(handles)) != len(handles):
        raise ValueError("two groups watch generators of one handle")
    return handle_product_means(n, genus, [tuple(g.value for g in spec.groups)])[0]


# ---------------------------------------------------------------------------
# Exactly uniform sampling


class SamplerPlan:
    """Frozen integer weight tables that drive exact uniform sampling."""

    def __init__(self, n: int, genus: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        if genus < 2:
            raise ValueError("genus must be >= 2")
        self.n = n
        self.genus = genus
        self.table: CharacterTable = get_table(n).freeze()
        parts = self.table.partitions
        self.n_factorial = factorial(n)
        # Dense character matrix indexed [class][irrep], shared with the table.
        self.chi_matrix = self.table.matrix
        # M_m[k] = tuples of m commutator blocks multiplying to a fixed element
        # of class k; m = 1 is the plain commutator count.
        hooks = self.table.hook_products
        self.block_counts: dict[int, tuple[int, ...]] = {}
        for m in range(1, genus):
            powers = [h ** (2 * m - 1) for h in hooks]
            self.block_counts[m] = tuple(
                sum(map(mul, chi_row, powers)) for chi_row in self.chi_matrix
            )
        if any(c < 0 for counts in self.block_counts.values() for c in counts):
            raise ArithmeticError("negative block count")
        self.pair_counts = self.block_counts[1]
        stage = self.block_counts[genus - 1]
        self.first_block_weights = tuple(
            size * stage[i] * self.pair_counts[i]
            for i, size in enumerate(self.table.class_sizes)
        )
        self.total_weight = sum(self.first_block_weights)
        if self.total_weight != hom_count(n, genus):
            raise ArithmeticError("stage weights do not sum to the point count")
        # Fibre route per class K: transport, with n!^2 / (|K| N_1(K)) expected
        # trials, when |C_K| <= p(n); otherwise the uniform-class route, with
        # p(n) n! / N_1(K). Rejection from pairs draws `a` as the class
        # representative a_mu with probability |mu| / n! (class_cum ends at n!).
        p = len(parts)
        sizes, centralizers = self.table.class_sizes, self.table.centralizer_sizes
        self.routes = tuple(c <= p for c in centralizers)
        self.class_cum = list(itertools.accumulate(sizes))
        self.class_reps = tuple(map(_class_representative, parts))
        self.rep_inverses = tuple(map(inverse, self.class_reps))
        # Bulk set S = {K : N_{g-1}(K) <= M} for the N_{g-1} value M minimising
        # T times the expected first-block trials, the integer n!^2 M + sum over
        # K outside S of W_K trials(K) = |K| N_{g-1}(K) n! min(|C_K|, p(n)),
        # kept as a suffix sum down sorted classes.
        weights = self.first_block_weights
        fact = self.n_factorial
        live = sorted((stage[k], k) for k, w in enumerate(weights) if w)
        costs, outside = [], 0
        for value, group in itertools.groupby(reversed(live), key=lambda vk: vk[0]):
            costs.append((fact**2 * value + outside, value))
            outside += value * fact * sum(sizes[k] * min(centralizers[k], p) for _, k in group)
        self.bulk_limit = min(costs)[1]
        self.bulk_thresholds = {parts[k]: v for v, k in live if v <= self.bulk_limit}
        self.bulk_fixed = frozenset(mu.count(1) for mu in self.bulk_thresholds)
        self.bulk_mass = sum(weights[k] for v, k in live if v <= self.bulk_limit)
        self.rest_classes = tuple(sorted(k for v, k in live if v > self.bulk_limit))
        rest_weights = (weights[k] for k in self.rest_classes)
        self.rest_cum = list(itertools.accumulate(rest_weights, initial=self.bulk_mass))[1:]
        self._mid_draws: dict[tuple[int, int], tuple[list[int], array]] = {}

    # -- lazy weight rows ---------------------------------------------------

    def mid_draw(self, r_class: int, remaining: int):
        """Cumulative weights over class pairs (u, s) for the next mid block,
        given a partial product in class r_class and `remaining` blocks after
        it. Returns (cum, pairs); pairs[i] is the flat index u * p + s of the
        i-th positive weight, in u-major order."""
        key = (r_class, remaining)
        draw = self._mid_draws.get(key)
        if draw is None:
            chi = self.chi_matrix
            p = len(chi)
            sizes = self.table.class_sizes
            completions = self.block_counts[remaining]
            square = self.n_factorial**2
            # F(u, s, r) = |K_u| |K_s| sum_l chi_l(u) chi_l(s) chi_l(r) h_l / (n!)^2
            v = [c * h for c, h in zip(chi[r_class], self.table.hook_products)]
            cum: list[int] = []
            pairs = array("I")
            total = 0
            for u in range(p):
                n_u = self.pair_counts[u]
                if n_u == 0:
                    continue
                w = [c * x for c, x in zip(chi[u], v)]
                for s in range(p):
                    scaled = sizes[u] * sizes[s] * sum(map(mul, w, chi[s]))
                    q, r = divmod(scaled, square)
                    if r or q < 0:
                        raise ArithmeticError(
                            "factorization count is not a non-negative integer"
                        )
                    weight = n_u * q * completions[s]
                    if weight > 0:
                        total += weight
                        cum.append(total)
                        pairs.append(u * p + s)
            if total != self.block_counts[remaining + 1][r_class]:
                raise ArithmeticError("mid-block weights disagree with the block count")
            draw = (cum, pairs)
            self._mid_draws[key] = draw
        return draw


@functools.cache
def get_sampler(n: int, genus: int) -> SamplerPlan:
    """Shared immutable plan for (n, genus); building one is not free."""
    return SamplerPlan(n, genus)


def _pair_with_commutator_type(plan: SamplerPlan, fixed_ok, accept, rng: random.Random):
    """Rejection loop over pairs (a_mu, b), class mu drawn with probability
    |mu| / n! and b uniform, until the commutator's fixed-point count is in
    fixed_ok and accept(its cycle type) holds; returns the pair and its
    commutator. A uniform conjugation t makes (a_mu, b) a uniform pair and keeps
    the commutator's class, so callers conjugate by a uniform t or transporter."""
    n = plan.n
    fact = plan.n_factorial
    class_cum, reps, rep_inverses = plan.class_cum, plan.class_reps, plan.rep_inverses
    randrange = rng.randrange
    while True:
        kidx = bisect_right(class_cum, randrange(fact))
        a = reps[kidx]
        b = _decode_perm(randrange(fact), n)
        # the commutator's fixed points are the a[b[i]] with a[b[i]] == b[a[i]]
        if sum([a[y] == b[x] for x, y in zip(a, b)]) not in fixed_ok:
            continue
        inv_b = [0] * n
        for i in range(n):
            inv_b[b[i]] = i
        # commutator a^-1 b^-1 a b, left to right
        c = [b[a[inv_b[x]]] for x in rep_inverses[kidx]]
        if accept(cycle_type(c)):
            return a, tuple(b), tuple(c)


def _sample_commutator_fiber(plan: SamplerPlan, sigma: Permutation, rng: random.Random):
    """Uniform pair with commutator sigma. Transport: pairs (a_mu, b) rejected
    into sigma's class and conjugated into place by a uniform transporter, which
    absorbs any extra uniform conjugation. Uniform class: a uniform in a uniform
    class mu, kept iff a*sigma has type mu, so P(a) ~ 1/|mu| ~ |C(a)|; then b
    uniform among the |C(a)| elements conjugating a to a*sigma."""
    sigma_class = plan.table.index[cycle_type(sigma)]
    if plan.pair_counts[sigma_class] == 0:
        raise ValueError("no pairs have this commutator")
    parts = plan.table.partitions
    if plan.routes[sigma_class]:
        target = parts[sigma_class]
        a, b, tau = _pair_with_commutator_type(plan, (target.count(1),), target.__eq__, rng)
        t = uniform_conjugator(tau, sigma, rng)
        return conjugate(a, t), conjugate(b, t)
    while True:
        mu = parts[rng.randrange(len(parts))]
        a = uniform_in_class(mu, plan.n, rng)
        moved = compose(a, sigma)
        if fix_count(moved) == mu.count(1) and cycle_type(moved) == mu:
            break
    return a, uniform_conjugator(a, moved, rng)


def sample_hom(plan: SamplerPlan, rng: random.Random) -> HomPoint:
    """One exactly uniform homomorphism point; HomPoint checks its relator.

    The first block, of class K with weight W_K = |K| N_1(K) N_{g-1}(K), is with
    probability bulk_mass / #points a uniform pair kept iff K is in the bulk set
    and randrange(M) < N_{g-1}(K): P(class K) = (|K| N_1(K) / n!^2) (N_{g-1}(K)
    / M), proportional to W_K; the pair, drawn with a class representative as
    its first coordinate, is then conjugated by a uniform t. Otherwise a class
    outside it is drawn by weight, then a uniform element and a uniform pair
    with that commutator.
    """
    n, genus = plan.n, plan.genus
    r = rng.randrange(plan.total_weight)
    if r < plan.bulk_mass:
        get, limit = plan.bulk_thresholds.get, plan.bulk_limit
        a, b, partial = _pair_with_commutator_type(
            plan, plan.bulk_fixed, lambda mu: rng.randrange(limit) < get(mu, 0), rng
        )
        t = _decode_perm(rng.randrange(plan.n_factorial), n)  # uniform
        a, b, partial = conjugate(a, t), conjugate(b, t), conjugate(partial, t)
    else:
        mu = plan.table.partitions[plan.rest_classes[bisect_right(plan.rest_cum, r)]]
        partial = uniform_in_class(mu, n, rng)
        a, b = _sample_commutator_fiber(plan, partial, rng)
    images = [a, b]
    for j in range(2, genus):
        value = _draw_mid_block(plan, partial, genus - j, rng)
        a, b = _sample_commutator_fiber(plan, value, rng)
        images += [a, b]
        partial = compose(partial, value)
    a, b = _sample_commutator_fiber(plan, inverse(partial), rng)
    images += [a, b]
    return HomPoint(tuple(images), genus, n)


def _draw_mid_block(plan: SamplerPlan, partial: Permutation, remaining: int, rng):
    """Value of the next commutator block given the product so far, for chains
    with at least two free blocks remaining.

    The class pair (u, s) is drawn from `plan.mid_draw`, where u is the class
    of the block and s the class of the product after it; the block is then
    uniform on A = {u in K_u : partial*u in K_s}. It is placed by rejection
    from the smaller class, the u side on a tie: uniform u in K_u kept iff
    partial*u is in K_s, or uniform v in K_s kept iff partial^-1*v is in K_u,
    returning u = partial^-1*v. Both are exact, since u -> partial*u maps A
    one-to-one onto the kept v, and both keep |A| = F(u, s, r) elements, r
    the class of partial, so the smaller class K takes fewer expected trials,
    |K| / F.
    """
    parts = plan.table.partitions
    r_class = plan.table.index[cycle_type(partial)]
    cum, pairs = plan.mid_draw(r_class, remaining)
    u_idx, s_idx = divmod(pairs[bisect_right(cum, rng.randrange(cum[-1]))], len(parts))
    mu_u, mu_s = parts[u_idx], parts[s_idx]
    from_s = plan.table.class_sizes[s_idx] < plan.table.class_sizes[u_idx]
    base, drawn, kept = (inverse(partial), mu_s, mu_u) if from_s else (partial, mu_u, mu_s)
    ones = kept.count(1)
    while True:
        x = uniform_in_class(drawn, plan.n, rng)
        moved = compose(base, x)
        if fix_count(moved) == ones and cycle_type(moved) == kept:
            return moved if from_s else x


# ---------------------------------------------------------------------------
# Monte Carlo estimation


class SampledStats:
    """Aggregates for several named observables over one shared sample stream."""

    def __init__(self, names, samples: int, shards: int):
        self.names = list(names)
        self.samples = samples
        self.shards = shards
        self.sums = {name: 0 for name in self.names}
        self.sumsqs = {name: 0 for name in self.names}
        self.shard_sums = {name: [0] * shards for name in self.names}
        self.shard_counts = [0] * shards
        self.shard_pair_sums: dict[tuple[str, str], list[int]] = {}

    def track_pair(self, name_x: str, name_y: str) -> None:
        self.shard_pair_sums.setdefault((name_x, name_y), [0] * self.shards)

    def add(self, shard: int, values: dict) -> None:
        self.shard_counts[shard] += 1
        for name, v in values.items():
            self.sums[name] += v
            self.sumsqs[name] += v * v
            self.shard_sums[name][shard] += v
        for (nx, ny), row in self.shard_pair_sums.items():
            row[shard] += values[nx] * values[ny]

    def mean(self, name: str) -> float:
        return self.sums[name] / self.samples

    def stderr(self, name: str) -> float:
        m = self.mean(name)
        var = (self.sumsqs[name] - self.samples * m * m) / (self.samples - 1)
        return sqrt(max(var, 0.0) / self.samples)

    def shard_means(self, name: str) -> tuple[float, ...]:
        return tuple(
            s / c for s, c in zip(self.shard_sums[name], self.shard_counts)
        )

    def gap(self, joint: str, factors) -> tuple[float, float, float]:
        """The joint mean minus the product of the factor means, that product,
        and the standard error of the gap from the spread of its per-shard
        values."""
        product = 1.0
        for name in factors:
            product *= self.mean(name)
        factor_shards = [self.shard_means(name) for name in factors]
        shard_gaps = []
        for shard, joint_mean in enumerate(self.shard_means(joint)):
            p = 1.0
            for means in factor_shards:
                p *= means[shard]
            shard_gaps.append(joint_mean - p)
        k = len(shard_gaps)
        mean_gap = sum(shard_gaps) / k
        spread = sum((g - mean_gap) ** 2 for g in shard_gaps) / (k - 1)
        return self.mean(joint) - product, product, (spread / k) ** 0.5

    def covariance(self, name_x: str, name_y: str) -> float:
        mx, my = self.mean(name_x), self.mean(name_y)
        total = sum(self.shard_pair_sums[name_x, name_y])
        return (total - self.samples * mx * my) / (self.samples - 1)

    def covariance_stderr(self, name_x: str, name_y: str) -> float:
        """Spread of per-shard covariances, scaled by the shard count."""
        key = (name_x, name_y)
        covs = []
        for shard in range(self.shards):
            c = self.shard_counts[shard]
            if c < 2:
                continue
            mx = self.shard_sums[name_x][shard] / c
            my = self.shard_sums[name_y][shard] / c
            covs.append((self.shard_pair_sums[key][shard] - c * mx * my) / (c - 1))
        if len(covs) < 2:
            return float("inf")
        mean_cov = sum(covs) / len(covs)
        spread = sum((c - mean_cov) ** 2 for c in covs) / (len(covs) - 1)
        return sqrt(spread / len(covs))


def run_sampled_stats(
    plan: SamplerPlan,
    evaluators: dict,
    samples: int,
    seed,
    pairs=(),
    shards: int = 16,
) -> SampledStats:
    """Evaluate every named observable on one shared stream of uniform points.

    Shard i draws its share from the fixed sub-stream stream_for(seed, i), so
    the sums do not depend on how the shards are executed. Evaluators on one
    word share its cycle type through the point's cache (HomPoint.cycle_type_of).
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    stats = SampledStats(evaluators.keys(), samples, min(shards, samples))
    for nx, ny in pairs:
        stats.track_pair(nx, ny)
    base, extra = divmod(samples, stats.shards)
    for shard in range(stats.shards):
        rng = stream_for(seed, shard)
        for _ in range(base + (1 if shard < extra else 0)):
            h = sample_hom(plan, rng)
            stats.add(shard, {name: fn(h) for name, fn in evaluators.items()})
    return stats

