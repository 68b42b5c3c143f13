import hashlib
import itertools
import time
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

import surfcover
from surfcover import acceptance
from surfcover import characters
from surfcover import homspace
from surfcover.characters import class_size, commutator_count, factorization_count, hom_count
from surfcover.homspace import (
    PAIR_MATERIALIZE_LIMIT,
    BudgetExceededError,
    Seed,
    _class_representative,
    _sample_commutator_fiber,
    enumerate_homs,
    exact_expectation,
    exact_means,
    generator_fix_expectation,
    generator_spec_expectation,
    get_buckets,
    get_sampler,
    handle_product_means,
    run_sampled_stats,
    sample_hom,
    stream_for,
    uniform_conjugator,
    uniform_in_class,
)
from surfcover.observables import ObservableGroup, ObservableSpec, fixed_points, joint_moment
from surfcover.perms import (
    commutator,
    compose,
    conjugate,
    cycle_type,
    identity,
    inverse,
)
from surfcover.words import IdentityWordError, word_from_text


def w(text, genus=2):
    return word_from_text(text, genus)


def sample_stream(plan, seed, count):
    rng = stream_for(seed)
    return (sample_hom(plan, rng) for _ in range(count))


def spec_of(*groups, genus=2):
    return ObservableSpec(tuple(groups), genus)


def f_spec(text, genus=2):
    return spec_of(ObservableGroup(w(text, genus), (1,)), genus=genus)


def test_buckets_small():
    b2 = get_buckets(2)
    assert len(b2[identity(2)]) == 4
    assert b2.total_pairs() == 4
    b3 = get_buckets(3)
    assert len(b3[identity(3)]) == 18
    assert b3.total_pairs() == 36
    assert list(b3) == sorted(b3)
    for sigma, pairs in b3.items():
        assert len(pairs) == commutator_count(3, cycle_type(sigma))
        assert pairs == sorted(pairs)
        for a, b in pairs:
            assert commutator(a, b) == sigma


def test_buckets_refused_past_materialize_limit():
    assert PAIR_MATERIALIZE_LIMIT == 6
    with pytest.raises(ValueError):
        get_buckets(7)
    with pytest.raises(ValueError):
        get_buckets(0)


def test_enumerate_counts():
    assert enumerate_homs(2, 2, lambda h: None) == 16
    assert enumerate_homs(3, 2, lambda h: None) == 486
    assert enumerate_homs(2, 3, lambda h: None) == 64
    assert enumerate_homs(4, 2, lambda h: None) == hom_count(4, 2)


VISIT_ORDER_SHA256 = {
    (3, 2): "7d1cf8c72f0e46ec41864f4c38a8e42677b77b0f38c26b729a9b307a40d90ad7",
    (4, 2): "ff78990dc00ca377dad3575287c12a1db80a91cfc867058735709fa257fc8481",
    (2, 3): "6a91082599f913101d2750d5dcd129417ab4a5303649ac7810a95c9ad8d7d21a",
    (3, 3): "5312f4c345e2aba0e39a2a5ea984704b7ada9f407cdaf673f0c7bad8b03d9582",
    (2, 4): "15878c6b401e2e2cceddda53360a38e14647f0f3ab64a82ad6b55428816a2539",
    (2, 5): "42464096725fe7237e823279ad4cfb2cc53ef81104b9f7b2559137dfd4b53e28",
}


@pytest.mark.parametrize("n, genus", sorted(VISIT_ORDER_SHA256))
def test_enumeration_visit_order_is_pinned(n, genus):
    # exact means do not depend on the order; this pins it for every caller
    digest = hashlib.sha256()
    enumerate_homs(n, genus, lambda h: digest.update(repr(h.images).encode()))
    assert digest.hexdigest() == VISIT_ORDER_SHA256[n, genus]


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_homs(4, 2, lambda h: None, max_visits=1000)
    with pytest.raises(BudgetExceededError):
        exact_expectation(4, 2, f_spec("a1"), max_visits=1000)


def test_oversized_plan_refused_up_front():
    assert BudgetExceededError is characters.BudgetExceededError
    assert BudgetExceededError is surfcover.BudgetExceededError
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        get_sampler(32, 2)
    assert time.perf_counter() - start < 1.0


def assert_genuine_point(h, n, genus):
    """Each image a permutation of range(n), and the product over handles of
    a⁻¹ b⁻¹ a b, left to right, the identity; computed here from index
    lookups alone, independent of surfcover.perms."""
    points = list(range(n))
    assert len(h.images) == 2 * genus
    assert all(sorted(p) == points for p in h.images)
    prod = points
    for a, b in zip(h.images[::2], h.images[1::2]):
        a_inv = [a.index(v) for v in points]
        b_inv = [b.index(v) for v in points]
        for step in (a_inv, b_inv, a, b):
            prod = [step[v] for v in prod]
    assert prod == points


def test_enumerate_visits_distinct_valid_points():
    for n, genus in ((3, 2), (2, 3), (3, 3)):
        seen = set()
        enumerate_homs(n, genus, seen.add)
        assert len(seen) == hom_count(n, genus)
        for h in seen:
            assert_genuine_point(h, n, genus)


@pytest.mark.parametrize("n, genus", [(16, 2), (10, 3)])
def test_sampled_points_satisfy_the_relator(n, genus):
    for h in sample_stream(get_sampler(n, genus), 17, 200):
        assert_genuine_point(h, n, genus)


def test_exact_expectation_against_direct_average():
    spec = f_spec("a1")
    total = 0
    count = 0
    perms = list(itertools.permutations(range(3)))
    ident = identity(3)
    for a1 in perms:
        for b1 in perms:
            lead = commutator(a1, b1)
            for a2 in perms:
                for b2 in perms:
                    if compose(lead, commutator(a2, b2)) == ident:
                        total += sum(1 for i, v in enumerate(a1) if i == v)
                        count += 1
    assert count == 486
    assert exact_expectation(3, 2, spec) == Fraction(total, 486)
    assert exact_expectation(2, 2, spec) == 1
    assert exact_expectation(3, 2, spec) == Fraction(10, 9)


def test_exact_expectation_identity_word_rejected():
    with pytest.raises(IdentityWordError):
        f_spec("a1 a1'")


def test_exact_expectation_conjugation_inversion_invariance():
    base = exact_expectation(3, 2, f_spec("a1"))
    assert exact_expectation(3, 2, f_spec("b2' a1 b2")) == base
    assert exact_expectation(3, 2, f_spec("a1'")) == base
    joint = spec_of(
        ObservableGroup(w("a1"), (1, 2)), ObservableGroup(w("a2"), (2,))
    )
    conjugated = spec_of(
        ObservableGroup(w("b1 a1 b1'"), (1, 2)), ObservableGroup(w("a2'"), (2,))
    )
    assert exact_expectation(3, 2, joint) == exact_expectation(3, 2, conjugated)


def test_exact_expectation_empty_spec():
    assert exact_expectation(3, 2, spec_of()) == 1


def test_generator_fix_expectation_matches_enumeration():
    spec = f_spec("a1")
    for n in (2, 3, 4):
        assert generator_fix_expectation(n, 2) == exact_expectation(n, 2, spec)
    assert generator_fix_expectation(2, 3) == exact_expectation(2, 3, f_spec("a1", 3))


def reduced_walk_specs(genus):
    """Multi-handle words, inverse letters, several exponents and powers > 1."""
    last = f"b{genus}"
    return {
        "a1": f_spec("a1", genus),
        "inverse": f_spec("b1' a2'", genus),
        "power": spec_of(ObservableGroup(w(f"a1 {last}' a2", genus), (1, 2), 2), genus=genus),
        "joint": spec_of(
            ObservableGroup(w("a1' b2", genus), (2, 3)),
            ObservableGroup(w(f"b1 {last}", genus), (1, 4, 6), 3),
            ObservableGroup(w("a2", genus), (2,)),
            genus=genus,
        ),
    }


@pytest.mark.parametrize("n, genus", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
def test_exact_means_equal_the_full_enumeration_average(n, genus):
    specs = reduced_walk_specs(genus)
    totals = Counter()

    def visit(h):
        for name, spec in specs.items():
            totals[name] += joint_moment(h, spec)

    points = enumerate_homs(n, genus, visit)
    expected = {name: Fraction(totals[name], points) for name in specs}
    assert exact_means(n, genus, specs) == expected


def _centralizer(a):
    return [t for t in itertools.permutations(range(len(a))) if conjugate(a, t) == a]


@pytest.mark.parametrize(
    "n, genus, visits",
    [(3, 2, 171), (4, 2, 3512), (5, 2, 61288), (2, 3, 64), (3, 3, 5103)],
)
def test_exact_means_walk_one_a1_per_class(monkeypatch, n, genus, visits):
    firsts = []
    walk = homspace._walk

    def counted(*args):
        for weight, images in walk(*args):
            firsts.append((weight, images[:2]))
            yield weight, images

    monkeypatch.setattr(homspace, "_walk", counted)
    exact_means(n, genus, {"a1": f_spec("a1", genus)})
    assert len(firsts) == visits
    assert all(a == _class_representative(cycle_type(a)) for _, (a, _) in firsts)
    for weight, (a, b) in set(firsts):
        orbit = {conjugate(b, t) for t in _centralizer(a)}
        assert b == min(orbit)
        assert weight == class_size(cycle_type(a)) * len(orbit)
    assert sum(weight for weight, _ in firsts) == hom_count(n, genus)


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_buckets_hold_one_pair_per_orbit(n):
    source = homspace._orbit_buckets(n)
    table = characters.get_table(n)
    # Burnside: the orbits of S_n on pairs under simultaneous conjugation
    assert len(source) == sum(table.centralizer_sizes)
    assert list(source) == sorted(source)
    by_a = Counter()
    for sigma, (a, b), weight in source:
        assert commutator(a, b) == sigma
        by_a[a] += weight
    assert by_a == {
        _class_representative(mu): size * factorial(n)
        for mu, size in zip(table.partitions, table.class_sizes)
    }


def test_exact_means_refuse_a_spec_of_another_genus_up_front(monkeypatch):
    def fail(*args):
        raise AssertionError("work started before the genus check")

    for name in ("hom_count", "get_buckets", "_orbit_buckets"):
        monkeypatch.setattr(homspace, name, fail)
    for n in (4, 6):
        with pytest.raises(ValueError, match="genus"):
            exact_means(n, 3, {"a1": f_spec("a1", 3), "x": f_spec("a1")})
        with pytest.raises(ValueError, match="genus"):
            exact_expectation(n, 3, f_spec("a1"))


@pytest.mark.parametrize("n, genus", [(3, 2), (4, 2), (3, 3)])
def test_exact_means_budget_counts_every_point(n, genus):
    specs = {"a1": f_spec("a1", genus)}
    points = hom_count(n, genus)
    with pytest.raises(BudgetExceededError):
        exact_means(n, genus, specs, max_visits=points - 1)
    assert exact_means(n, genus, specs, max_visits=points) == exact_means(n, genus, specs)


def test_exact_expectation_n5_reference():
    expected = Fraction(4438, 4019)
    assert generator_fix_expectation(5, 2) == expected
    assert exact_expectation(5, 2, f_spec("a1")) == expected


def joint15_spec(first, genus):
    return spec_of(
        ObservableGroup(w(first, genus), (2, 3)),
        ObservableGroup(w("a2", genus), (4,)),
        genus=genus,
    )


@pytest.mark.parametrize("genus,max_n", [(2, 4), (3, 3)])
@pytest.mark.parametrize("first", ["a1", "b1"])
def test_generator_spec_expectation_matches_enumeration(genus, max_n, first):
    spec = joint15_spec(first, genus)
    for n in range(1, max_n + 1):
        assert generator_spec_expectation(n, genus, spec) == exact_expectation(n, genus, spec)


@pytest.mark.parametrize("first", ["a1", "b1"])
def test_exact_expectation_n5_joint15_reference(first):
    spec = joint15_spec(first, 2)
    assert exact_expectation(5, 2, spec) == generator_spec_expectation(5, 2, spec)


def test_exact_expectation_n5_cross_handle_reference():
    # Recorded from the walk over one a1 per class, before b1 was reduced.
    spec = spec_of(ObservableGroup(w("a1 b2"), (2, 3)), ObservableGroup(w("b1 a2'"), (4,)))
    assert exact_expectation(5, 2, spec) == Fraction(521295, 32152)


def test_generator_spec_expectation_one_group_is_generator_fix_expectation():
    for n in range(1, 17):
        assert generator_spec_expectation(n, 2, f_spec("a1")) == generator_fix_expectation(n, 2)
    assert generator_spec_expectation(8, 2, f_spec("a1")) == Fraction(431775051, 420033497)


def test_generator_spec_expectation_rejects_inseparable_specs():
    with pytest.raises(ValueError):
        generator_spec_expectation(4, 2, f_spec("a1 b1"))
    same_handle = spec_of(ObservableGroup(w("a1"), (1,)), ObservableGroup(w("b1"), (2,)))
    with pytest.raises(ValueError):
        generator_spec_expectation(4, 2, same_handle)


def test_handle_product_means_fixed_points_are_generator_fix_expectation():
    def fixed(kappa):
        return Counter(kappa)[1]

    for n in (8, 12, 16):
        assert handle_product_means(n, 2, [(fixed,)]) == [generator_fix_expectation(n, 2)]


def test_handle_product_means_refuses_more_functions_than_handles(monkeypatch):
    def fixed(kappa):
        return Counter(kappa)[1]

    def fail(*args, **kwargs):
        raise AssertionError("table work ran")

    # three generators on distinct handles need genus 3; the refusal comes first
    monkeypatch.setattr(homspace, "get_table", fail)
    with pytest.raises(ValueError, match="more class functions"):
        handle_product_means(4, 2, [(fixed,), (fixed, fixed, fixed)])
    monkeypatch.undo()
    assert handle_product_means(4, 3, [(fixed, fixed, fixed)])[0] > 0


def test_exact_cycle_moments_match_enumeration():
    # E[C_d(a1)], E[C_d(a2)] and E[C_d1(a1) C_d2(a2)] summed over every point
    sums = Counter()

    def visit(h):
        c1, c2 = Counter(cycle_type(h.images[0])), Counter(cycle_type(h.images[2]))
        for d1 in acceptance.CYCLE_D:
            sums["a1", d1] += c1[d1]
            sums["a2", d1] += c2[d1]
            for d2 in acceptance.CYCLE_D:
                sums[d1, d2] += c1[d1] * c2[d2]

    points = enumerate_homs(4, 2, visit)
    means, covs = acceptance.AcceptanceContext().exact_cycle_moments(4)
    for d in acceptance.CYCLE_D:
        assert means[d] == Fraction(sums["a1", d], points) == Fraction(sums["a2", d], points)
    for (d1, d2), cov in covs.items():
        assert cov == Fraction(sums[d1, d2], points) - means[d1] * means[d2]
    assert len(covs) == 9


@pytest.mark.parametrize(
    "p,q,quantile",
    [((1, 0, 2, 3), (0, 3, 2, 1), 16.27), ((1, 0, 3, 2), (2, 3, 0, 1), 24.32)],
    ids=["2-1-1", "2-2"],
)
def test_uniform_conjugator_is_uniform_over_transporters(p, q, quantile):
    # quantile: the 0.999 point of chi-square with (|C(p)| - 1) degrees of freedom
    transporters = [t for t in itertools.permutations(range(4)) if conjugate(p, t) == q]
    rng = stream_for(Seed(41), 4)
    samples = 2000
    counts = Counter(uniform_conjugator(p, q, rng) for _ in range(samples))
    assert set(counts) == set(transporters)
    expected = samples / len(transporters)
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < quantile
    with pytest.raises(ValueError):
        uniform_conjugator((1, 0, 2, 3), (1, 0, 3, 2), rng)
    with pytest.raises(ValueError):
        uniform_conjugator((1, 2, 0, 3), (1, 0, 3, 2), rng)


def test_uniform_in_class_is_uniform():
    rng = stream_for(4)
    mu = (2, 1, 1)
    counts = Counter(uniform_in_class(mu, 4, rng) for _ in range(12000))
    assert len(counts) == 6
    for value in counts.values():
        assert abs(value - 2000) < 220  # ~5 sigma


def test_sampler_plan_consistency():
    plan = get_sampler(3, 2)
    assert plan.total_weight == 486
    weights = dict(zip(plan.table.partitions, plan.first_block_weights))
    assert weights[(1, 1, 1)] == 18 * 18
    assert weights[(3,)] == 2 * 81
    assert weights[(2, 1)] == 0
    plan4 = get_sampler(4, 2)
    assert plan4.total_weight == hom_count(4, 2)
    # degenerate case: only the identity class carries weight when S_n is abelian
    plan2 = get_sampler(2, 2)
    weights2 = dict(zip(plan2.table.partitions, plan2.first_block_weights))
    assert weights2[(2,)] == 0
    assert weights2[(1, 1)] == plan2.total_weight == 16


def test_sample_hom_matches_support_and_is_deterministic():
    support = set()
    enumerate_homs(3, 2, support.add)
    plan = get_sampler(3, 2)
    first = [sample_hom(plan, stream_for(Seed(42, 0))) for _ in range(1)]
    second = [sample_hom(plan, stream_for(Seed(42, 0))) for _ in range(1)]
    assert first == second
    for h in sample_stream(plan, 42, 300):
        assert h in support


def test_sample_stream_distribution_loose():
    support = []
    enumerate_homs(3, 2, support.append)
    plan = get_sampler(3, 2)
    n_samples = 20000
    counts = Counter(sample_stream(plan, 8, n_samples))
    tv = 0.5 * sum(abs(counts.get(h, 0) / n_samples - 1 / 486) for h in support)
    assert tv < 0.08  # perfect-sampler noise is ~0.062 at this size


def test_sampler_mean_matches_exact_marginal():
    plan = get_sampler(6, 2)
    a1 = w("a1")
    stats = run_sampled_stats(
        plan, {"f": lambda h: fixed_points(h, a1)}, 8000, 21
    )
    exact = float(generator_fix_expectation(6, 2))
    assert abs(stats.mean("f") - exact) < 4 * stats.stderr("f")


def test_sampler_genus_three():
    plan = get_sampler(3, 3)
    assert plan.total_weight == hom_count(3, 3)
    for h in sample_stream(plan, 9, 40):
        assert h.genus == 3
        prod = identity(3)
        for i in range(3):
            prod = compose(prod, commutator(h.images[2 * i], h.images[2 * i + 1]))
        assert prod == identity(3)


def test_sampler_genus_three_block_marginals_match_enumeration():
    # joint law of the first two commutator-block classes, exactly enumerated
    def block_classes(h):
        return (
            cycle_type(commutator(h.images[0], h.images[1])),
            cycle_type(commutator(h.images[2], h.images[3])),
        )

    exact = Counter()
    enumerate_homs(3, 3, lambda h: exact.update([block_classes(h)]))
    total = sum(exact.values())
    assert total == hom_count(3, 3)
    plan = get_sampler(3, 3)
    n_samples = 6000
    sampled = Counter(block_classes(h) for h in sample_stream(plan, 31, n_samples))
    for key, count in exact.items():
        p = count / total
        sd = (n_samples * p * (1 - p)) ** 0.5
        assert abs(sampled.get(key, 0) - n_samples * p) < 5 * sd + 1
    assert set(sampled) <= set(exact)


def _mid_draw_reference(plan, r_class, remaining):
    """The mid-block class-pair weights built from factorization_count, pair
    by pair: (weights, pairs), pairs[i] = (u, s) in u-major order."""
    parts = plan.table.partitions
    completions = plan.block_counts[remaining]
    weights, pairs = [], []
    for u, n_u in enumerate(plan.pair_counts):
        if n_u == 0:
            continue
        for s in range(len(parts)):
            count = factorization_count(parts[u], parts[s], parts[r_class])
            weight = n_u * count * completions[s]
            if weight > 0:
                weights.append(weight)
                pairs.append((u, s))
    return weights, pairs


def _fiber_trials(plan, k):
    """Expected trials of a uniform pair with commutator in class k, on its route."""
    count = plan.pair_counts[k]
    if plan.routes[k]:
        return Fraction(plan.n_factorial**2, plan.table.class_sizes[k] * count)
    return Fraction(len(plan.table.partitions) * plan.n_factorial, count)


@pytest.mark.parametrize("n,genus", [(5, 3), (7, 3), (6, 4)])
def test_mid_draw_matches_factorization_count_reference(n, genus):
    plan = get_sampler(n, genus)
    p = len(plan.table.partitions)
    for remaining in range(1, genus - 1):
        completions = plan.block_counts[remaining]
        for r_class in range(p):
            limit, bulk_mass, cum, pairs = plan.mid_draw(r_class, remaining)
            weights, ref_pairs = _mid_draw_reference(plan, r_class, remaining)
            rest = [(w, (u, s)) for w, (u, s) in zip(weights, ref_pairs) if completions[s] > limit]
            assert bulk_mass == sum(weights) - sum(w for w, _ in rest)
            assert cum == list(itertools.accumulate((w for w, _ in rest), initial=bulk_mass))[1:]
            assert [divmod(i, p) for i in pairs] == [pair for _, pair in rest]
            assert (cum[-1] if cum else bulk_mass) == plan.block_counts[remaining + 1][r_class]
            if not weights:
                continue

            def cost(m):  # the total weight times the expected trials, placement left out
                outside = sum(
                    w * _fiber_trials(plan, u)
                    for w, (u, s) in zip(weights, ref_pairs)
                    if completions[s] > m
                )
                return plan.n_factorial**2 * m + outside

            assert limit == min(sorted({completions[s] for _, s in ref_pairs}), key=cost)


# The support of every mid block at n = 5 is A_5 for every even partial, so a
# chi-square over its 60 elements has 59 degrees of freedom, 0.999 point 98.32.
MID_LAW_QUANTILE = 98.32


def _mid_block_law(plan, partial, remaining, perms):
    """P(u | r) = N_1(K_u) N_remaining(K_{r u}) / N_{remaining+1}(K_r) for every u."""
    index = plan.table.index
    total = plan.block_counts[remaining + 1][index[cycle_type(partial)]]
    law = {}
    for u in perms:
        count = (
            plan.pair_counts[index[cycle_type(u)]]
            * plan.block_counts[remaining][index[cycle_type(compose(partial, u))]]
        )
        if count:
            law[u] = Fraction(count, total)
    assert sum(law.values()) == 1
    return law


def _chi2(counts, law, samples):
    assert set(counts) <= set(law)
    return sum((counts[u] - samples * p) ** 2 / (samples * p) for u, p in law.items())


@pytest.mark.parametrize("genus,remaining", [(3, 1), (4, 2)])
def test_mid_block_value_law(genus, remaining):
    # the value of _draw_mid_block over all of S_5, bulk and rest together, for
    # partial each class representative; an odd partial has no completion
    plan = get_sampler(5, genus)
    perms = list(itertools.permutations(range(5)))
    for k, rep in enumerate(plan.class_reps):
        if plan.block_counts[remaining + 1][k] == 0:
            assert (5 - len(cycle_type(rep))) % 2 == 1
            continue
        law = _mid_block_law(plan, rep, remaining, perms)
        assert len(law) == 60
        rng = stream_for(Seed(28), k, remaining)
        samples = 10_000
        counts = Counter()
        for _ in range(samples):
            a, b, value = homspace._draw_mid_block(plan, rep, remaining, rng)
            assert commutator(a, b) == value
            counts[value] += 1
        # the rest draws only v = rep^-1, whose product has the most completions
        assert 0 < counts[inverse(rep)] < samples
        assert _chi2(counts, law, samples) < MID_LAW_QUANTILE


@pytest.mark.parametrize("mu", [(3, 1), (2, 2), (1, 1, 1, 1)], ids=["3-1", "2-2", "1-1-1-1"])
def test_mid_block_pair_law(mu):
    # P(a, b) = N_1(K_{r [a, b]}) / N_2(K_r) over all 576 pairs of S_4 at genus 3;
    # 685.52 is the 0.999 point of chi-square with 575 degrees of freedom
    plan = get_sampler(4, 3)
    index = plan.table.index
    partial = plan.class_reps[index[mu]]
    total = plan.block_counts[2][index[mu]]
    perms = list(itertools.permutations(range(4)))
    law = {}
    for a in perms:
        for b in perms:
            s = index[cycle_type(compose(partial, commutator(a, b)))]
            law[a, b] = Fraction(plan.block_counts[1][s], total)
    assert sum(law.values()) == 1 and all(law.values())
    rng = stream_for(Seed(28), 4, index[mu])
    samples = 40_000
    counts = Counter()
    for _ in range(samples):
        a, b, value = homspace._draw_mid_block(plan, partial, 1, rng)
        assert commutator(a, b) == value
        counts[a, b] += 1
    assert _chi2(counts, law, samples) < 685.52


@pytest.mark.parametrize("genus,remaining", [(3, 1), (4, 2)])
def test_mid_block_placement_law(monkeypatch, genus, remaining):
    # The class pair (u, s) drawn by its full weight, bulk included, then the
    # block placed by _place_mid_block: u follows the law of the mid block.
    plan = get_sampler(5, genus)
    sizes, index = plan.table.class_sizes, plan.table.index
    drawn_from = []

    def recording(mu, n, rng):
        drawn_from.append(mu)
        return uniform_in_class(mu, n, rng)

    monkeypatch.setattr(homspace, "uniform_in_class", recording)
    sides = Counter()
    perms = list(itertools.permutations(range(5)))
    for mu in [(1, 1, 1, 1, 1), (2, 2, 1), (3, 1, 1), (5,)]:
        partial = plan.class_reps[index[mu]]
        law = _mid_block_law(plan, partial, remaining, perms)
        assert len(law) == 60
        weights, pairs = _mid_draw_reference(plan, index[mu], remaining)
        rng = stream_for(Seed(26), index[mu], remaining)
        samples = 10_000
        counts = Counter()
        for u_idx, s_idx in rng.choices(pairs, weights, k=samples):
            drawn_from.clear()
            u = homspace._place_mid_block(plan, partial, u_idx, s_idx, rng)
            assert (index[cycle_type(u)], index[cycle_type(compose(partial, u))]) == (u_idx, s_idx)
            from_s = sizes[s_idx] < sizes[u_idx]
            assert set(drawn_from) == {plan.table.partitions[s_idx if from_s else u_idx]}
            sides[from_s] += 1
            counts[u] += 1
        assert _chi2(counts, law, samples) < MID_LAW_QUANTILE
    assert sides[True] > 0 and sides[False] > 0


class _Placed(Exception):
    pass


class _FixedDraw:
    def __init__(self, value):
        self.value = value

    def randrange(self, stop):
        assert 0 <= self.value < stop
        return self.value


def test_mid_block_rest_draw_follows_its_cumulative_weights(monkeypatch):
    # both ends of each rest pair's interval of cum place that pair
    plan = get_sampler(8, 3)
    p = len(plan.table.partitions)
    placed = []

    def place(plan, partial, u_idx, s_idx, rng):
        placed.append((u_idx, s_idx))
        raise _Placed

    monkeypatch.setattr(homspace, "_place_mid_block", place)
    rest_pairs = 0
    for r_class, rep in enumerate(plan.class_reps):
        limit, bulk_mass, cum, pairs = plan.mid_draw(r_class, 1)
        for low, high, flat in zip([bulk_mass, *cum], cum, pairs):
            for value in (low, high - 1):
                with pytest.raises(_Placed):
                    homspace._draw_mid_block(plan, rep, 1, _FixedDraw(value))
                assert placed.pop() == divmod(flat, p)
        rest_pairs += len(pairs)
    assert rest_pairs > len(plan.class_reps)


def _expected_mid_block_trials(plan):
    """Exact expected mid-stage trials per point: (bulk pair trials, rest
    placement trials, rest fibre trials). Before mid block j + 1 the product
    so far is in class r with probability |K_r| N_j(r) N_{g-j}(r) / #points;
    there a bulk pair is kept with probability bulk_mass / (n!^2 limit), so the
    bulk takes n!^2 limit / N_{g-j}(r) expected trials. A rest pair (u, s) of
    weight w keeps F = w / (N_1(u) N_remaining(s)) elements, so placing it
    from class K takes |K| / F expected trials, and its fibre the trials of u."""
    p, sizes, counts = len(plan.table.partitions), plan.table.class_sizes, plan.block_counts
    bulk = placement = fibre = Fraction(0)
    for remaining in range(plan.genus - 2, 0, -1):
        done = plan.genus - 1 - remaining
        for r, size in enumerate(sizes):
            total = counts[remaining + 1][r]
            p_r = Fraction(size * counts[done][r] * total, plan.total_weight)
            if not p_r:
                continue
            limit, bulk_mass, cum, pairs = plan.mid_draw(r, remaining)
            bulk += p_r * Fraction(plan.n_factorial**2 * limit, total)
            for low, high, flat in zip([bulk_mass, *cum], cum, pairs):
                u, s = divmod(flat, p)
                kept, rem = divmod(high - low, plan.pair_counts[u] * counts[remaining][s])
                assert rem == 0 and kept > 0
                trials_u, trials_s = Fraction(sizes[u], kept), Fraction(sizes[s], kept)
                taken, other = (trials_s, trials_u) if sizes[s] < sizes[u] else (trials_u, trials_s)
                assert taken <= other
                weight = p_r * Fraction(high - low, total)
                placement += weight * taken
                fibre += weight * _fiber_trials(plan, u)
    return bulk, placement, fibre


@pytest.mark.parametrize(
    "n,genus,bulk,placement,fibre",
    [(10, 3, 1.41, 0.27, 0.18), (8, 3, 1.29, 0.26, 0.23), (6, 4, 2.33, 0.02, 0.07)],
)
def test_mid_block_trials_from_the_smaller_class(n, genus, bulk, placement, fibre):
    # counted work, free of host noise: expected mid-stage trials per point,
    # each bulk trial decoding two permutations; placing from the smaller class
    # and a fibre per block took 9.56 + 12.01 / 6.04 + 7.18 / 7.04 + 7.85 before
    expected = _expected_mid_block_trials(get_sampler(n, genus))
    assert [round(float(x), 2) for x in expected] == [bulk, placement, fibre]


def _bulk_limit_reference(plan):
    """The bulk limit M, by costing every candidate against every live class."""
    stage = plan.block_counts[plan.genus - 1]
    live = [k for k, w in enumerate(plan.first_block_weights) if w]

    def cost(m):  # T times the expected first-block trials
        outside = sum(
            plan.first_block_weights[k] * _fiber_trials(plan, k) for k in live if stage[k] > m
        )
        return plan.n_factorial**2 * m + outside

    return min(sorted({stage[k] for k in live}), key=cost)


@pytest.mark.parametrize("n,genus", [(7, 2), (6, 3), (16, 2), (10, 3)])
def test_first_block_bulk_set(n, genus):
    plan = get_sampler(n, genus)
    stage, weights = plan.block_counts[genus - 1], plan.first_block_weights
    live = [k for k, w in enumerate(weights) if w]
    bulk = [k for k in live if stage[k] <= plan.bulk_limit]
    assert plan.bulk_thresholds == {plan.table.partitions[k]: stage[k] for k in bulk}
    assert plan.bulk_mass == sum(weights[k] for k in bulk)
    assert plan.rest_classes == tuple(k for k in live if k not in bulk)
    rest_weights = [weights[k] for k in plan.rest_classes]
    assert plan.rest_cum == list(itertools.accumulate(rest_weights, initial=plan.bulk_mass))[1:]
    assert plan.bulk_mass + sum(rest_weights) == plan.total_weight
    assert plan.bulk_limit == _bulk_limit_reference(plan)


@pytest.mark.parametrize("n,genus,rest,quantile", [(7, 2, 1, 24.32), (6, 3, 1, 20.52)])
def test_first_block_class_frequencies(n, genus, rest, quantile):
    # quantile: the 0.999 point of chi-square with (live classes - 1) degrees of freedom
    plan = get_sampler(n, genus)
    assert len(plan.rest_classes) == rest  # both the bulk and the rest branch run
    samples = 4000
    counts = Counter(
        cycle_type(commutator(*h.images[:2])) for h in sample_stream(plan, 17, samples)
    )
    chi2 = 0.0
    for mu, weight in zip(plan.table.partitions, plan.first_block_weights):
        expected = samples * weight / plan.total_weight
        if weight:
            chi2 += (counts[mu] - expected) ** 2 / expected
        else:
            assert counts[mu] == 0
    assert chi2 < quantile


# sha256 of repr([h.images for the first k points of Seed(3), stream 0]); a
# change to any seeded stream at genus 2 to 5 changes one of these digests.
GOLDEN_STREAMS = [
    (6, 4, 200, "13a4d5b980dece9d02d46784bfb9170d5dd7634f528314748199594a8fc6016f"),
    (8, 3, 300, "9fd3e1dbdfd8b26ad197328846b9560afe42dadb9f16c16f9997ee8a87f121a9"),
    (7, 5, 100, "bf22fd1d700b2c915bc277aafdcb84d8325f17758e262f5193b9c52491b0b7ca"),
    (16, 2, 100, "295c58eef6c6c813c4fa81ecd67f4262a4c6651e9b6d2c94025ca0695df4852c"),
    (12, 2, 200, "3026ae9301f7534945d4cabccadbc71616c3b6383dcd1f17e2ed0a8be9c78576"),
]


@pytest.mark.parametrize(
    "n,genus,k,digest", GOLDEN_STREAMS, ids=[f"{n}-{g}-{k}" for n, g, k, _ in GOLDEN_STREAMS]
)
def test_sample_hom_golden_stream(n, genus, k, digest):
    plan = get_sampler(n, genus)
    rng = stream_for(Seed(3), 0)
    images = [sample_hom(plan, rng).images for _ in range(k)]
    assert hashlib.sha256(repr(images).encode()).hexdigest() == digest


def test_route_choice_covers_both_routes():
    plan = get_sampler(12, 2)
    routes = [plan.routes[k] for k, count in enumerate(plan.pair_counts) if count > 0]
    assert (sum(routes), len(routes)) == (13, 40)
    # The golden stream at (12, 2) takes both routes in its last block.
    rng = stream_for(Seed(3), 0)
    taken = Counter()
    for _ in range(200):
        images = sample_hom(plan, rng).images
        last = plan.table.index[cycle_type(commutator(images[2], images[3]))]
        taken[plan.routes[last]] += 1
    assert taken[True] > 0 and taken[False] > 0


def test_route_rule_takes_fewer_expected_trials():
    for n in range(2, 19):
        plan = get_sampler(n, 2)
        p, fact = len(plan.table.partitions), plan.n_factorial
        for k, count in enumerate(plan.pair_counts):
            if count == 0:
                continue
            transport = Fraction(fact**2, plan.table.class_sizes[k] * count)
            uniform_class = Fraction(p * fact, count)
            assert plan.routes[k] == (plan.table.centralizer_sizes[k] <= p)
            assert plan.routes[k] == (transport <= uniform_class)


def test_class_representatives():
    for n in (1, 5, 9, 16):
        plan = get_sampler(n, 2)
        assert plan.class_cum[-1] == plan.n_factorial
        assert plan.class_cum == list(itertools.accumulate(plan.table.class_sizes))
        for mu, rep, rep_inv in zip(plan.table.partitions, plan.class_reps, plan.rep_inverses):
            assert cycle_type(rep) == mu
            assert rep_inv == inverse(rep)


def _fiber_class_weights(plan, sigma_class):
    """|C_mu| #{a in mu : a sigma in mu} for every class mu, from the character
    table: #{a in mu : a sigma in mu} = |mu|^2 sum_l chi_l(mu)^2 chi_l(sigma) h_l / n!^2."""
    table = plan.table
    v = [c * h for c, h in zip(table.matrix[sigma_class], table.hook_products)]
    weights = []
    for size, centralizer, row in zip(table.class_sizes, table.centralizer_sizes, table.matrix):
        scaled = size * size * sum(c * c * x for c, x in zip(row, v))
        count, rem = divmod(scaled, plan.n_factorial**2)
        assert rem == 0 and count >= 0
        weights.append(centralizer * count)
    assert sum(weights) == plan.pair_counts[sigma_class]
    return weights


@pytest.mark.parametrize(
    "mu,transport,quantile",
    [((5, 1, 1), True, 32.91), ((3, 1, 1, 1, 1), False, 34.53)],
    ids=["transport", "uniform-class"],
)
def test_fiber_route_class_law(mu, transport, quantile):
    # quantile: the 0.999 point of chi-square with (positive weights - 1) degrees of freedom
    plan = get_sampler(7, 2)
    sigma_class = plan.table.index[mu]
    assert plan.routes[sigma_class] is transport
    sigma = plan.class_reps[sigma_class]
    rng = stream_for(Seed(23), 7)
    samples = 4000
    counts = Counter()
    for _ in range(samples):
        a, b = _sample_commutator_fiber(plan, sigma, rng)
        assert commutator(a, b) == sigma
        counts[cycle_type(a)] += 1
    weights = _fiber_class_weights(plan, sigma_class)
    chi2 = 0.0
    for kappa, weight in zip(plan.table.partitions, weights):
        expected = samples * weight / plan.pair_counts[sigma_class]
        if weight:
            chi2 += (counts[kappa] - expected) ** 2 / expected
        else:
            assert counts[kappa] == 0
    assert chi2 < quantile


def test_sampler_mean_matches_exact_marginal_genus_four():
    # genus 4 is the first genus whose chain draws a mid block with two blocks after it
    plan = get_sampler(5, 4)
    a1 = w("a1", 4)
    stats = run_sampled_stats(
        plan, {"f": lambda h: fixed_points(h, a1)}, 4000, 4
    )
    exact = float(generator_fix_expectation(5, 4))
    assert abs(stats.mean("f") - exact) < 4 * stats.stderr("f")


def joint_stats(plan, spec, samples, seed):
    return run_sampled_stats(plan, {"joint": lambda h: joint_moment(h, spec)}, samples, seed)


def test_monte_carlo_constant_observable():
    plan = get_sampler(3, 2)
    stats = joint_stats(plan, spec_of(), 500, 3)
    assert stats.mean("joint") == 1.0
    assert stats.stderr("joint") == 0.0
    assert stats.sums["joint"] == 500


def test_monte_carlo_seed_reproducibility():
    plan = get_sampler(4, 2)
    spec = f_spec("a1")

    def summary(seed):
        stats = joint_stats(plan, spec, 400, seed)
        return stats.sums, stats.sumsqs, stats.shard_sums

    assert summary(17) == summary(17)
    assert summary(17) != summary(18)


def test_stderr_shrinks_with_samples():
    plan = get_sampler(4, 2)
    spec = f_spec("a1")
    small = joint_stats(plan, spec, 2000, 5)
    large = joint_stats(plan, spec, 8000, 6)
    ratio = large.stderr("joint") / small.stderr("joint")
    assert 0.4 < ratio < 0.6


def test_seed_validation():
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(2**64)
    with pytest.raises(ValueError):
        Seed(3, -1)
    assert stream_for(Seed(3, 1)).random() == stream_for(Seed(3, 1)).random()
    assert stream_for(Seed(3, 1)).random() != stream_for(Seed(3, 2)).random()
    for bad in (-1, 2**64):
        with pytest.raises(ValueError):
            stream_for(bad)
    assert stream_for(7, 2).random() == stream_for(Seed(7), 2).random()


def test_get_buckets_caches():
    assert get_buckets(3) is get_buckets(3)


def test_distinctness_certificate_witnessed_by_enumeration():
    # words certified distinct must actually separate somewhere on the space
    from surfcover.perms import evaluate_word
    from surfcover.words import distinct_in_p0_certificate

    u, v = w("a1"), w("a2")
    assert distinct_in_p0_certificate(u, v) == "distinct"
    witnesses = []

    def check(h):
        if cycle_type(evaluate_word(h, u)) != cycle_type(evaluate_word(h, v)):
            witnesses.append(h)

    enumerate_homs(3, 2, check)
    assert witnesses
