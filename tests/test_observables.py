import random

import pytest

from surfcover.homspace import enumerate_homs
from surfcover.observables import (
    ObservableGroup,
    ObservableSpec,
    cycle_count,
    cycles_from_fixed_points,
    d_count,
    divisors,
    fixed_points,
    joint_moment,
    mobius,
    power_identity_holds,
    spec_from_json,
    spec_from_text,
    spec_to_text,
)
from surfcover.perms import HomPoint, fix_count, identity, inverse
from surfcover.words import IdentityWordError, power_word, relator, word_from_text


def w(text, genus=2):
    return word_from_text(text, genus)


def simple_hom(p, n):
    # one handle carries p with its inverse, the rest act trivially
    return HomPoint((p, inverse(p), identity(n), identity(n)), 2, n)


def test_mobius():
    values = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 12: 0, 30: -1}
    for n, value in values.items():
        assert mobius(n) == value
    with pytest.raises(ValueError):
        mobius(0)
    # sum over divisors of the mobius function vanishes except at 1
    for n in range(1, 200):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_divisors_and_d_count():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert d_count(4) == 3
    assert d_count(1) == 1
    assert d_count(48) == 10
    with pytest.raises(ValueError):
        divisors(0)


def test_fixed_points_and_cycles():
    p = (1, 0, 2, 3)  # swaps 0,1; fixes 2,3
    h = simple_hom(p, 4)
    assert fixed_points(h, w("a1")) == 2
    assert cycle_count(h, w("a1"), 2) == 1
    assert cycle_count(h, w("a1"), 1) == 2
    assert fixed_points(h, w("a1")) == fixed_points(h, w("a1'"))
    with pytest.raises(IdentityWordError):
        fixed_points(h, relator(2))
    with pytest.raises(IdentityWordError):
        cycle_count(h, w("a1 a1'"), 1)
    with pytest.raises(ValueError):
        cycle_count(h, w("a1"), 5)
    # fixed points are the 1-cycles, on every point of Hom(Gamma_2, S_3)
    words = [w("a1"), w("a1 b1"), w("b2^2")]
    mismatches = []
    enumerate_homs(3, 2, lambda h: mismatches.extend(
        x for x in words if fixed_points(h, x) != cycle_count(h, x, 1)))
    assert not mismatches


def test_power_identity_on_enumeration():
    words = [w("a1"), w("a1 b1")]
    failures = []

    def check(h):
        for word in words:
            for a in (1, 2, 3, 4, 6):
                if not power_identity_holds(h, word, a):
                    failures.append((word, a))

    enumerate_homs(3, 2, check)
    assert not failures


def test_cycles_from_fixed_points():
    # cycle type (2,2,1): one fixed point, squaring fixes everything
    values = {1: 1, 2: 5}
    assert cycles_from_fixed_points(values, 2) == 2
    assert cycles_from_fixed_points({1: 7}, 1) == 7
    with pytest.raises(ValueError):
        cycles_from_fixed_points({1: 1}, 2)
    with pytest.raises(ArithmeticError):
        cycles_from_fixed_points({1: 0, 2: 1}, 2)


def test_cycles_from_fixed_points_round_trip():
    # every cycle type of S_n for n <= 8, using honest permutation powers
    from surfcover.characters import partitions
    from surfcover.perms import compose, d_cycle_count

    for n in range(1, 9):
        for mu in partitions(n):
            p = _perm_of_type(mu, n)
            fixes = {}
            current = identity(n)
            for q in range(1, n + 1):
                current = compose(current, p)
                fixes[q] = fix_count(current)
            for r in range(1, n + 1):
                data = {q: fixes[q] for q in divisors(r)}
                assert cycles_from_fixed_points(data, r) == d_cycle_count(p, r)


def _perm_of_type(mu, n):
    out = [0] * n
    pos = 0
    for part in mu:
        block = list(range(pos, pos + part))
        for a, b in zip(block, block[1:] + block[:1]):
            out[a] = b
        pos += part
    return tuple(out)


def test_joint_moment_against_direct_product():
    def fix(h, text, a):
        return fixed_points(h, power_word(w(text), a))

    joint15 = ObservableSpec(
        (
            ObservableGroup(w("a1"), (2, 3), 1),
            ObservableGroup(w("a2"), (4,), 1),
        ),
        2,
    )
    # exponents above n = 3, an outer power, and one word watched by two groups
    shared = ObservableSpec(
        (
            ObservableGroup(w("a1 b1"), (1, 4), 2),
            ObservableGroup(w("a2"), (6,), 1),
            ObservableGroup(w("a1 b1"), (2, 5), 3),
        ),
        2,
    )
    cases = [
        (joint15, lambda h: fix(h, "a1", 2) * fix(h, "a1", 3) * fix(h, "a2", 4)),
        (
            shared,
            lambda h: (fix(h, "a1 b1", 1) * fix(h, "a1 b1", 4)) ** 2
            * fix(h, "a2", 6)
            * (fix(h, "a1 b1", 2) * fix(h, "a1 b1", 5)) ** 3,
        ),
    ]
    mismatches = []

    def check(h):
        for spec, direct in cases:
            if joint_moment(h, spec) != direct(h):
                mismatches.append((h, spec))

    enumerate_homs(3, 2, check)
    assert not mismatches


def test_joint_moment_powers_and_empty():
    h = simple_hom((1, 2, 0, 3), 4)  # 3-cycle plus a fixed point
    empty = ObservableSpec((), 2)
    assert joint_moment(h, empty) == 1
    squared = ObservableSpec((ObservableGroup(w("a1"), (1,), 2),), 2)
    plain = ObservableSpec((ObservableGroup(w("a1"), (1, 1), 1),), 2)
    assert joint_moment(h, squared) == joint_moment(h, plain) == 1
    with pytest.raises(ValueError):
        ObservableGroup(w("a1"), (0,), 1)
    with pytest.raises(ValueError):
        ObservableGroup(w("a1"), (1,), 0)
    with pytest.raises(IdentityWordError):
        ObservableGroup(relator(2), (1,), 1)


def test_spec_text_round_trip():
    text = 'gamma="a1" exps=[2,3] pow=1; delta="a2" exps=[4] pow=1'
    spec = spec_from_text(text, 2)
    assert len(spec.groups) == 2
    assert spec.groups[0].exponents == (2, 3)
    assert spec.groups[1].word == w("a2")
    rendered = spec_to_text(spec)
    assert spec_from_text(rendered, 2) == spec
    assert spec_from_text("", 2) == ObservableSpec((), 2)
    assert spec_from_text('x="b1'" a1\" pow=2", 2).groups[0].power == 2
    assert spec_from_text('x="a1"', 2).groups[0].exponents == (1,)
    for bad in ("nonsense", 'x="a1" exps=[]'):
        with pytest.raises(ValueError):
            spec_from_text(bad, 2)


def test_spec_json_round_trip():
    spec = spec_from_text('g="a1 b2\'" exps=[1,2] pow=3', 2)
    payload = {"genus": 2, "groups": [{"word": "a1 b2'", "exps": [1, 2], "pow": 3}]}
    assert spec_from_json(payload) == spec


def test_spec_genus_consistency():
    with pytest.raises(ValueError):
        ObservableSpec((ObservableGroup(w("a1", 3), (1,)),), 2)
    payload = {"genus": 3, "groups": [{"word": "a3"}]}
    assert spec_from_json(payload).genus == 3
    assert spec_from_json(payload, 3).genus == 3
    with pytest.raises(ValueError):
        spec_from_json(payload, 2)
    assert spec_from_json({"groups": [{"word": "a3"}]}, 3).genus == 3


def test_random_words_inverse_invariance():
    rng = random.Random(77)
    hs = []
    enumerate_homs(3, 2, hs.append)
    sample = hs[:: max(1, len(hs) // 40)]
    for _ in range(20):
        letters = [(rng.randrange(4), rng.choice((1, -1))) for _ in range(8)]
        from surfcover.words import free_reduce, inverse_word

        word = free_reduce(letters, 2)
        from surfcover.words import is_identity

        if is_identity(word):
            continue
        for h in sample:
            assert fixed_points(h, word) == fixed_points(h, inverse_word(word))
