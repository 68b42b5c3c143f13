import itertools
import random

import pytest

from surfcover.homspace import enumerate_homs
from surfcover.perms import (
    HomPoint,
    commutator,
    compose,
    conjugate,
    cycle_type,
    cycles,
    cycles_str,
    d_cycle_count,
    evaluate_word,
    fix_count,
    identity,
    inverse,
    parse_cycles,
)
from surfcover.words import relator, word_from_text


def rand_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def test_compose_examples():
    q = (1, 0, 2)
    assert compose(identity(3), q) == q
    assert compose((1, 0), (1, 0)) == identity(2)
    # three-cycle then transposition, applying left argument first
    assert compose((1, 2, 0), (1, 0, 2)) == (0, 2, 1)
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))


def test_inverse():
    assert inverse(identity(4)) == identity(4)
    assert inverse((1, 2, 0)) == (2, 0, 1)
    rng = random.Random(2)
    for _ in range(100):
        p = rand_perm(rng, rng.randrange(1, 13))
        assert compose(p, inverse(p)) == identity(len(p))
        assert compose(inverse(p), p) == identity(len(p))


def test_compose_associative():
    rng = random.Random(4)
    for _ in range(1000):
        n = rng.randrange(1, 13)
        p, q, r = (rand_perm(rng, n) for _ in range(3))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_conjugate_preserves_cycle_type():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randrange(1, 13)
        p, c = rand_perm(rng, n), rand_perm(rng, n)
        assert cycle_type(conjugate(p, c)) == cycle_type(p)
    # conjugate really is c^-1 p c in the left-to-right convention
    for _ in range(50):
        n = rng.randrange(1, 9)
        p, c = rand_perm(rng, n), rand_perm(rng, n)
        assert conjugate(p, c) == compose(compose(inverse(c), p), c)


def test_cycle_statistics():
    assert fix_count(identity(5)) == 5
    three_cycle = (1, 2, 0)
    assert d_cycle_count(three_cycle, 3) == 1
    assert fix_count(three_cycle) == 0
    p = parse_cycles("(1 2)(3 4)", 5)
    assert cycle_type(p) == (2, 2, 1)
    assert fix_count(p) == 1
    assert d_cycle_count(p, 2) == 2
    with pytest.raises(ValueError):
        d_cycle_count(p, 6)
    rng = random.Random(10)
    for _ in range(50):
        q = rand_perm(rng, 9)
        assert sum(d * d_cycle_count(q, d) for d in range(1, 10)) == 9


def test_cycle_type_matches_cycles_on_every_permutation():
    for n in range(1, 7):
        for p in itertools.permutations(range(n)):
            expected = tuple(sorted(map(len, cycles(p)), reverse=True))
            assert cycle_type(p) == cycle_type(list(p)) == expected
            for d in range(1, n + 1):
                assert d_cycle_count(p, d) == d_cycle_count(list(p), d) == expected.count(d)


def test_commutator_examples():
    a, b = (1, 0, 2), (0, 2, 1)
    assert cycle_type(commutator(a, b)) == (3,)
    assert commutator(a, a) == identity(3)
    # commuting permutations with disjoint support
    p = parse_cycles("(1 2)", 4)
    q = parse_cycles("(3 4)", 4)
    assert commutator(p, q) == identity(4)


def test_commutator_matches_word_evaluation():
    rng = random.Random(13)
    word = word_from_text("a1' b1' a1 b1", 2)
    for _ in range(50):
        n = rng.randrange(2, 8)
        a, b = rand_perm(rng, n), rand_perm(rng, n)
        c, d = rand_perm(rng, n), rand_perm(rng, n)
        h = make_hom(a, b, c, d)
        if h is None:
            continue
        assert evaluate_word(h, word) == commutator(a, b)


def make_hom(a, b, c, d):
    try:
        return HomPoint((a, b, c, d), 2, len(a))
    except ValueError:
        return None


def test_hompoint_validation():
    n = 3
    perms = list(itertools.permutations(range(n)))
    good = 0
    for a in perms:
        for b in perms:
            lead = commutator(a, b)
            for c in perms:
                for d in perms:
                    if compose(lead, commutator(c, d)) == identity(n):
                        good += 1
    assert good == 486
    with pytest.raises(ValueError):
        HomPoint(((1, 0, 2), (0, 2, 1), identity(3), identity(3)), 2, 3)


def test_evaluate_word():
    a = (1, 2, 3, 0)
    # commuting images on each handle make the relator hold trivially
    h = HomPoint((a, inverse(a), identity(4), identity(4)), 2, 4)
    w = word_from_text("a1", 2)
    assert evaluate_word(h, w) == a
    assert evaluate_word(h, word_from_text("a1 a1'", 2)) == identity(4)
    assert evaluate_word(h, relator(2)) == identity(4)
    uv = word_from_text("a1 b1", 2)
    u = word_from_text("a1", 2)
    v = word_from_text("b1", 2)
    assert evaluate_word(h, uv) == compose(evaluate_word(h, u), evaluate_word(h, v))
    with pytest.raises(ValueError):
        evaluate_word(h, word_from_text("a1", 3))


def test_cycle_type_of_caches_the_word_cycle_type():
    words = [word_from_text(t, 2) for t in ("a1", "a1 b1", "b2'")]
    points = []
    enumerate_homs(3, 2, points.append)
    for h in points:
        for w in words:
            assert h.cycle_type_of(w) == cycle_type(evaluate_word(h, w))
            assert h.cycle_type_of(w) is h.cycle_type_of(w)
    # the cache takes no part in equality or hashing
    filled = points[-1]
    fresh = HomPoint(filled.images, filled.genus, filled.n)
    assert filled == fresh and hash(filled) == hash(fresh)
    assert len({filled, fresh}) == 1
    assert repr(filled) == repr(fresh)


def test_cycle_notation_round_trip():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randrange(1, 10)
        p = rand_perm(rng, n)
        assert parse_cycles(cycles_str(p), n) == p
    assert cycles_str(identity(3)) == "()"
    assert parse_cycles("()", 3) == identity(3)
    assert cycles_str(parse_cycles("(1 2 3)(4 5)", 5)) == "(1 2 3)(4 5)"
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 3)
