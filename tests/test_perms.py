import functools
import itertools
import random

import pytest

from surfcover.characters import hom_count
from surfcover.homspace import enumerate_homs, get_sampler, sample_hom, stream_for
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
from surfcover.words import Word, relator, word_from_text


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
    return make_point((a, b, c, d), 2, len(a))


def make_point(images, genus, n):
    try:
        return HomPoint(images, genus, n)
    except ValueError:
        return None


def test_hompoint_validation():
    # every tuple of S_3^(2g): HomPoint keeps exactly those whose product of
    # commutators, by the commutator/compose formula, is the identity
    n = 3
    perms = list(itertools.permutations(range(n)))
    comms = {(a, b): commutator(a, b) for a in perms for b in perms}
    for genus, count in ((2, 486), (3, 16038)):
        kept, solutions = set(), set()
        for handles in itertools.product(comms, repeat=genus):
            images = sum(handles, ())
            prod = identity(n)
            for pair in handles:
                prod = compose(prod, comms[pair])
            if prod == identity(n):
                solutions.add(images)
            if make_point(images, genus, n) is not None:
                kept.add(images)
        assert len(solutions) == hom_count(n, genus) == count
        assert kept == solutions
    with pytest.raises(ValueError):
        HomPoint(((1, 0, 2), (0, 2, 1), identity(3), identity(3)), 2, 3)


def test_hompoint_refuses_non_permutations():
    # construction only: a cycle walk on such an image need never end
    ident = (0, 1)
    negative, out_of_range, repeated = (0, -1), (0, 5), (1, 1)
    for bad in (negative, out_of_range, repeated, (0,), (0, 1, 2)):
        for slot in range(4):
            images = [ident] * 4
            images[slot] = bad
            with pytest.raises(ValueError, match="permutation"):
                HomPoint(tuple(images), 2, 2)
    with pytest.raises(ValueError, match="permutation"):
        HomPoint(((0, 5), (1, 0), (0, 1), (0, 1)), 2, 2)


def random_reduced_word(rng, genus, length):
    letters = []
    while len(letters) < length:
        letter = (rng.randrange(2 * genus), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return Word(tuple(letters), genus)


def fold_word(images, w):
    """Left-to-right product of the word's letter images."""
    return functools.reduce(
        compose,
        [images[idx] if sign > 0 else inverse(images[idx]) for idx, sign in w.letters],
    )


def test_word_images_match_a_left_to_right_fold():
    rng = random.Random(23)
    points = {2: [], 3: []}
    enumerate_homs(3, 2, points[2].append)
    for n, genus in ((16, 2), (10, 3)):
        stream, plan = stream_for(29, n), get_sampler(n, genus)
        points[genus] += [sample_hom(plan, stream) for _ in range(60)]
    for genus, hs in points.items():
        words = [random_reduced_word(rng, genus, 1 + i % 8) for i in range(48)]
        letters = {letter for w in words for letter in w.letters}
        assert letters == {(i, s) for i in range(2 * genus) for s in (1, -1)}
        for h in hs:
            for w in words:
                expected = fold_word(h.images, w)
                assert evaluate_word(h, w) == expected
                assert h.cycle_type_of(w) == cycle_type(expected)


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
