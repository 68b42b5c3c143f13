import random

import pytest

from surfcover.words import (
    DISTINCT,
    PRIMITIVE,
    UNKNOWN,
    IdentityWordError,
    Word,
    abelianize,
    concat,
    conjugated_word,
    dehn_reduce,
    distinct_in_p0_certificate,
    free_reduce,
    inverse_word,
    is_identity,
    power_word,
    primitivity_certificate,
    relator,
    word_from_text,
    word_to_text,
)


def w(text, genus=2):
    return word_from_text(text, genus)


def random_word(rng, genus=2, length=12):
    letters = [
        (rng.randrange(2 * genus), rng.choice((1, -1))) for _ in range(length)
    ]
    return free_reduce(letters, genus)


def test_free_reduce_examples():
    assert w("a1 a1'").letters == ()
    assert w("a1 b1 b1' a1") == w("a1^2")
    already = w("a1 b1 a2")
    assert free_reduce(already.letters, 2) == already


def test_free_reduce_idempotent_and_shorter():
    rng = random.Random(7)
    for _ in range(200):
        raw = [(rng.randrange(4), rng.choice((1, -1))) for _ in range(20)]
        reduced = free_reduce(raw, 2)
        assert free_reduce(reduced.letters, 2) == reduced
        assert len(reduced) <= len(raw)


def test_word_validation():
    with pytest.raises(ValueError):
        Word(((0, 1), (0, -1)), 2)  # not freely reduced
    with pytest.raises(ValueError):
        Word(((7, 1),), 2)  # index out of range
    with pytest.raises(ValueError):
        free_reduce([(0, 2)], 2)  # bad sign
    with pytest.raises(ValueError):
        word_from_text("a1", 1)  # genus too small
    with pytest.raises(ValueError):
        word_from_text("a3", 2)  # generator beyond genus


def test_dehn_reduce_relator_and_short_words():
    assert len(dehn_reduce(relator(2))) == 0
    assert len(dehn_reduce(relator(3))) == 0
    comm = w("a1' b1' a1 b1")
    assert dehn_reduce(comm) == comm  # exactly half the relator stays put
    assert dehn_reduce(w("a1")) == w("a1")


def test_dehn_reduce_no_long_relator_subword():
    from surfcover.words import _match_length, _relator_rotations

    rel = relator(2)
    rots = _relator_rotations(2)
    rng = random.Random(19)
    half = 4
    for _ in range(60):
        head, tail = random_word(rng), random_word(rng, length=6)
        padded = concat(concat(head, rel), tail)
        reduced = dehn_reduce(padded)
        # padded equals head*tail in the group
        assert is_identity(padded) == is_identity(concat(head, tail))
        for i in range(len(reduced.letters)):
            assert all(
                _match_length(reduced.letters, i, rot) <= half for rot in rots
            )


def test_is_identity():
    assert is_identity(relator(2))
    assert not is_identity(w("a1"))
    assert not is_identity(w("a1 b1 a1' b1'"))  # commutator of one handle only
    rng = random.Random(3)
    for _ in range(40):
        noise = random_word(rng, length=8)
        conjugated = concat(concat(noise, relator(2)), inverse_word(noise))
        assert is_identity(conjugated)


def test_one_handle_commutator_has_nontrivial_image():
    # cross-check the word problem answer against an evaluation witness
    from surfcover.homspace import enumerate_homs
    from surfcover.perms import evaluate_word, identity

    word = w("a1 b1 a1' b1'")
    witnesses = []

    def check(h):
        if not witnesses and evaluate_word(h, word) != identity(3):
            witnesses.append(h)

    enumerate_homs(3, 2, check)
    assert witnesses


def test_abelianize():
    assert abelianize(w("a1^2 b2'")) == (2, 0, 0, -1)
    assert abelianize(relator(2)) == (0, 0, 0, 0)
    assert abelianize(w("")) == (0, 0, 0, 0)


def test_abelianize_is_additive():
    rng = random.Random(11)
    for _ in range(100):
        u, v = random_word(rng), random_word(rng)
        total = abelianize(concat(u, v))
        assert total == tuple(x + y for x, y in zip(abelianize(u), abelianize(v)))


def test_distinctness_certificate():
    assert distinct_in_p0_certificate(w("a1"), w("a2")) == DISTINCT
    assert distinct_in_p0_certificate(w("a1"), w("a1'")) == UNKNOWN
    assert distinct_in_p0_certificate(w("a1 b1"), w("b1 a1")) == UNKNOWN
    with pytest.raises(IdentityWordError):
        distinct_in_p0_certificate(relator(2), w("a1"))


def test_primitivity_certificate():
    assert primitivity_certificate(w("a1")) == PRIMITIVE
    assert primitivity_certificate(w("a1^2")) == UNKNOWN
    assert primitivity_certificate(w("a1 b2")) == PRIMITIVE
    with pytest.raises(IdentityWordError):
        primitivity_certificate(relator(2))


def test_power_word():
    assert power_word(w("a1"), 3) == w("a1^3")
    assert power_word(w("a1 b1 a1'"), 2) == w("a1 b1^2 a1'")
    base = w("a2 b1")
    assert power_word(base, 1) == base
    with pytest.raises(ValueError):
        power_word(base, 0)


def test_power_word_composes():
    rng = random.Random(23)
    for _ in range(30):
        base = random_word(rng, length=6)
        if len(base) == 0:
            continue
        for a, b in [(2, 3), (1, 4), (3, 2)]:
            assert power_word(power_word(base, a), b) == power_word(base, a * b)


def test_text_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        word = random_word(rng, length=10)
        assert word_from_text(word_to_text(word), 2) == word
    assert word_to_text(w("a1 a1 b2' b2'")) == "a1^2 b2'^2"
    assert word_from_text("a1^-2", 2) == w("a1'^2")
    with pytest.raises(ValueError):
        word_from_text("c1", 2)


def test_conjugated_word_is_conjugate_invariant_under_abelianize():
    rng = random.Random(31)
    for _ in range(50):
        word, by = random_word(rng), random_word(rng)
        assert abelianize(conjugated_word(word, by)) == abelianize(word)
        negated = tuple(-x for x in abelianize(word))
        assert abelianize(inverse_word(word)) == negated
