import doctest
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import reversions.words
from conftest import concatenated_canonical_word, parity_normal_form, word_from_str
from reversions.words import (
    AlphabetMismatch,
    InvalidPermutation,
    LetterRangeError,
    UnrealizableSignature,
    Word,
    apply_letter_permutation,
    canonical_word,
    enumerate_words,
    gcd_vec,
    is_balanced,
    normal_form,
    pi13,
    reduce_letters,
    signature_of,
    word_from_signature,
    word_to_str,
)

raw_seqs = st.lists(st.integers(1, 3), max_size=40).map(tuple)
words3 = raw_seqs.map(lambda s: Word.reduced(s, 3))


def reduce_rightmost(seq):
    stack = []
    for x in reversed(seq):
        if stack and stack[-1] == x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(reversed(stack))


def test_doctests():
    failures, _ = doctest.testmod(reversions.words)
    assert failures == 0


def test_reduce_examples():
    assert reduce_letters((1, 2, 2, 3)) == (1, 3)
    assert reduce_letters((2, 2)) == ()
    assert reduce_letters((1, 2, 1)) == (1, 2, 1)


def test_reduce_letter_range():
    with pytest.raises(LetterRangeError):
        Word.reduced((1, 4), 3)
    with pytest.raises(LetterRangeError):
        Word.reduced((0,), 3)


def test_word_rejects_reducible():
    with pytest.raises(ValueError):
        Word((1, 1), 3)


@given(raw_seqs)
def test_reduce_confluence(seq):
    assert reduce_letters(seq) == reduce_rightmost(seq)


def test_mul_examples():
    assert (Word((1, 2), 3) * Word((2, 1), 3)).is_empty()
    assert (Word((1, 2), 3) * Word((2, 3), 3)).letters == (1, 3)
    assert (Word.empty(3) * Word((3, 1), 3)).letters == (3, 1)


def test_mul_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        Word((1,), 2) * Word((1,), 3)


def test_inverse_examples():
    assert Word((1, 2, 3), 3).inverse().letters == (3, 2, 1)
    assert Word.empty(3).inverse().is_empty()
    assert (Word((2, 1), 3) * Word((2, 1), 3).inverse()).is_empty()


@given(words3, words3, words3)
def test_group_laws(g, h, k):
    assert ((g * h) * k) == (g * (h * k))
    e = Word.empty(3)
    assert g * e == g and e * g == g
    assert (g * g.inverse()).is_empty() and (g.inverse() * g).is_empty()


def test_signature_examples():
    assert signature_of(Word((2, 1, 2, 3), 3)) == (-1, 2, -1)
    assert signature_of(Word.empty(3)) == (0, 0, 0)
    assert signature_of(Word((1,), 3)) == (1, 0, 0)


@given(words3)
def test_signature_sum_and_parity(g):
    total = sum(signature_of(g))
    assert total in (0, 1)
    assert (total == 0) == (len(g) % 2 == 0)


@given(words3, words3)
def test_signature_additive_for_even_left_factor(g, h):
    if len(g) % 2 == 0:
        left = signature_of(g)
        right = signature_of(h)
        combined = signature_of(g * h)
        assert combined == tuple(a + b for a, b in zip(left, right))


def test_is_balanced():
    assert is_balanced((-1, 2, -1))
    assert not is_balanced((1, 0, 0))
    assert is_balanced((0, 0, 0))


def test_normal_form_examples():
    assert normal_form(Word((2, 3, 2, 1), 3)).letters == (2, 1, 2, 3)
    assert normal_form(Word((2, 1, 2, 3), 3)).letters == (2, 1, 2, 3)
    assert normal_form(Word.empty(3)).is_empty()


@given(words3)
def test_normal_form_idempotent_and_signature_preserving(g):
    nf = normal_form(g)
    assert signature_of(nf) == signature_of(g)
    assert normal_form(nf) == nf
    assert nf == word_from_signature(signature_of(g))


def test_equal_signatures_equal_normal_forms_exhaustive():
    by_signature = {}
    for g in enumerate_words(3, 6):
        by_signature.setdefault(signature_of(g), set()).add(normal_form(g))
    assert all(len(forms) == 1 for forms in by_signature.values())


def test_normal_form_matches_the_parity_shifting_oracle_exhaustive():
    words = [g for alphabet, length in [(2, 8), (3, 8), (4, 6)]
             for g in enumerate_words(alphabet, length)]
    assert len(words) == 2240
    for g in words:
        assert normal_form(g) == parity_normal_form(g), g


# irreducible words over alphabets 1..5, up to 12 letters
words_up_to_5 = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(1, n), max_size=30).map(
        lambda seq: Word(reduce_letters(seq)[:12], n)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(words_up_to_5)
@example(Word((), 1))
@example(Word((1,), 1))
@example(Word((3, 1, 4, 1, 5, 2, 5, 3, 5, 4, 2, 1), 5))
def test_normal_form_matches_the_parity_shifting_oracle(g):
    assert normal_form(g) == parity_normal_form(g)


def test_word_from_signature_examples():
    assert word_from_signature((-1, 2, -1)).letters == (2, 1, 2, 3)
    assert word_from_signature((-1, 1, 0)).letters == (2, 1)
    assert word_from_signature((0, 0, 0)).is_empty()
    with pytest.raises(UnrealizableSignature):
        word_from_signature((1, 1, 0))
    with pytest.raises(UnrealizableSignature):
        word_from_signature((-2, 0, 0))


def test_word_from_signature_exhaustive_small():
    span = range(-6, 7)
    for v in itertools.product(span, repeat=3):
        if sum(v) in (0, 1):
            g = word_from_signature(v)
            assert signature_of(g) == v  # Word construction enforces irreducibility


def test_canonical_word():
    assert canonical_word((-1, 2, -1)).letters == (2, 1, 2, 3)
    assert canonical_word((-2, 3, -1)).letters == (2, 1, 2, 1, 2, 3)
    with pytest.raises(ValueError):
        canonical_word((0, 1, -1))
    with pytest.raises(ValueError):
        canonical_word((-1, 2, -1, 0))
    # every accepted vector up to v2 = 30 gets the concatenated word
    accepted = 0
    for v in itertools.product(range(-30, 31), repeat=3):
        try:
            word = canonical_word(v)
        except ValueError:
            continue
        assert word == concatenated_canonical_word(v), v
        accepted += 1
    assert accepted == 29 * 30 // 2


def test_gcd_vec():
    assert gcd_vec((-2, 4, -2)) == 2
    assert gcd_vec((-1, 2, -1)) == 1
    assert gcd_vec((0, 0, 0)) == 0


def test_pi13():
    assert pi13((-2, 3, -1)) == (-1, 3, -2)
    assert pi13((-1, 2, -1)) == (-1, 2, -1)
    assert pi13(pi13((-3, 4, -1))) == (-3, 4, -1)
    with pytest.raises(ValueError):
        pi13((1, 2))


def test_apply_letter_permutation():
    swap12 = (2, 1, 3)
    assert apply_letter_permutation(Word((1, 2), 3), swap12).letters == (2, 1)
    assert apply_letter_permutation(Word.empty(3), swap12).is_empty()
    with pytest.raises(InvalidPermutation):
        apply_letter_permutation(Word((1,), 3), (1, 1, 3))


@given(words3, words3)
def test_letter_permutation_is_automorphism(g, h):
    sigma = (3, 1, 2)
    assert apply_letter_permutation(g * h, sigma) == \
        apply_letter_permutation(g, sigma) * apply_letter_permutation(h, sigma)


def test_enumerate_words_counts():
    words = list(enumerate_words(3, 3))
    assert len(words) == 1 + 3 + 6 + 12
    assert len(set(words)) == len(words)
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)


def test_word_serialization():
    assert word_to_str(Word((2, 1, 2, 3), 3)) == "2,1,2,3"
    assert word_to_str(Word.empty(3)) == "e"
    assert word_from_str("2,1,2,3", 3).letters == (2, 1, 2, 3)
    assert word_from_str("e", 3).is_empty()
    assert word_from_str("1,2,2,3", 3).letters == (1, 3)
    with pytest.raises(ValueError):
        word_from_str("1,x", 3)


def test_random_word_helper_against_reduction():
    rng = random.Random(7)
    for _ in range(200):
        seq = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 30)))
        w = Word.reduced(seq, 3)
        assert w.letters == reduce_rightmost(seq)
