"""The group G_l of irreducible letter sequences under concatenation-reduction.

A word is a finite sequence over the alphabet {1..l} with no two equal
adjacent letters.  Words multiply by concatenating and cancelling equal
adjacent pairs; every letter is its own inverse, so the inverse of a word
is its reversal.  The alternating-sign letter count (the signature) is the
key invariant: it is preserved by parity-respecting position permutations
and by cancellation, and for the circle action it completely determines
what a word does to a circle point once the interior points are collinear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Signature = tuple

__all__ = [
    "Word",
    "Signature",
    "AlphabetMismatch",
    "LetterRangeError",
    "InvalidPermutation",
    "UnrealizableSignature",
    "reduce_letters",
    "is_balanced",
    "gcd_vec",
    "pi13",
    "signature_of",
    "normal_form",
    "word_from_signature",
    "canonical_word",
    "apply_letter_permutation",
    "enumerate_words",
    "word_to_str",
    "letters_from_str",
    "word_from_str",
]


class LetterRangeError(ValueError):
    """A letter lies outside {1..alphabet}."""


class AlphabetMismatch(ValueError):
    """Two words over different alphabets were combined."""


class InvalidPermutation(ValueError):
    """The given letter map is not a bijection of {1..alphabet}."""


class UnrealizableSignature(ValueError):
    """No word has the requested signature (entry sum outside {0,1})."""


def _check_letters(letters: Iterable[int], alphabet: int) -> None:
    if alphabet < 1:
        raise LetterRangeError(f"alphabet size must be >= 1, got {alphabet}")
    for x in letters:
        if not 1 <= x <= alphabet:
            raise LetterRangeError(f"letter {x} outside 1..{alphabet}")


def reduce_letters(seq: Sequence[int]) -> tuple:
    """Cancel equal adjacent pairs until none remain.

    The result does not depend on the cancellation order (each letter is an
    involution, so this is ordinary free-product reduction).

    >>> reduce_letters((1, 2, 2, 3))
    (1, 3)
    >>> reduce_letters((2, 2))
    ()
    >>> reduce_letters((1, 2, 1))
    (1, 2, 1)
    """
    stack: list = []
    for x in seq:
        if stack and stack[-1] == x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """An irreducible word over {1..alphabet}; the empty word is the identity."""

    letters: tuple
    alphabet: int

    def __post_init__(self):
        _check_letters(self.letters, self.alphabet)
        for a, b in zip(self.letters, self.letters[1:]):
            if a == b:
                raise ValueError(f"word {self.letters} is reducible at {a},{b}")

    @staticmethod
    def empty(alphabet: int) -> "Word":
        return Word((), alphabet)

    @staticmethod
    def reduced(seq: Sequence[int], alphabet: int) -> "Word":
        """Build a word from a raw sequence, cancelling adjacent equal pairs."""
        _check_letters(seq, alphabet)
        return Word(reduce_letters(seq), alphabet)

    def __len__(self) -> int:
        return len(self.letters)

    def is_empty(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        """Concatenation followed by reduction at the junction.

        >>> Word((1, 2), 3) * Word((2, 1), 3)
        Word(letters=(), alphabet=3)
        >>> Word((1, 2), 3) * Word((2, 3), 3)
        Word(letters=(1, 3), alphabet=3)
        """
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"alphabet {self.alphabet} vs {other.alphabet}")
        return Word(reduce_letters(self.letters + other.letters), self.alphabet)

    def inverse(self) -> "Word":
        """Reversal: every letter is an involution."""
        return Word(self.letters[::-1], self.alphabet)


def signature_of(g: Word) -> Signature:
    """Alternating-sign count of each letter: position 1 counts +1, position 2
    counts -1, and so on, summed per letter.

    >>> signature_of(Word((2, 1, 2, 3), 3))
    (-1, 2, -1)
    >>> signature_of(Word((1,), 3))
    (1, 0, 0)
    """
    counts = [0] * g.alphabet
    for pos, letter in enumerate(g.letters):
        counts[letter - 1] += 1 if pos % 2 == 0 else -1
    return tuple(counts)


def is_balanced(v: Signature) -> bool:
    """Entries sum to zero; exactly the signatures of even-length words."""
    return sum(v) == 0


def gcd_vec(v: Signature) -> int:
    """gcd of the absolute entries; 0 for the zero vector by convention."""
    return math.gcd(*(abs(x) for x in v)) if v else 0


def pi13(v: Signature) -> Signature:
    """Swap the first and third entries; the effect of reading the three
    interior points in the opposite order."""
    if len(v) != 3:
        raise ValueError(f"pi13 needs a 3-vector, got {len(v)} entries")
    return (v[2], v[1], v[0])


def normal_form(g: Word) -> Word:
    """Canonical representative of g among words of equal signature: the
    unique normal-form word with its signature (`word_from_signature`).

    Every letter sits on a single position parity, and the letters are
    non-decreasing separately on odd and on even positions.

    >>> normal_form(Word((2, 3, 2, 1), 3))
    Word(letters=(2, 1, 2, 3), alphabet=3)
    """
    return word_from_signature(signature_of(g))


def word_from_signature(v: Signature) -> Word:
    """The unique normal-form word with signature v.

    Letters with positive net count fill the odd positions (smallest letter
    first), letters with negative net count fill the even positions; the
    counts interleave exactly because the entry sum is 0 or 1.  Adjacent
    letters always come from the two disjoint sign classes, so the result
    is irreducible.

    >>> word_from_signature((-1, 2, -1))
    Word(letters=(2, 1, 2, 3), alphabet=3)
    >>> word_from_signature((-1, 1, 0))
    Word(letters=(2, 1), alphabet=3)
    """
    total = sum(v)
    if total not in (0, 1):
        raise UnrealizableSignature(f"entry sum {total} not in {{0,1}}: {v}")
    pos = [i + 1 for i, x in enumerate(v) if x > 0 for _ in range(x)]
    neg = [i + 1 for i, x in enumerate(v) if x < 0 for _ in range(-x)]
    letters = [0] * (len(pos) + len(neg))
    letters[0::2] = pos
    letters[1::2] = neg
    return Word(tuple(letters), len(v))


def canonical_word(v: Signature) -> Word:
    """The word (2,1)^|v1| (2,3)^|v3| realizing a balanced 3-vector with
    v2 >= 1 and v1, v3 <= -1, which is its normal form: the 2s fill the
    odd positions, then the 1s and the 3s the even ones."""
    if len(v) != 3:
        raise ValueError(f"need a 3-vector, got {len(v)} entries")
    if not is_balanced(v):
        raise ValueError(f"{v} is not balanced")
    if v[1] < 1 or v[0] > -1 or v[2] > -1:
        raise ValueError(f"{v} must satisfy v2 >= 1 and v1, v3 <= -1")
    return word_from_signature(v)


def apply_letter_permutation(g: Word, sigma: Sequence[int]) -> Word:
    """Relabel letters by a bijection of {1..alphabet}; sigma[i-1] is the
    image of letter i.  This is a group automorphism."""
    if sorted(sigma) != list(range(1, g.alphabet + 1)):
        raise InvalidPermutation(f"{sigma} is not a permutation of 1..{g.alphabet}")
    return Word(tuple(sigma[x - 1] for x in g.letters), g.alphabet)


def enumerate_words(alphabet: int, max_length: int) -> Iterator[Word]:
    """All irreducible words of length <= max_length, shortest first."""
    yield Word.empty(alphabet)
    frontier = [()]
    for _ in range(max_length):
        nxt = []
        for tail in frontier:
            for letter in range(1, alphabet + 1):
                if tail and tail[-1] == letter:
                    continue
                seq = tail + (letter,)
                yield Word(seq, alphabet)
                nxt.append(seq)
        frontier = nxt


def word_to_str(g: Word) -> str:
    """Comma-separated letters; the empty word is the literal "e"."""
    return ",".join(str(x) for x in g.letters) if g.letters else "e"


def letters_from_str(text: str) -> tuple:
    """The letters of a comma-separated word literal as written, neither
    reduced nor range-checked; "e" and the empty string give no letters.

    >>> letters_from_str("1,2,2,3")
    (1, 2, 2, 3)
    >>> letters_from_str(" e ")
    ()
    """
    text = text.strip()
    if text == "e" or text == "":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed word literal {text!r}") from exc


def word_from_str(text: str, alphabet: int) -> Word:
    """The reduced word of a literal (`letters_from_str`) over the alphabet."""
    return Word.reduced(letters_from_str(text), alphabet)
