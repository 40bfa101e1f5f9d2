"""Freely reduced words on the two meridian generators x and y.

A letter is a pair ``(gen, sign)`` with ``gen`` in ``{"x", "y"}`` and
``sign`` in ``{+1, -1}``.  Words are always stored reduced: no letter is
ever adjacent to its inverse.  The empty word is the group identity.
The public constructor validates and reduces its letters; a product of
two words is already reduced on each side, so it cancels letters only
at the junction, and the inverse, the backwards spelling, the exchange
of the generators and the powers of a reduced word are built reduced
without another pass.

Surface syntax: ``x``, ``y``, each optionally followed by ``^-1``;
uppercase ``X``, ``Y`` are shorthand for the inverses.  Whitespace is
ignored.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Tuple

Letter = Tuple[str, int]

GENERATORS = ("x", "y")


class WordParseError(ValueError):
    """Malformed word syntax; ``position`` is the 0-based offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


# The four letters; words share these tuples instead of one per letter.
_LETTERS = {(gen, sign): (gen, sign) for gen in GENERATORS for sign in (1, -1)}
_INVERSE = {letter: _LETTERS[letter[0], -letter[1]] for letter in _LETTERS.values()}
_EXCHANGED = {
    letter: _LETTERS["y" if letter[0] == "x" else "x", letter[1]]
    for letter in _LETTERS.values()
}


def _reduced(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    out: list[Letter] = []
    for letter in letters:
        gen, sign = letter
        if gen not in GENERATORS:
            raise ValueError(f"unknown generator {gen!r}")
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        if out and out[-1][0] == gen and out[-1][1] == -sign:
            out.pop()
        else:
            out.append(_LETTERS[gen, sign])
    return tuple(out)


def _cancelled(left: Tuple[Letter, ...], right: Tuple[Letter, ...]) -> int:
    """How many letters cancel where the reduced ``left`` meets the
    reduced ``right``: the end of ``left`` against the start of
    ``right``."""
    k, most = 0, min(len(left), len(right))
    while k < most and left[-1 - k] is _INVERSE[right[k]]:
        k += 1
    return k


class Word:
    """A freely reduced word; construction reduces eagerly."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        self.letters = _reduced(letters)

    @classmethod
    def _of(cls, letters: Tuple[Letter, ...]) -> "Word":
        """A word on ``letters``, which must already be reduced and made
        of the shared letter tuples; nothing is checked."""
        word = object.__new__(cls)
        word.letters = letters
        return word

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def generator(cls, gen: str, sign: int = 1) -> "Word":
        return cls(((gen, sign),))

    @classmethod
    def parse(cls, text: str) -> "Word":
        letters: list[Letter] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in ("x", "y"):
                gen, sign = ch, 1
            elif ch in ("X", "Y"):
                gen, sign = ch.lower(), -1
            else:
                raise WordParseError(f"unexpected character {ch!r}", i)
            i += 1
            if i < n and text[i] == "^":
                if text[i : i + 3] != "^-1":
                    raise WordParseError("expected '^-1' after '^'", i)
                sign = -sign
                i += 3
            letters.append((gen, sign))
        return cls(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        left, right = self.letters, other.letters
        k = _cancelled(left, right)
        return Word._of(left[:len(left) - k] + right[k:])

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return Word._of(())
        # With the k letters that cancel between w and w stripped from
        # both ends, the core is cyclically reduced, so w^n is the
        # prefix, n copies of the core and the suffix.
        letters = self.letters
        k = _cancelled(letters, letters)
        core = letters[k:len(letters) - k]
        return Word._of(letters[:k] + core * n + letters[len(letters) - k:])

    def inverse(self) -> "Word":
        """Reversed letter sequence with all signs negated."""
        inverted = [_INVERSE[letter] for letter in reversed(self.letters)]
        return Word._of(tuple(inverted))

    def __invert__(self) -> "Word":
        return self.inverse()

    def spelled_backwards(self) -> "Word":
        """Reversed letter sequence with signs kept (not the inverse)."""
        return Word._of(self.letters[::-1])

    def generators_exchanged(self) -> "Word":
        """The word with x and y exchanged, signs and order kept."""
        return Word._of(tuple([_EXCHANGED[letter] for letter in self.letters]))

    def exponent_sum(self, gen: str) -> int:
        if gen not in GENERATORS:
            raise ValueError(f"unknown generator {gen!r}")
        letters = self.letters
        return letters.count(_LETTERS[gen, 1]) - letters.count(_LETTERS[gen, -1])

    def total_exponent_sum(self) -> int:
        return sum(map(itemgetter(1), self.letters))

    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return "".join([g if s > 0 else g + "^-1" for g, s in self.letters])

    def __repr__(self) -> str:
        return f"Word.parse({str(self)!r})"
