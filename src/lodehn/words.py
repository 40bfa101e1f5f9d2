"""Freely reduced words on the two meridian generators x and y.

A letter is a pair ``(gen, sign)`` with ``gen`` in ``{"x", "y"}`` and
``sign`` in ``{+1, -1}``.  Words are always stored reduced: no letter is
ever adjacent to its inverse.  The empty word is the group identity.

Surface syntax: ``x``, ``y``, each optionally followed by ``^-1``;
uppercase ``X``, ``Y`` are shorthand for the inverses.  Whitespace is
ignored.
"""

from __future__ import annotations

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


class Word:
    """A freely reduced word; construction reduces eagerly."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        self.letters = _reduced(letters)

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
        return Word(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def inverse(self) -> "Word":
        """Reversed letter sequence with all signs negated."""
        return Word([(gen, -sign) for gen, sign in reversed(self.letters)])

    def __invert__(self) -> "Word":
        return self.inverse()

    def spelled_backwards(self) -> "Word":
        """Reversed letter sequence with signs kept (not the inverse)."""
        return Word(tuple(reversed(self.letters)))

    def exponent_sum(self, gen: str) -> int:
        if gen not in GENERATORS:
            raise ValueError(f"unknown generator {gen!r}")
        return sum(sign for g, sign in self.letters if g == gen)

    def total_exponent_sum(self) -> int:
        return sum(sign for _, sign in self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return "".join(g + ("" if s > 0 else "^-1") for g, s in self.letters)

    def __repr__(self) -> str:
        return f"Word.parse({str(self)!r})"
