"""Exact sparse arithmetic in the free algebra Q<x,y>.

Words are plain strings over the two-letter alphabet 'x', 'y'; the empty
string is the multiplicative identity.  Coefficients are exact rationals,
`int | Fraction`: an integral coefficient enters as an `int`, any other as
a `Fraction`, so integer work never pays for `Fraction`. Sums and products
keep Python's own types, so an integral value may also be held as a
`Fraction`; the two compare equal, hash equal and print the same.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

X = "x"
Y = "y"

_WORD_RE = re.compile(r"^[xy]*$")


def check_word(w: str) -> str:
    if not _WORD_RE.match(w):
        raise ValueError(f"not a word over x,y: {w!r}")
    return w


def is_admissible(w: str) -> bool:
    """True iff w lies in Q + xhy: empty, or starts with x and ends with y."""
    return not w or (w[0] == X and w[-1] == Y)


def all_words(k: int):
    """All 2^k words of weight k, in length-lex order (x < y)."""
    for letters in itertools.product((X, Y), repeat=k):
        yield "".join(letters)


def admissible_words(k: int):
    """Admissible words of weight k (2^(k-2) of them for k >= 2)."""
    if k == 0:
        yield ""
    elif k >= 2:
        for mid in all_words(k - 2):
            yield X + mid + Y


def accumulate(acc: dict, pairs) -> dict:
    """Add each (key, value) of pairs into acc; drop a key whose sum is zero.

    The sparse sum under every NcPoly, Series3, derivation and span
    elimination step. Values must be nonzero: the first value for a key is
    stored without a zero test.
    """
    for k, v in pairs:
        prev = acc.get(k)
        if prev is None:
            acc[k] = v
        else:
            s = prev + v
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc


def accumulate_product(acc: dict, p: "NcPoly", q: "NcPoly") -> dict:
    """Add the terms of the product p * q into acc, as accumulate does."""
    # a product of nonzero rationals is nonzero, as accumulate needs; the
    # factors are small, so a list beats a generator here
    right = q._terms.items()
    return accumulate(acc, [
        (w1 + w2, c1 * c2) for w1, c1 in p._terms.items() for w2, c2 in right
    ])


def _q(c) -> int | Fraction:
    """c as an exact rational: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _term_key(w: str):
    # canonical term order: length-lex, x < y
    return (len(w), w)


class NcPoly:
    """Element of Q<x,y>: finite map word -> nonzero int | Fraction."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        acc: dict[str, int | Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            pairs = ((w, _q(c)) for w, c in items)
            accumulate(acc, (wc for wc in pairs if wc[1]))
        self._terms = acc

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, terms: dict[str, int | Fraction]) -> "NcPoly":
        """Wrap a dict that already maps words to nonzero coefficients."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "NcPoly":
        return cls()

    @classmethod
    def one(cls) -> "NcPoly":
        return cls({"": 1})

    @classmethod
    def word(cls, w: str, coeff=1) -> "NcPoly":
        return cls({check_word(w): coeff})

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict[str, int | Fraction]:
        return dict(self._terms)

    def items(self):
        """Terms in canonical (length-lex) order."""
        return sorted(self._terms.items(), key=lambda kv: _term_key(kv[0]))

    def coeff(self, w: str) -> int | Fraction:
        return self._terms.get(w, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def weights(self):
        return sorted({len(w) for w in self._terms})

    def is_homogeneous(self, k: int | None = None) -> bool:
        ws = self.weights()
        if len(ws) > 1:
            return False
        return k is None or not ws or ws[0] == k

    def admissible_support(self) -> bool:
        return all(is_admissible(w) for w in self._terms)

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "NcPoly") -> "NcPoly":
        if not isinstance(other, NcPoly):
            return NotImplemented
        return NcPoly._of(accumulate(dict(self._terms), other._terms.items()))

    def __neg__(self) -> "NcPoly":
        return NcPoly._of({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def scale(self, c) -> "NcPoly":
        c = _q(c)
        return NcPoly._of({} if not c else {w: c * v for w, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            return NcPoly._of(accumulate_product({}, self, other))
        return NotImplemented

    def __pow__(self, n: int) -> "NcPoly":
        if n < 0:
            raise ValueError("negative power")
        out = NcPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def weight_component(self, k: int) -> "NcPoly":
        return NcPoly._of({w: c for w, c in self._terms.items() if len(w) == k})

    # -- serialization ------------------------------------------------

    def render(self) -> str:
        """Canonical text form, e.g. '-3/2*xxy + xyy'. Zero renders as '0'."""
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.items():
            mono = w if w else "1"
            if c == 1 and w:
                piece = mono
            elif c == -1 and w:
                piece = "-" + mono
            elif w:
                piece = f"{c}*{mono}"
            else:
                piece = str(c)
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    @classmethod
    def parse(cls, text: str) -> "NcPoly":
        """Inverse of render()."""
        text = text.strip()
        if text == "0":
            return cls.zero()
        terms = []
        for sign, chunk in _split_signed(text):
            chunk = chunk.strip()
            if "*" in chunk:
                cstr, w = chunk.split("*", 1)
                c = Fraction(cstr)
            elif _WORD_RE.match(chunk) and chunk:
                c, w = Fraction(1), chunk
            else:
                c, w = Fraction(chunk), "1"
            w = "" if w == "1" else check_word(w)
            terms.append((w, sign * c))
        return cls(terms)

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"word": w, "coeff": str(c)} for w, c in self.items()
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NcPoly":
        """Inverse of to_dict(). Raises ValueError naming the first missing
        or ill-typed field."""
        if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
            raise ValueError("polynomial needs a 'terms' list")
        terms = []
        for i, t in enumerate(data["terms"]):
            if not isinstance(t, dict) or not isinstance(t.get("word"), str):
                raise ValueError(f"terms[{i}] needs a 'word' string")
            if "coeff" not in t:
                raise ValueError(f"terms[{i}] needs a 'coeff'")
            try:
                if isinstance(t["coeff"], bool):
                    raise TypeError
                c = Fraction(t["coeff"])
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise ValueError(f"terms[{i}].coeff is not a rational: {t['coeff']!r}") from None
            terms.append((check_word(t["word"]), c))
        return cls(terms)

    def __repr__(self) -> str:
        return f"NcPoly({self.render()})"


def _split_signed(text: str):
    """Split 'a + b - c' into [(1,'a'), (1,'b'), (-1,'c')]."""
    tokens = re.split(r"\s+([+-])\s+", text)
    sign = 1
    if tokens[0].startswith("-"):
        tokens[0] = tokens[0][1:]
        sign = -1
    yield sign, tokens[0]
    for op, chunk in zip(tokens[1::2], tokens[2::2]):
        yield (1 if op == "+" else -1), chunk
