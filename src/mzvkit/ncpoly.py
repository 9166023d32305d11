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

_WORD_RE = re.compile(r"[xy]*")


def check_word(w: str) -> str:
    if not _WORD_RE.fullmatch(w):
        raise ValueError(f"not a word over x,y: {w!r}")
    return w


def parse_term(term, where: str) -> tuple[str, Fraction]:
    """(word, coeff) of a JSON term {"word": ..., "coeff": ...}; a ValueError
    naming `where` and the field if term is not an object, its word not a
    string over x,y, or its coeff missing, a bool, or not a rational."""
    if not isinstance(term, dict):
        raise ValueError(f"{where} is not an object")
    w = term.get("word")
    if not isinstance(w, str) or not _WORD_RE.fullmatch(w):
        raise ValueError(f"{where}.word is not a word over x,y: {w!r}")
    if "coeff" not in term:
        raise ValueError(f"{where} needs a 'coeff'")
    c = term["coeff"]
    try:
        if isinstance(c, bool):
            raise TypeError
        return w, Fraction(c)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{where}.coeff is not a rational: {c!r}") from None


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

    The sparse sum under every NcPoly, Series3 and derivation step, and
    under certificate expansion. Values must be nonzero: the first value
    for a key is stored without a zero test.
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
    # a product of nonzero rationals is nonzero, so a new key needs no test
    get = acc.get
    right = q._terms.items()
    for w1, c1 in p._terms.items():
        for w2, c2 in right:
            w = w1 + w2
            prev = get(w)
            if prev is None:
                acc[w] = c1 * c2
            else:
                s = prev + c1 * c2
                if s:
                    acc[w] = s
                else:
                    del acc[w]
    return acc


def accumulate_scaled(acc: dict, terms: dict, factor) -> dict:
    """Add factor * c for each (key, c) of terms into acc, as accumulate
    does; factor must be nonzero. The merge of one elimination step."""
    get = acc.get
    for k, c in terms.items():
        s = get(k, 0) + factor * c
        if s:
            acc[k] = s
        else:
            del acc[k]
    return acc


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

    def weight_component(self, k: int) -> "NcPoly":
        return NcPoly._of({w: c for w, c in self._terms.items() if len(w) == k})

    # -- serialization ------------------------------------------------

    def render(self) -> str:
        """Canonical text form, e.g. '-3/2*xxy + xyy'. Zero renders as '0'."""
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.items():
            if not w:
                parts.append(str(c))
            elif c == 1:
                parts.append(w)
            elif c == -1:
                parts.append("-" + w)
            else:
                parts.append(f"{c}*{w}")
        return " + ".join(parts).replace(" + -", " - ")

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"word": w, "coeff": str(c)} for w, c in self.items()
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NcPoly":
        """Inverse of to_dict(). Raises ValueError naming the first bad field:
        'terms', or terms[i] and its field as parse_term names them."""
        if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
            raise ValueError("polynomial needs a 'terms' list")
        return cls([parse_term(t, f"terms[{i}]") for i, t in enumerate(data["terms"])])

    def __repr__(self) -> str:
        return f"NcPoly({self.render()})"
