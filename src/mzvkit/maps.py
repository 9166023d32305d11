"""Structure maps on Q<x,y>: duality tau, the derivations d_n, and the
dictionary between MZV indices and words."""

from __future__ import annotations

import re
from functools import lru_cache

from .ncpoly import NcPoly, X, Y, accumulate, admissible_words, check_word

_SWAP = str.maketrans("xy", "yx")


def tau_word(w: str) -> str:
    """Reverse the word and swap x <-> y."""
    return w.translate(_SWAP)[::-1]


def tau(p: NcPoly) -> NcPoly:
    """The duality anti-automorphism: tau(x)=y, tau(y)=x, tau(ab)=tau(b)tau(a)."""
    return NcPoly((tau_word(w), c) for w, c in p.terms.items())


@lru_cache(maxsize=None)
def dn_generator(n: int) -> NcPoly:
    """x(x+y)^(n-1)y: the image of x under the n-th derivation.

    Expands to the 2^(n-1) words of weight n+1 that start with x and end
    with y, each with coefficient 1.
    """
    if n < 1:
        raise ValueError("derivation order must be >= 1")
    return NcPoly((w, 1) for w in admissible_words(n + 1))


def derivation(n: int, p: NcPoly) -> NcPoly:
    """The derivation d_n with d_n(x) = x(x+y)^(n-1)y = -d_n(y).

    Applied letterwise via the Leibniz rule; every output term has weight
    equal to the input weight plus n.
    """
    gen_words = list(dn_generator(n).terms)
    acc = {}
    for w, c in p.terms.items():
        for i, ch in enumerate(w):
            cc = c if ch == X else -c
            prefix, suffix = w[:i], w[i + 1:]
            accumulate(acc, ((prefix + g + suffix, cc) for g in gen_words))
    return NcPoly._of(acc)


# -- MZV indices ------------------------------------------------------

def is_admissible_index(parts) -> bool:
    """True iff parts is a composition (every part >= 1) with k1 >= 2."""
    return bool(parts) and parts[0] >= 2 and all(k >= 1 for k in parts)


def index_to_word(parts) -> str:
    """(k1,...,kd) -> x^(k1-1) y ... x^(kd-1) y."""
    if not parts or any(k < 1 for k in parts):
        raise ValueError(f"not a composition of positive integers: {parts}")
    return "".join(X * (k - 1) + Y for k in parts)


def word_to_index(w: str) -> tuple[int, ...]:
    """Inverse of index_to_word; defined for nonempty words ending in y."""
    check_word(w)
    if not w or w[-1] != Y:
        raise ValueError(f"not an index word (must be nonempty, end in y): {w!r}")
    return tuple(len(seg) + 1 for seg in w.split(Y)[:-1])


def dual_index(parts) -> tuple[int, ...]:
    """word -> tau -> word on the index side; defined for k1 >= 2 only."""
    if not is_admissible_index(parts):
        raise ValueError(f"dual undefined for non-admissible index {tuple(parts)}")
    return word_to_index(tau_word(index_to_word(parts)))


# -- text forms -------------------------------------------------------

_INDEX_RE = re.compile(r"^\(\s*\d+\s*(,\s*\d+\s*)*\)$")


def index_from_str(text: str) -> tuple[int, ...]:
    """Parse '(3,1,2)' into (3, 1, 2); every part must be at least 1."""
    text = text.strip()
    if not _INDEX_RE.match(text):
        raise ValueError(f"not an index: {text!r}")
    parts = tuple(int(t) for t in text[1:-1].split(","))
    if min(parts) < 1:
        raise ValueError(f"not an index: {text!r} has a part below 1")
    return parts


def index_to_str(parts) -> str:
    return "(" + ",".join(str(k) for k in parts) + ")"
