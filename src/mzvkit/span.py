"""Membership of weight-homogeneous targets in the derivation span
sum_n d_n(h0) at fixed weight, with explicit re-verifiable certificates.

Elimination is fraction-free over Python ints: every generator image has
integer coefficients, and a target's denominators are cleared by their
lcm. Fractions appear only in the certificate coefficients."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import NamedTuple

from .maps import derivation, sum_word, tau
from .ncpoly import NcPoly, accumulate, accumulate_scaled, admissible_words


class NotInSpanError(Exception):
    """A target expected to lie in the derivation span does not."""


class SpanGenerator(NamedTuple):
    n: int
    word: str
    image: NcPoly  # derivation(n, word), weight-homogeneous


class SpanBasis(NamedTuple):
    weight: int
    generators: list[SpanGenerator]


class MembershipCertificate(NamedTuple):
    """Witness: target = sum of coeff * d_n(word) over the combination."""

    target: NcPoly
    combination: list[tuple[int, str, Fraction]]

    def expand(self) -> NcPoly:
        """Re-expand the combination by direct derivation calls (no solver)."""
        acc: dict[str, Fraction] = {}
        for n, w, c in self.combination:
            accumulate(acc, derivation(n, NcPoly.word(w)).scale(c).terms.items())
        return NcPoly._of(acc)

    def verify(self) -> bool:
        return self.expand() == self.target

    def to_dict(self) -> dict:
        return {
            "target": self.target.to_dict(),
            "combination": [
                {"n": n, "word": w, "coeff": str(c)}
                for n, w, c in self.combination
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MembershipCertificate":
        return cls(
            NcPoly.from_dict(data["target"]),
            [
                (t["n"], t["word"], Fraction(t["coeff"]))
                for t in data["combination"]
            ],
        )


def span_basis(k: int) -> SpanBasis:
    """Images d_n(w) for n = 1..k-2 and admissible w of weight k-n, in
    deterministic order (n ascending, words length-lex)."""
    if k < 2:
        raise ValueError("weight must be >= 2")
    gens = []
    for n in range(1, k - 1):
        for w in admissible_words(k - n):
            gens.append(SpanGenerator(n, w, derivation(n, NcPoly.word(w))))
    return SpanBasis(k, gens)


# The own key of a membership target's augmented row; generators use 0, 1, ...
TARGET = -1


class SpanSolver:
    """Column echelon basis of the derivation span at one weight.

    Rows are the words of the weight. Pivot rule: columns are processed in
    generator order and reduced against every pivot so far; one that is
    not reduced to zero pivots at its largest nonzero word (x < y).
    Generator j becomes a pivot exactly when its image is not in the span
    of the images of generators 0..j-1, whatever word a column pivots at.
    So the pivot generators do not depend on the pivot word, and a
    certificate, a combination of those independent generators, is unique.
    The word sets only the fill-in, and the largest word fills in far less
    than the least one (weight 13 builds about 9x faster). _reduce clears
    the pivots in creation order, which is right for any pivot word: each
    pivot row was reduced against every earlier one.

    Elimination is fraction-free over Python ints (Bareiss-style) on
    augmented rows: one integer dict per column whose word keys hold the
    vector and whose int keys hold the generator combination producing it.
    A pivot word maps to its row, stored with a positive lead row[word]. A
    row's own key (its generator index, or TARGET) holds its running scale:
    no earlier pivot carries that key, so it changes only when the whole
    row is multiplied or divided. To clear a word's entry c from a row, the
    row is multiplied by lead/g and the pivot's multiple c/g subtracted
    through accumulate_scaled, g = gcd(lead, c); as the lead is positive,
    the row is cross-multiplied only when the lead does not divide c. The
    common gcd is divided out after each step. Each integer vector is a
    nonzero multiple of the one that rational elimination would reach (a
    sign is such a multiple), so the supports, the pivots and the (unique)
    certificate coefficients are the same. Fractions enter only to clear a
    target's denominators and to write a certificate.
    """

    def __init__(self, k: int):
        self.weight = k
        self.basis = span_basis(k) if k >= 2 else SpanBasis(k, [])
        self.pivots: dict[str, dict[str | int, int]] = {}
        for j, gen in enumerate(self.basis.generators):
            row = gen.image.terms  # a fresh dict; images have int coefficients
            row[j] = 1
            self._reduce(row, j)
            words = [key for key in row if type(key) is str]
            if words:
                word = max(words)
                if row[word] < 0:
                    for key in row:
                        row[key] = -row[key]
                self.pivots[word] = row

    def _reduce(self, row: dict[str | int, int], own: int):
        """Clear every pivot word of row in place; row[own] is its scale."""
        for word, pivot in self.pivots.items():
            c = row.get(word)
            if not c:
                continue
            lead = pivot[word]
            g = gcd(lead, c)
            a, neg = lead // g, -c // g
            if a != 1:
                for key in row:
                    row[key] *= a
            accumulate_scaled(row, pivot, neg)
            if abs(row[own]) != 1:
                g = gcd(*row.values())
                if g != 1:
                    for key in row:
                        row[key] //= g

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def membership(self, target: NcPoly) -> MembershipCertificate | None:
        """Certificate if target lies in the span; None is a definitive
        negative at this weight."""
        if not target.is_homogeneous(self.weight):
            raise ValueError(f"mixed weight: target not homogeneous of weight {self.weight}")
        den, row = _cleared(target)
        row[TARGET] = 1
        self._reduce(row, TARGET)
        # now the word part == row[TARGET] * den * target + sum of row[i] * generator i
        scale = row.pop(TARGET)
        if any(type(key) is str for key in row):
            return None
        gens = self.basis.generators
        combination = [
            (gens[i].n, gens[i].word, Fraction(-c, scale * den))
            for i, c in sorted(row.items())
        ]
        return MembershipCertificate(target, combination)


def _cleared(p: NcPoly) -> tuple[int, dict[str, int]]:
    """(den, terms of den * p) with den the lcm of p's denominators."""
    terms = p.terms
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {w: c.numerator * (den // c.denominator) for w, c in terms.items()}


@cache
def _solver(k: int) -> SpanSolver:
    return SpanSolver(k)


def membership(target: NcPoly, k: int) -> MembershipCertificate | None:
    return _solver(k).membership(target)


def duality_target(k: int, m: int, l: int) -> NcPoly:
    """(1 - tau)(sum_word(k, m, l)), the quantity the corollary places in
    the derivation span."""
    s = sum_word(k, m, l)
    return s - tau(s)


def corollary_check(k: int, m: int, l: int) -> MembershipCertificate:
    """Certify one (k, m, l) case; a negative outcome falsifies the
    corollary and raises loudly."""
    cert = membership(duality_target(k, m, l), k)
    if cert is None:
        raise NotInSpanError(
            f"FALSIFICATION: (1-tau)(sum_word({k},{m},{l})) is not in the "
            f"derivation span at weight {k}"
        )
    return cert


def corollary_check_all(k: int) -> list[tuple[int, int, MembershipCertificate]]:
    """All valid (m, l) at weight k; every case must certify."""
    if k < 2:
        raise ValueError("weight must be >= 2")
    out = []
    for m in range(1, k):
        for l in range(1, k - m + 1):
            out.append((m, l, corollary_check(k, m, l)))
    return out
