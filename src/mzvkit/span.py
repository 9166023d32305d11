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
from .ncpoly import (
    NcPoly, accumulate, accumulate_scaled, admissible_words, check_word, parse_term,
)


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

    def _expanded(self) -> tuple[int, dict[str, int]]:
        """(den, terms of den * the combination's expansion), with den the
        lcm of every denominator in the combination and in the target. The
        combination is summed per n into one integer polynomial, and d_n,
        being linear, is applied once to each (no solver)."""
        den = lcm(
            *(c.denominator for c in self.target.terms.values()),
            *(c.denominator for _, _, c in self.combination),
        )
        by_n: dict[int, dict[str, int]] = {}
        for n, w, c in self.combination:
            if c:
                accumulate(by_n.setdefault(n, {}), [(check_word(w), _times(c, den))])
        acc: dict[str, int] = {}
        for n, terms in by_n.items():
            accumulate(acc, derivation(n, NcPoly._of(terms)).terms.items())
        return den, acc

    def verify(self) -> bool:
        """True iff the combination expands to the target, compared in
        integers: den * expansion against den * target."""
        den, acc = self._expanded()
        return acc == {w: _times(c, den) for w, c in self.target.terms.items()}

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
        """Inverse of to_dict(). Raises ValueError naming the first bad field:
        'target' (NcPoly.from_dict's error, prefixed 'target: '), 'combination',
        or combination[i] and its field as parse_term names them, or its .n,
        also when d_n(word) has a weight n + len(word) that no target word
        has (so a zero target takes no entries), which verify() would
        otherwise expand in full."""
        if not isinstance(data, dict) or "target" not in data:
            raise ValueError("certificate needs a 'target'")
        try:
            target = NcPoly.from_dict(data["target"])
        except ValueError as exc:
            raise ValueError(f"target: {exc}") from None
        if not isinstance(data.get("combination"), list):
            raise ValueError("certificate needs a 'combination' list")
        weights = set(map(len, target.terms))
        combination = []
        for i, t in enumerate(data["combination"]):
            where = f"combination[{i}]"
            w, c = parse_term(t, where)
            n = t.get("n")
            if type(n) is not int or n < 1:
                raise ValueError(f"{where}.n is not an int >= 1: {n!r}")
            if n + len(w) not in weights:
                raise ValueError(f"{where}.n = {n} on a {len(w)}-letter word gives weight "
                                 f"{n + len(w)}, which no target word has")
            combination.append((n, w, c))
        return cls(target, combination)


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
    The word sets only the fill-in, and so the time. _reduce clears the
    pivots in creation order, which is right for any pivot word: each pivot
    row was reduced against every earlier one. A membership target is
    reduced by the same _reduce.

    Most dependent generators are skipped, not reduced to zero. The
    derivations commute, so for m < n, d_n(d_m(w)) = d_m(d_n(w)) is an
    integer relation among the generators (_relations). Each relation whose
    combination of images expands to 0 is echeloned in integers at its
    largest generator index, and the leads are skipped (_dependent). A lead
    is an integer combination of earlier images, so skipping it changes no
    pivot row and no pivot order, and the certificates are the same. A
    dependent generator that is no lead is reduced to zero, as before.

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
    row's content, own key included, is divided out after each step. Each
    integer vector is a nonzero multiple of the one that rational
    elimination would reach (a sign is such a multiple), so the supports,
    the pivots and the (unique) certificate coefficients are the same.
    Fractions enter only to clear a target's denominators and to write a
    certificate.
    """

    def __init__(self, k: int):
        self.weight = k
        self.basis = span_basis(k) if k >= 2 else SpanBasis(k, [])
        self.pivots: dict[str, dict[str | int, int]] = {}
        gens = self.basis.generators
        dependent = _dependent(k, gens)
        for j, gen in enumerate(gens):
            if j in dependent:
                continue
            row = gen.image.terms  # a fresh dict; images have int coefficients
            row[j] = 1
            self._reduce(row)
            words = [key for key in row if type(key) is str]
            if words:
                word = max(words)
                if row[word] < 0:
                    for key in row:
                        row[key] = -row[key]
                self.pivots[word] = row

    def _reduce(self, row: dict[str | int, int]):
        """Clear every pivot word of row in place, in creation order."""
        for word, pivot in self.pivots.items():
            if word in row:
                _clear(row, word, pivot)

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
        self._reduce(row)
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


def _clear(row: dict, key, pivot: dict) -> None:
    """Clear row[key] (nonzero) in place with pivot, whose entry at key is
    its lead: row times lead/g, minus c/g times pivot, g = gcd(lead, c).
    Then divide out the row's content. The content is almost always 1, so
    its scan stops at the first entry that makes it 1."""
    c, lead = row[key], pivot[key]
    g = gcd(lead, c)
    a = lead // g
    if a != 1:
        for k in row:
            row[k] *= a
    accumulate_scaled(row, pivot, -c // g)
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in row:
            row[k] //= g


def _relations(k: int, gens: list[SpanGenerator]):
    """Integer rows r over the indices of the weight-k generators with
    sum_j r[j] * image_j = 0, one for each m < n and each w, in (m, n, w)
    order: w is the letter x when k - m - n = 1, else each admissible word
    of weight k - m - n. [d_m, d_n](w) = 0 gives d_n(d_m(w)) = d_m(d_n(w)),
    and every word u of d_m(w) is admissible, so
    d_n(d_m(w)) = sum_u [u]d_m(w) * d_n(u)."""
    index = {(g.n, g.word): j for j, g in enumerate(gens)}
    for m in range(1, k):
        for n in range(m + 1, k - m):
            rest = k - m - n
            for w in ("x",) if rest == 1 else admissible_words(rest):
                p = NcPoly.word(w)
                row: dict[int, int] = {}
                accumulate(row, ((index[n, u], c) for u, c in derivation(m, p).terms.items()))
                accumulate(row, ((index[m, u], -c) for u, c in derivation(n, p).terms.items()))
                if row:
                    yield row


def _dependent(k: int, gens: list[SpanGenerator]) -> set[int]:
    """Indices of generators whose image is an integer combination of the
    images before it: the leads of an integer echelon of the relations.
    A relation is used only if its combination of images expands to 0.
    Each row is rewritten in place at its largest index, by the lead row
    there, until it has a new lead or is zero."""
    leads: dict[int, dict[int, int]] = {}
    for row in _relations(k, gens):
        acc: dict[str, int] = {}
        for j, c in row.items():
            accumulate_scaled(acc, gens[j].image._terms, c)
        if acc:
            continue
        while row:
            j = max(row)
            if j not in leads:
                leads[j] = row
                break
            _clear(row, j, leads[j])
    return set(leads)


def _times(c: int | Fraction, den: int) -> int:
    """den * c, for a den that c's denominator divides."""
    return c.numerator * (den // c.denominator)


def _cleared(p: NcPoly) -> tuple[int, dict[str, int]]:
    """(den, terms of den * p) with den the lcm of p's denominators."""
    terms = p.terms
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {w: _times(c, den) for w, c in terms.items()}


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
    """All valid (m, l) at weight k >= 3; every case must certify."""
    if k < 3:
        raise ValueError("weight must be >= 3: every duality target below weight 3 is 0")
    out = []
    for m in range(1, k):
        for l in range(1, k - m + 1):
            out.append((m, l, corollary_check(k, m, l)))
    return out
