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

from .maps import derivation, dn_generator, sum_word, tau
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

    Most dependent generators are skipped, not reduced to zero (_skipped).
    Let (n, w) have w of weight r = k - n, the largest word of some
    v = sum a_(m,u) d_m(u), m < n, u admissible of weight r - m or x. Then
    d_n(v) = sum [w']v d_n(w') is [w]v (n, w) plus block n at smaller
    words; and, as the derivations commute (Ihara-Kaneko-Zagier; the tests
    check it for every m + n below the CLI's largest weight), it equals
    sum a_(m,u) d_m(d_n(u)), a combination of blocks m < n. So skipping
    (n, w) changes no pivot row and no certificate. Such w are the pivot
    words of weight r after block n - 1 (_lower, with d_(r-1)(x) as block
    r - 1), as each pivot is its row's largest word; at weights 3 to 12
    they name exactly the dependent generators. A wrong skip could only drop a generator from the span, so
    module-level membership retries on a build with no skip set
    (_skip=False) before it answers None.

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

    def __init__(self, k: int, _skip: bool = True):
        self.weight = k
        # the lower weights are built and freed before this weight's images
        skip = _skipped(k) if _skip else set()
        self.basis = span_basis(k) if k >= 2 else SpanBasis(k, [])
        self.pivots = _echelon(self.basis.generators, skip)[0]

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
        _reduce(self.pivots, row)
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


def _echelon(gens: list[SpanGenerator], skip: set[tuple[int, str]]
             ) -> tuple[dict[str, dict[str | int, int]], dict[int, int]]:
    """(pivots, ends): the pivot rows of the generators not in skip, each
    column reduced in generator order and pivoted at its largest word, and
    ends[n] = the number of pivots after block n (ends[0] = 0)."""
    pivots: dict[str, dict[str | int, int]] = {}
    ends = {0: 0}
    for j, gen in enumerate(gens):
        if (gen.n, gen.word) not in skip:
            row = gen.image.terms  # a fresh dict; images have int coefficients
            row[j] = 1
            _reduce(pivots, row)
            words = [key for key in row if type(key) is str]
            if words:
                word = max(words)
                if row[word] < 0:
                    for key in row:
                        row[key] = -row[key]
                pivots[word] = row
        ends[gen.n] = len(pivots)
    return pivots, ends


def _reduce(pivots: dict, row: dict[str | int, int]) -> None:
    """Clear every pivot word of row in place, in creation order."""
    for word, pivot in pivots.items():
        if word in row:
            _clear(row, word, pivot)


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


def _times(c: int | Fraction, den: int) -> int:
    """den * c, for a den that c's denominator divides."""
    return c.numerator * (den // c.denominator)


def _cleared(p: NcPoly) -> tuple[int, dict[str, int]]:
    """(den, terms of den * p) with den the lcm of p's denominators."""
    terms = p.terms
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {w: _times(c, den) for w, c in terms.items()}


@cache
def _lower(r: int) -> tuple[list[str], dict[int, int]]:
    """The pivot words of weight r in creation order and the block ends of
    _echelon, with d_(r-1)(x) reduced last as a block r - 1 of its own."""
    gens = span_basis(r).generators + [SpanGenerator(r - 1, "x", dn_generator(r - 1))]
    pivots, ends = _echelon(gens, _skipped(r))
    return list(pivots), ends


def _skipped(k: int) -> set[tuple[int, str]]:
    """The generators of weight k that SpanSolver skips. Block 1 has none,
    so weight k - 1 is never built."""
    skip = set()
    for n in range(2, k - 1):
        words, ends = _lower(k - n)
        skip.update((n, w) for w in words[:ends[min(n - 1, k - n - 1)]])
    return skip


@cache
def _solver(k: int, skip: bool = True) -> SpanSolver:
    return SpanSolver(k, skip)


def membership(target: NcPoly, k: int) -> MembershipCertificate | None:
    """Certificate if target lies in the weight-k span; before None, the
    build with no skip set is tried, so a wrong skip can only cost time."""
    cert = _solver(k).membership(target)
    return cert if cert is not None else _solver(k, False).membership(target)


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
