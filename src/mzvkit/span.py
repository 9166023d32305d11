"""Membership of weight-homogeneous targets in the derivation span
sum_n d_n(h0) at fixed weight, with explicit re-verifiable certificates,
via exact rational Gaussian elimination."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .identities import sum_word
from .maps import derivation, tau
from .ncpoly import NcPoly, accumulate, admissible_words


class NotInSpanError(Exception):
    """A target expected to lie in the derivation span does not."""


@dataclass(frozen=True)
class SpanGenerator:
    n: int
    word: str
    image: NcPoly  # derivation(n, word), weight-homogeneous


@dataclass
class SpanBasis:
    weight: int
    generators: list[SpanGenerator]


@dataclass
class MembershipCertificate:
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


class SpanSolver:
    """Reduced column basis of the derivation span at one weight.

    Rows are the words of the weight. Pivot rule: columns processed in
    generator order, pivot at the first nonzero row (least word, x < y);
    deterministic by construction and tolerant of linearly dependent
    generators.
    """

    def __init__(self, k: int):
        self.weight = k
        self.basis = span_basis(k) if k >= 2 else SpanBasis(k, [])
        # pivot row -> (column vector, combination over generator indices)
        self.pivots: dict[str, tuple[dict[str, Fraction], dict[int, Fraction]]] = {}
        for j, gen in enumerate(self.basis.generators):
            vec = gen.image.terms
            combo = {j: Fraction(1)}
            self._reduce(vec, combo)
            if vec:
                row = min(vec)
                lead = vec[row]
                vec = {r: c / lead for r, c in vec.items()}
                combo = {i: c / lead for i, c in combo.items()}
                self.pivots[row] = (vec, combo)

    def _reduce(self, vec: dict[str, Fraction], combo: dict[int, Fraction]):
        for row in sorted(self.pivots):
            c = vec.get(row)
            if not c:
                continue
            pvec, pcombo = self.pivots[row]
            neg = -c
            accumulate(vec, ((r, neg * pc) for r, pc in pvec.items()))
            accumulate(combo, ((i, neg * pc) for i, pc in pcombo.items()))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def membership(self, target: NcPoly) -> MembershipCertificate | None:
        """Certificate if target lies in the span; None is a definitive
        negative at this weight."""
        if target.is_zero():
            return MembershipCertificate(target, [])
        if not target.is_homogeneous(self.weight):
            raise ValueError(f"mixed weight: target not homogeneous of weight {self.weight}")
        vec = target.terms
        combo: dict[int, Fraction] = {}
        # target = sum over pivots used; reduce and collect with sign flip
        self._reduce(vec, combo)
        if vec:
            return None
        gens = self.basis.generators
        combination = [
            (gens[i].n, gens[i].word, -c)
            for i, c in sorted(combo.items())
            if c
        ]
        return MembershipCertificate(target, combination)


_solver_cache: dict[int, SpanSolver] = {}


def _solver(k: int) -> SpanSolver:
    if k not in _solver_cache:
        _solver_cache[k] = SpanSolver(k)
    return _solver_cache[k]


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
    out = []
    for m in range(1, k):
        for l in range(1, k - m + 1):
            out.append((m, l, corollary_check(k, m, l)))
    return out
