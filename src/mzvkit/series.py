"""Truncated formal power series in the central variables u, v, w with
NcPoly coefficients, truncated by total degree.

Includes geometric inversion, the automorphism Delta_t in two independent
implementations (closed-form substitution and exp of derivations), and the
divided difference (F_v - F_w)/(v - w).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .maps import derivation
from .ncpoly import NcPoly, X, Y, accumulate

VAR_AXIS = {"u": 0, "v": 1, "w": 2}


def mono_degree(m) -> int:
    return m[0] + m[1] + m[2]


def _mono_add(m1, m2) -> tuple:
    return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])


def _mono_key(m):
    return (mono_degree(m), m[0], m[1], m[2])


class Series3:
    """Polynomial in u,v,w of total degree <= order, NcPoly coefficients."""

    __slots__ = ("order", "_coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        acc: dict[tuple, NcPoly] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            accumulate(acc, (
                (tuple(m), p) for m, p in items if p and mono_degree(m) <= order
            ))
        self.order = order
        self._coeffs = acc

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, order: int, coeffs: dict[tuple, NcPoly]) -> "Series3":
        """Wrap a dict that already maps monomials of degree <= order to
        nonzero NcPoly coefficients."""
        out = cls.__new__(cls)
        out.order = order
        out._coeffs = coeffs
        return out

    @classmethod
    def zero(cls, order: int) -> "Series3":
        return cls(order)

    @classmethod
    def scalar(cls, c, order: int) -> "Series3":
        return cls(order, {(0, 0, 0): NcPoly.one().scale(c)})

    @classmethod
    def from_poly(cls, p: NcPoly, order: int) -> "Series3":
        return cls(order, {(0, 0, 0): p})

    @classmethod
    def single(cls, p: NcPoly, mono, order: int) -> "Series3":
        return cls(order, {tuple(mono): p})

    # -- inspection ---------------------------------------------------

    def coeff(self, mono) -> NcPoly:
        return self._coeffs.get(tuple(mono), NcPoly.zero())

    def items(self):
        """(monomial, coefficient) pairs sorted by (total degree, a, b, c)."""
        return sorted(self._coeffs.items(), key=lambda kv: _mono_key(kv[0]))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series3):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    def first_nonzero(self):
        """Smallest monomial (degree order) with nonzero coefficient, or None."""
        if not self._coeffs:
            return None
        return min(self._coeffs, key=_mono_key)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Series3") -> "Series3":
        order = min(self.order, other.order)
        acc = {m: p for m, p in self._coeffs.items() if mono_degree(m) <= order}
        accumulate(acc, (
            (m, p) for m, p in other._coeffs.items() if mono_degree(m) <= order
        ))
        return Series3._of(order, acc)

    def __neg__(self) -> "Series3":
        return Series3._of(self.order, {m: -p for m, p in self._coeffs.items()})

    def __sub__(self, other: "Series3") -> "Series3":
        return self + (-other)

    def __mul__(self, other: "Series3") -> "Series3":
        if not isinstance(other, Series3):
            return NotImplemented
        order = min(self.order, other.order)
        acc: dict[tuple, NcPoly] = {}
        right = other._coeffs.items()
        for (a1, b1, c1), p in self._coeffs.items():
            room = order - (a1 + b1 + c1)
            if room < 0:
                continue
            # Q<x,y> has no zero divisors, so every product p * q is nonzero
            accumulate(acc, (
                ((a1 + a2, b1 + b2, c1 + c2), p * q)
                for (a2, b2, c2), q in right
                if a2 + b2 + c2 <= room
            ))
        return Series3._of(order, acc)

    def scale(self, c) -> "Series3":
        c = Fraction(c)
        return Series3._of(
            self.order, {} if not c else {m: p.scale(c) for m, p in self._coeffs.items()}
        )

    def truncate(self, order: int) -> "Series3":
        return Series3(order, self._coeffs)

    # -- substitutions ------------------------------------------------

    def diagonal_vw(self) -> "Series3":
        """Substitute w := v."""
        return Series3(
            self.order,
            (((a, b + c, 0), p) for (a, b, c), p in self._coeffs.items()),
        )

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "terms": [
                {"u": m[0], "v": m[1], "w": m[2], "poly": p.to_dict()}
                for m, p in self.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Series3":
        return cls(
            data["order"],
            (
                ((t["u"], t["v"], t["w"]), NcPoly.from_dict(t["poly"]))
                for t in data["terms"]
            ),
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{m}: {p.render()}" for m, p in self.items())
        return f"Series3(order={self.order}, {{{inner}}})"


def geometric_inverse(f: Series3) -> Series3:
    """Two-sided inverse mod degree order+1; requires constant coefficient
    exactly 1.

    With e = 1 - f split by total degree, g = 1 + e*g gives g_0 = 1 and
    g_d = sum_{j=1..d} e_j g_(d-j): one pass over degrees.
    """
    if f.coeff((0, 0, 0)) != NcPoly.one():
        raise ValueError("not invertible at this truncation: constant term != 1")
    order = f.order
    e: list[list] = [[] for _ in range(order + 1)]
    for m, p in f._coeffs.items():
        if m != (0, 0, 0):
            e[mono_degree(m)].append((m, -p))
    g = [[((0, 0, 0), NcPoly.one())]]
    for d in range(1, order + 1):
        acc: dict[tuple, NcPoly] = {}
        for j in range(1, d + 1):
            right = g[d - j]
            for m1, p in e[j]:
                # Q<x,y> has no zero divisors, so every product p * q is nonzero
                accumulate(acc, ((_mono_add(m1, m2), p * q) for m2, q in right))
        g.append(list(acc.items()))
    return Series3._of(order, {m: p for layer in g for m, p in layer})


# -- Delta_t: closed-form substitution route --------------------------

def _axis_mono(var: str, m: int) -> tuple:
    mono = [0, 0, 0]
    mono[VAR_AXIS[var]] = m
    return tuple(mono)


@lru_cache(maxsize=None)
def _delta_letter(var: str, letter: str, order: int) -> Series3:
    # Delta(x) = x/(1-yt) = sum_m x y^m t^m
    # Delta(y) = (1-xt-yt) y/(1-yt) = y - sum_{m>=1} x y^m t^m
    if letter == X:
        terms = {_axis_mono(var, m): NcPoly.word(X + Y * m) for m in range(order + 1)}
    else:
        terms = {_axis_mono(var, m): NcPoly.word(X + Y * m, -1) for m in range(1, order + 1)}
        terms[(0, 0, 0)] = NcPoly.word(Y)
    return Series3(order, terms)


@lru_cache(maxsize=None)
def _delta_word(var: str, word: str, order: int) -> Series3:
    if not word:
        return Series3.scalar(1, order)
    res = _delta_word(var, word[:-1], order)
    return res * _delta_letter(var, word[-1], order)


def delta_on_series(var: str, f: Series3) -> Series3:
    """Apply Delta_t coefficientwise; a ring homomorphism fixing u, v, w."""
    acc: dict[tuple, NcPoly] = {}
    for m, q in f._coeffs.items():
        room = f.order - mono_degree(m)
        for w, c in q.terms.items():
            image = _delta_word(var, w, room)._coeffs.items()
            accumulate(acc, ((_mono_add(m, mm), p.scale(c)) for mm, p in image))
    return Series3._of(f.order, acc)


def delta_subst(var: str, p: NcPoly, order: int) -> Series3:
    """Delta_t via the closed-form generator images, extended multiplicatively
    over letters and linearly over terms."""
    return delta_on_series(var, Series3.from_poly(p, order))


# -- Delta_t: exponential-of-derivations route ------------------------

def _apply_big_derivation(var: str, f: Series3) -> Series3:
    """One application of D = sum_n (d_n/n) t^n to a truncated series."""
    order = f.order
    acc: dict[tuple, NcPoly] = {}
    for m, q in f._coeffs.items():
        images = (
            (n, derivation(n, q).scale(Fraction(1, n)))
            for n in range(1, order - mono_degree(m) + 1)
        )
        accumulate(acc, (
            (_mono_add(m, _axis_mono(var, n)), img) for n, img in images if img
        ))
    return Series3._of(order, acc)


def delta_exp(var: str, p: NcPoly, order: int) -> Series3:
    """Delta_t = exp(sum_n d_n t^n / n), truncated: the oracle route.

    Must agree with delta_subst on every input.
    """
    total = Series3.from_poly(p, order)
    cur = total
    for j in range(1, order + 1):
        cur = _apply_big_derivation(var, cur).scale(Fraction(1, j))
        if cur.is_zero():
            break
        total = total + cur
    return total


# -- divided difference -----------------------------------------------

class NotDivisibleError(ValueError):
    """(v-w) does not divide a series: its w=v diagonal has the nonzero
    coefficient `coeff` at `monomial`, the first in (total degree, a, b, c)
    order."""

    def __init__(self, monomial: tuple, coeff: NcPoly):
        super().__init__(
            f"not divisible by (v-w): diagonal w=v is nonzero at {monomial}"
        )
        self.monomial = monomial
        self.coeff = coeff


def divide_by_v_minus_w(g: Series3) -> Series3:
    """Exact quotient q with (v-w)*q = g; defined when g vanishes at w=v,
    else NotDivisibleError.

    Then g = g - g|_(v=w), so each term p u^a v^b w^c contributes
    p u^a (v^b - w^b)/(v-w) w^c = sum_{i<b} p u^a v^i w^(b-1-i+c). The
    result has order reduced by one.
    """
    diagonal = g.diagonal_vw()
    if not diagonal.is_zero():
        m = diagonal.first_nonzero()
        raise NotDivisibleError(m, diagonal.coeff(m))
    out: dict[tuple, NcPoly] = {}
    for (a, b, c), p in g._coeffs.items():
        accumulate(out, (((a, i, b - 1 - i + c), p) for i in range(b)))
    return Series3(g.order - 1, out)
