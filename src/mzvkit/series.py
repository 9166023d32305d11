"""Truncated formal power series in the central variables u, v, w with
NcPoly coefficients, truncated by total degree.

One product kernel builds every product and every quotient: division by
a series with constant term 1 is forward substitution, and no inverse is
formed (geometric_inverse is the quotient of 1). Also the automorphism
Delta_t in two independent routes (the closed-form letter images
multiplied left to right over a word, and exp of derivations, summed in
integers and divided once), and the divided difference
(F_v - F_w)/(v - w) by synthetic division: one running sum per line
(a, b + c) of a layer, to which each numerator term is added once.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .maps import derivation
from .ncpoly import NcPoly, X, Y, accumulate, accumulate_product

VAR_AXIS = {"u": 0, "v": 1, "w": 2}


def _mono_add(m1, m2) -> tuple:
    return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])


class Series3:
    """Polynomial in u,v,w of total degree <= order, NcPoly coefficients.

    Stored by total degree: _layers[d] maps each monomial of degree d to its
    nonzero coefficient, for d = 0..order, so the list is the truncation.
    """

    __slots__ = ("_layers",)

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self._layers: list[dict[tuple, NcPoly]] = [{} for _ in range(order + 1)]
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for m, p in items:
                m = tuple(m)
                if min(m) < 0:
                    raise ValueError(f"monomial {m} has a negative exponent")
                d = sum(m)
                if p and d <= order:
                    accumulate(self._layers[d], ((m, p),))

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, layers: list[dict[tuple, NcPoly]]) -> "Series3":
        """Wrap a nonempty list whose entry d maps monomials of degree d to
        nonzero NcPoly coefficients; the order is len(layers) - 1."""
        out = cls.__new__(cls)
        out._layers = layers
        return out

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

    @property
    def order(self) -> int:
        return len(self._layers) - 1

    def coeff(self, mono) -> NcPoly:
        d = sum(mono)
        if d > self.order:
            return NcPoly.zero()
        return self._layers[d].get(tuple(mono), NcPoly.zero())

    def items(self):
        """(monomial, coefficient) pairs sorted by (total degree, a, b, c)."""
        return [kv for layer in self._layers for kv in sorted(layer.items())]

    def is_zero(self) -> bool:
        return not any(self._layers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series3):
            return NotImplemented
        return self._layers == other._layers

    def first_nonzero(self):
        """Smallest monomial (degree order) with nonzero coefficient, or None."""
        for layer in self._layers:
            if layer:
                return min(layer)
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Series3") -> "Series3":
        if not isinstance(other, Series3):
            return NotImplemented
        return Series3._of([
            accumulate(dict(a), b.items()) for a, b in zip(self._layers, other._layers)
        ])

    def __neg__(self) -> "Series3":
        return Series3._of([{m: -p for m, p in layer.items()} for layer in self._layers])

    def __sub__(self, other: "Series3") -> "Series3":
        return self + (-other)

    def __mul__(self, other: "Series3") -> "Series3":
        if not isinstance(other, Series3):
            return NotImplemented
        left, right = self._layers, other._layers
        n = min(len(left), len(right))
        return Series3._of([_degree_layer(left, right, d) for d in range(n)])

    def scale(self, c) -> "Series3":
        return Series3._of([
            {m: p.scale(c) for m, p in layer.items()} if c else {}
            for layer in self._layers
        ])

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "terms": [
                {"u": m[0], "v": m[1], "w": m[2], "poly": p.to_dict()}
                for m, p in self.items()
            ],
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"{m}: {p.render()}" for m, p in self.items())
        return f"Series3(order={self.order}, {{{inner}}})"


def _degree_layer(left: list, right: list, d: int, start: dict | None = None) -> dict:
    """Layer d of a product: the sum over j = 0..d of left[j] * right[d-j],
    plus the layer start when one is given.

    The one product kernel under Series3.__mul__ and divide; it skips each
    j at which either layer is empty. Each output monomial keeps one
    {word: coeff} dict, a copy of its start coefficient's terms or empty,
    into which every pair of factor terms is summed in place, in ascending
    j; the nonempty dicts become NcPolys at the end.
    """
    acc: dict[tuple, dict] = {m: dict(p._terms) for m, p in start.items()} if start else {}
    for j in range(d + 1):
        if not (left[j] and right[d - j]):
            continue
        pairs = right[d - j].items()
        for (a1, b1, c1), p in left[j].items():
            for (a2, b2, c2), q in pairs:
                accumulate_product(acc.setdefault((a1 + a2, b1 + b2, c1 + c2), {}), p, q)
    return {m: NcPoly._of(terms) for m, terms in acc.items() if terms}


def divide(f: Series3, g: Series3, left: bool = True) -> Series3:
    """The quotient z with f*z = g, or z*f = g when left is false, mod
    degree min(f.order, g.order)+1; requires constant coefficient of f
    exactly 1.

    Power-series division by forward substitution: with e = 1 - f,
    z = g + e*z gives z_d = g_d + sum_{j=1..d} e_j z_(d-j) (z_(d-j) e_j on
    the right), one pass over degrees that never forms 1/f. Layers 1.. of
    -f are those of e; its layer 0 is left empty, and z_d is an empty
    placeholder while it is built, so the kernel never reads it.
    """
    if f.coeff((0, 0, 0)) != NcPoly.one():
        raise ValueError("not invertible at this truncation: constant term != 1")
    e = [{}] + (-f)._layers[1:]
    z: list[dict[tuple, NcPoly]] = []
    factors = (e, z) if left else (z, e)
    for d in range(min(len(e), len(g._layers))):
        z.append({})
        z[d] = _degree_layer(*factors, d, g._layers[d])
    return Series3._of(z)


def geometric_inverse(f: Series3) -> Series3:
    """Two-sided inverse mod degree order+1; requires constant coefficient
    exactly 1: the quotient of 1 by f."""
    return divide(f, Series3.scalar(1, f.order))


# -- Delta_t: closed-form substitution route --------------------------

def _axis_mono(var: str, m: int) -> tuple:
    mono = [0, 0, 0]
    mono[VAR_AXIS[var]] = m
    return tuple(mono)


def _delta_letter(var: str, letter: str, order: int) -> Series3:
    # Delta(x) = x/(1-yt) = sum_m x y^m t^m
    # Delta(y) = (1-xt-yt) y/(1-yt) = y - sum_{m>=1} x y^m t^m
    if letter == X:
        terms = {_axis_mono(var, m): NcPoly.word(X + Y * m) for m in range(order + 1)}
    else:
        terms = {_axis_mono(var, m): NcPoly.word(X + Y * m, -1) for m in range(1, order + 1)}
        terms[(0, 0, 0)] = NcPoly.word(Y)
    return Series3(order, terms)


def _delta_word(var: str, word: str, order: int) -> Series3:
    if not word:
        return Series3.scalar(1, order)
    out = _delta_letter(var, word[0], order)
    for letter in word[1:]:
        out = out * _delta_letter(var, letter, order)
    return out


def delta_on_series(var: str, f: Series3) -> Series3:
    """Apply Delta_t coefficientwise; a ring homomorphism fixing u, v, w."""
    out: list[dict[tuple, NcPoly]] = [{} for _ in f._layers]
    for d, layer in enumerate(f._layers):
        for m, q in layer.items():
            for w, c in q.terms.items():
                image = _delta_word(var, w, f.order - d)._layers
                for k, terms in enumerate(image, d):
                    accumulate(out[k], (
                        (_mono_add(m, mm), p.scale(c)) for mm, p in terms.items()
                    ))
    return Series3._of(out)


def delta_subst(var: str, p: NcPoly, order: int) -> Series3:
    """Delta_t via the closed-form generator images, extended multiplicatively
    over letters and linearly over terms."""
    return delta_on_series(var, Series3.from_poly(p, order))


# -- Delta_t: exponential-of-derivations route ------------------------

def _apply_big_derivation(var: str, f: Series3, scale: int) -> Series3:
    """One application of scale*D = sum_n (scale/n) d_n t^n to a truncated
    series; scale is a multiple of every n <= f.order, so an integral f
    gives an integral image."""
    out: list[dict[tuple, NcPoly]] = [{} for _ in f._layers]
    for d, layer in enumerate(f._layers):
        for n in range(1, f.order - d + 1):
            shift = _axis_mono(var, n)
            images = (
                (_mono_add(m, shift), derivation(n, q).scale(scale // n))
                for m, q in layer.items()
            )
            accumulate(out[d + n], ((m, img) for m, img in images if img))
    return Series3._of(out)


def delta_exp(var: str, p: NcPoly, order: int) -> Series3:
    """Delta_t = exp(sum_n d_n t^n / n), truncated: the oracle route.

    With L = lcm(1..order) and J = order, sums (L*D)^j p * L^(J-j) J!/j!,
    integral for an integral p, and divides once, by L^J J!.
    Must agree with delta_subst on every input.
    """
    scale = lcm(*range(1, order + 1))
    denominator = weight = scale**order * factorial(order)
    cur = Series3.from_poly(p, order)
    total = cur.scale(weight)
    for j in range(1, order + 1):
        cur = _apply_big_derivation(var, cur, scale)
        if cur.is_zero():
            break
        weight //= scale * j
        total = total + cur.scale(weight)
    return total.scale(Fraction(1, denominator))


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
    else NotDivisibleError. An order-0 g that vanishes there has no
    quotient (ValueError).

    Synthetic division: (v-w)q = g gives q_(a,b-1,c) = g_(a,b,c) +
    q_(a,b,c-1). So on each line (a, s = b+c) of a layer, one running
    {word: coeff} sum walks b = s..1, adds each term of g once and is
    copied out as q_(a,b-1,s-b); after it adds the term at b = 0 it holds
    the w=v diagonal at (a, s, 0), which must be zero. Lines are walked in
    ascending a, so the first nonzero one is the first in (total degree,
    a, b, c) order. Layer d of g goes to layer d-1 of q, whose order is
    one less.
    """
    quotient: list[dict[tuple, NcPoly]] = []
    for d, layer in enumerate(g._layers):
        lines: dict[int, dict[int, NcPoly]] = {}
        for (a, b, _), p in layer.items():
            lines.setdefault(a, {})[b] = p
        out: dict[tuple, NcPoly] = {}
        for a in sorted(lines):
            line, s = lines[a], d - a
            running: dict = {}
            for b in range(s, -1, -1):
                p = line.get(b)
                if p is not None:
                    accumulate(running, p._terms.items())
                if b and running:
                    out[(a, b - 1, s - b)] = NcPoly._of(dict(running))
            if running:
                raise NotDivisibleError((a, s, 0), NcPoly._of(running))
        if d:
            quotient.append(out)
    if not quotient:
        raise ValueError("truncation order must be >= 0: an order-0 series has no quotient")
    return Series3._of(quotient)
