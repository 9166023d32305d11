"""Generating functions for the fixed (weight, depth, k1) sums (the sums
themselves, as words, are maps.sum_word) and exact truncated-series
verification of the two main identities and their proof lemmas."""

from __future__ import annotations

from typing import NamedTuple

from .maps import sum_word  # kept here: perfbench/trace_child.py wraps identities.sum_word
from .ncpoly import NcPoly, X, Y
from .series import (
    NotDivisibleError,
    Series3,
    delta_on_series,
    divide,
    divide_by_v_minus_w,
)


class IdentityReport(NamedTuple):
    """Outcome of one exact truncated-series equality check."""

    name: str
    order: int
    passed: bool
    failing_monomial: tuple | None = None
    failing_diff: str | None = None

    def to_dict(self) -> dict:
        d = {"name": self.name, "order": self.order, "passed": self.passed}
        if not self.passed:
            d["failing_monomial"] = list(self.failing_monomial)
            d["failing_diff"] = self.failing_diff
        return d


def compare_series(name: str, lhs: Series3, rhs: Series3) -> IdentityReport:
    """Pass at once when the two series are equal; otherwise subtract
    (mod the smaller order) and localize the first failure in (total
    degree, a, b, c) order."""
    if lhs == rhs:
        return IdentityReport(name, lhs.order, True)
    diff = lhs - rhs
    if diff.is_zero():
        return IdentityReport(name, diff.order, True)
    m = diff.first_nonzero()
    return IdentityReport(name, diff.order, False, m, diff.coeff(m).render())


# -- series building blocks -------------------------------------------

class _Blocks:
    """The factors of the paper's generating functions at one order, or
    their Delta_var-images.

    A term names a letter and a central variable: lin("xu", "yv") is
    1 - xu - yv, and kernel(*terms) is 1 - xu - xv + (x^2 + yx)uv minus
    the further terms. Delta_t is a ring homomorphism fixing u, v, w, so
    with var = t every factor, and any product of them, is the Delta_t-image
    of the same expression built on _Blocks(order): only x and y change, to
    delta_on_series(t, x) and delta_on_series(t, y).

    No inverse is formed: each quotient by a factor f is divide(f, g) for
    1/f g, or divide(f, g, left=False) for g 1/f, whose cost is about
    |f| times the size of the quotient. Truncated products are associative,
    so the grouping of each chain below is a cost choice (small factors
    first, each division applied to the product it acts on), and the
    left-to-right product with explicit inverses is the test oracle.
    The cheapest grouping depends on the Delta variable, so var is kept.
    On Delta_v blocks _inner1 is (x 1/kernel y) (1/(1-xw) (1-xw-yw)), not
    x 1/kernel (y 1/(1-xw) (1-xw-yw)); on Delta_u blocks _inner2 is
    (x 1/(kernel-yw) (1-xu-yu)) (x 1/(1-xu) y), not
    x 1/(kernel-yw) ((1-xu-yu) x 1/(1-xu) y). Every other block keeps the
    second form, which measured cheapest there.
    """

    def __init__(self, order: int, var: str | None = None):
        self.order = order
        self.var = var
        self.x = Series3.from_poly(NcPoly.word(X), order)
        self.y = Series3.from_poly(NcPoly.word(Y), order)
        if var is not None:
            self.x = delta_on_series(var, self.x)
            self.y = delta_on_series(var, self.y)
        self.u, self.v, self.w = (
            Series3.single(NcPoly.one(), mono, order)
            for mono in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        )

    def lin(self, *terms: str) -> Series3:
        out = Series3.scalar(1, self.order)
        for letter, var in terms:
            out = out - getattr(self, letter) * getattr(self, var)
        return out

    def kernel(self, *terms: str) -> Series3:
        mixed = (self.x * self.x + self.y * self.x) * self.u * self.v
        return self.lin("xu", "xv", *terms) + mixed


def _zeta_base(b: _Blocks) -> Series3:
    """x/(1-xu) y."""
    return b.x * divide(b.lin("xu"), b.y)


def _xy_over_yu(b: _Blocks) -> Series3:
    """x y/(1-yu)."""
    return divide(b.lin("yu"), b.x * b.y, left=False)


def conjecture_lhs_series(order: int) -> Series3:
    """x/(1-xu) y 1/(1-xw-yv) (1-xw): the generating function whose
    coefficient at u^(m-1) v^(l-1) w^(k-m-l) is sum_word(k, m, l)."""
    b = _Blocks(order)
    return _zeta_base(b) * divide(b.lin("xw", "yv"), b.lin("xw"))


def conjecture_lhs_split_form(order: int) -> Series3:
    """The equivalent split form x/(1-xu)y + x/(1-xu)y 1/(1-xw-yv) yv."""
    b = _Blocks(order)
    head = _zeta_base(b)
    return head + head * divide(b.lin("xw", "yv"), b.y * b.v)


def duality_k1_lhs(order: int) -> Series3:
    """x/(1-xu) y 1/(1-xw-yv) y - x 1/(1-xv-yw) x y/(1-yu)."""
    b = _Blocks(order)
    t1 = _zeta_base(b) * divide(b.lin("xw", "yv"), b.y)
    t2 = b.x * divide(b.lin("xv", "yw"), _xy_over_yu(b))
    return t1 - t2


def duality_gf(order: int) -> Series3:
    """Full generating function of (1-tau)(sum_word): the depth-1 part plus
    v times the higher-depth part."""
    b = _Blocks(order)
    head = _zeta_base(b) - _xy_over_yu(b)
    return head + duality_k1_lhs(order) * b.v


# -- the main identities ----------------------------------------------

def _inner1(b: _Blocks) -> Series3:
    """x 1/kernel y 1/(1-xw) (1-xw-yw): (Delta_v - Delta_w) of it is the
    numerator of the k1 identity. Grouped per Delta variable (_Blocks)."""
    tail = divide(b.lin("xw"), b.lin("xw", "yw"))
    if b.var == "v":
        return (b.x * divide(b.kernel(), b.y)) * tail
    return b.x * divide(b.kernel(), b.y * tail)


def _inner2(b: _Blocks) -> Series3:
    """x 1/(kernel-yw) (1-xu-yu) x/(1-xu) y: the (1 - Delta_u) term of the
    k1 identity. Grouped per Delta variable (_Blocks)."""
    if b.var == "u":
        return (b.x * divide(b.kernel("yw"), b.lin("xu", "yu"))) * _zeta_base(b)
    return b.x * divide(b.kernel("yw"), (b.lin("xu", "yu") * b.x) * divide(b.lin("xu"), b.y))


def verify_duality_zeta(order: int) -> IdentityReport:
    """Check x/(1-xu)y - x y/(1-yu) = (1 - Delta_u)(x/(1-xu)y) up to the
    given order, exactly."""
    if order < 1:
        raise ValueError("order must be >= 1")
    b = _Blocks(order)
    base = _zeta_base(b)
    lhs = base - _xy_over_yu(b)
    rhs = base - _zeta_base(_Blocks(order, "u"))
    return compare_series("duality-zeta", lhs, rhs)


def _k1_numerator(order: int) -> Series3:
    """The (Delta_v - Delta_w) numerator of the k1 identity's right-hand
    side, still to be divided by (v-w)."""
    return _inner1(_Blocks(order, "v")) - _inner1(_Blocks(order, "w"))


def _k1_rest(order: int) -> Series3:
    """The (1 - Delta_u) term of the k1 identity's right-hand side."""
    return _inner2(_Blocks(order)) - _inner2(_Blocks(order, "u"))


def verify_duality_k1(order: int) -> IdentityReport:
    """Check the three-variable identity for the fixed-k1 sums up to
    order-1 (one order lost to the (v-w) division).

    When (v-w) does not divide the numerator, the report names the first
    nonzero monomial of its w=v diagonal and that coefficient.

    The numerator is divided, and dropped, before the rest and the lhs
    are built directly at order-1 (only the numerator needs the extra
    degree), so the two are never held together."""
    if order < 1:
        raise ValueError("order must be >= 1")
    try:
        quotient = divide_by_v_minus_w(_k1_numerator(order))
    except NotDivisibleError as err:
        return IdentityReport(
            "duality-k1", order - 1, False, err.monomial, err.coeff.render()
        )
    rhs = quotient + _k1_rest(order - 1)
    return compare_series("duality-k1", duality_k1_lhs(order - 1), rhs)


def verify_proof_steps(order: int) -> list[IdentityReport]:
    """The four Delta-lemmas and the closing algebraic identity, each as an
    exact truncated-series equality."""
    if order < 2:
        raise ValueError("order must be >= 2")
    b, bu = _Blocks(order), _Blocks(order, "u")
    kernel_w = b.kernel("yw")
    return [
        compare_series(
            "lemma-1: Delta_u(1-xu)",
            bu.lin("xu"),
            divide(b.lin("yu"), b.lin("xu", "yu"), left=False),
        ),
        compare_series(
            "lemma-2: Delta_u(kernel-yw)",
            bu.kernel("yw"),
            divide(b.lin("yu"), b.lin("xu", "yu") * b.lin("xv", "yw"), left=False),
        ),
        compare_series(
            "lemma-3: Delta_v(kernel)",
            _Blocks(order, "v").kernel(),
            divide(b.lin("yv"), b.lin("xv", "yv") * b.lin("xu"), left=False),
        ),
        compare_series(
            "lemma-4: Delta_w(kernel)",
            _Blocks(order, "w").kernel(),
            divide(b.lin("yw"), kernel_w, left=False),
        ),
        compare_series(
            "closing identity",
            divide(b.lin("xu"), (b.v - b.w) * b.lin("xu", "yu") * b.x, left=False)
            - b.lin("xw", "yw"),
            -divide(b.lin("xu"), kernel_w, left=False),
        ),
    ]


def lemma2_swapped_control(order: int) -> IdentityReport:
    """Negative control: lemma 2 with the two noncommuting factors permuted.
    Expected to FAIL; below order 2 the factors agree, so it is refused."""
    if order < 2:
        raise ValueError("order must be >= 2")
    b = _Blocks(order)
    return compare_series(
        "lemma-2 swapped factors (negative control)",
        _Blocks(order, "u").kernel("yw"),
        divide(b.lin("yu"), b.lin("xv", "yw") * b.lin("xu", "yu"), left=False),
    )
