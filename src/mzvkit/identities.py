"""Generating functions for the fixed (weight, depth, k1) sums and exact
truncated-series verification of the two main identities and their proof
lemmas."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ncpoly import NcPoly, X, Y
from .series import (
    Series3,
    delta_on_series,
    divide_by_v_minus_w,
    geometric_inverse,
)


@dataclass(frozen=True)
class SumSpec:
    """Parameters (k, m, l) of one fixed weight/depth/k1 sum."""

    k: int
    m: int
    l: int

    def __post_init__(self):
        if self.k < 1 or self.m < 1 or self.l < 1:
            raise ValueError("k, m, l must be positive")

    @property
    def valid(self) -> bool:
        return self.k >= self.m + self.l


@dataclass
class IdentityReport:
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
    """Subtract and test for the zero series; localize the first failure
    in (total degree, a, b, c) order."""
    diff = lhs - rhs
    if diff.is_zero():
        return IdentityReport(name, diff.order, True)
    m = diff.first_nonzero()
    return IdentityReport(name, diff.order, False, m, diff.coeff(m).render())


# -- the sums and their generating function ---------------------------

def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def sum_word(k: int, m: int, l: int) -> NcPoly:
    """Sum of x^m y x^(a1) y ... x^(a_{l-1}) y over compositions
    a1+...+a_{l-1} = k-m-l; the word-side sum at fixed weight k,
    depth l and leading exponent m."""
    if k < m + l:
        raise ValueError("empty index range: need k >= m + l")
    words = []
    for comp in compositions(k - m - l, l - 1):
        words.append(X * m + Y + "".join(X * a + Y for a in comp))
    return NcPoly((w, Fraction(1)) for w in words)


# -- series building blocks -------------------------------------------

def _blocks(order: int):
    one = Series3.scalar(1, order)
    xp = Series3.from_poly(NcPoly.word(X), order)
    yp = Series3.from_poly(NcPoly.word(Y), order)
    s = {
        "1": one,
        "x": xp,
        "y": yp,
        "xu": Series3.single(NcPoly.word(X), (1, 0, 0), order),
        "xv": Series3.single(NcPoly.word(X), (0, 1, 0), order),
        "xw": Series3.single(NcPoly.word(X), (0, 0, 1), order),
        "yu": Series3.single(NcPoly.word(Y), (1, 0, 0), order),
        "yv": Series3.single(NcPoly.word(Y), (0, 1, 0), order),
        "yw": Series3.single(NcPoly.word(Y), (0, 0, 1), order),
        # (x^2 + yx) uv, the kernel's mixed term
        "x2yx_uv": Series3.single(
            NcPoly.word(X + X) + NcPoly.word(Y + X), (1, 1, 0), order
        ),
        "v": Series3.single(NcPoly.one(), (0, 1, 0), order),
        "w": Series3.single(NcPoly.one(), (0, 0, 1), order),
    }
    return s


def conjecture_lhs_series(order: int) -> Series3:
    """x/(1-xu) y 1/(1-xw-yv) (1-xw): the generating function whose
    coefficient at u^(m-1) v^(l-1) w^(k-m-l) is sum_word(k, m, l)."""
    b = _blocks(order)
    return (
        b["x"]
        * geometric_inverse(b["1"] - b["xu"])
        * b["y"]
        * geometric_inverse(b["1"] - b["xw"] - b["yv"])
        * (b["1"] - b["xw"])
    )


def conjecture_lhs_split_form(order: int) -> Series3:
    """The equivalent split form x/(1-xu)y + x/(1-xu)y 1/(1-xw-yv) yv."""
    b = _blocks(order)
    head = b["x"] * geometric_inverse(b["1"] - b["xu"]) * b["y"]
    return head + head * geometric_inverse(b["1"] - b["xw"] - b["yv"]) * b["yv"]


def duality_k1_lhs(order: int) -> Series3:
    """x/(1-xu) y 1/(1-xw-yv) y - x 1/(1-xv-yw) x y/(1-yu)."""
    b = _blocks(order)
    t1 = (
        b["x"]
        * geometric_inverse(b["1"] - b["xu"])
        * b["y"]
        * geometric_inverse(b["1"] - b["xw"] - b["yv"])
        * b["y"]
    )
    t2 = (
        b["x"]
        * geometric_inverse(b["1"] - b["xv"] - b["yw"])
        * b["x"]
        * b["y"]
        * geometric_inverse(b["1"] - b["yu"])
    )
    return t1 - t2


def duality_gf(order: int) -> Series3:
    """Full generating function of (1-tau)(sum_word): the depth-1 part plus
    v times the higher-depth part."""
    b = _blocks(order)
    head = (
        b["x"] * geometric_inverse(b["1"] - b["xu"]) * b["y"]
        - b["x"] * b["y"] * geometric_inverse(b["1"] - b["yu"])
    )
    return head + duality_k1_lhs(order) * b["v"]


# -- the main identities ----------------------------------------------

def verify_duality_zeta(order: int) -> IdentityReport:
    """Check x/(1-xu)y - x y/(1-yu) = (1 - Delta_u)(x/(1-xu)y) up to the
    given order, exactly."""
    b = _blocks(order)
    base = b["x"] * geometric_inverse(b["1"] - b["xu"]) * b["y"]
    lhs = base - b["x"] * b["y"] * geometric_inverse(b["1"] - b["yu"])
    rhs = base - delta_on_series("u", base)
    return compare_series("duality-zeta", lhs, rhs)


def _k1_kernel_uv(b) -> Series3:
    """1 - xu - xv + (x^2 + yx)uv."""
    return b["1"] - b["xu"] - b["xv"] + b["x2yx_uv"]


def _rhs_duality_k1_parts(order: int) -> tuple[Series3, Series3]:
    """The right-hand side as (numerator, rest): the (Delta_v - Delta_w)
    numerator, still to be divided by (v-w), and the (1 - Delta_u) term at
    order-1."""
    b = _blocks(order)
    kernel = _k1_kernel_uv(b)
    inner1 = (
        b["x"]
        * geometric_inverse(kernel)
        * b["y"]
        * geometric_inverse(b["1"] - b["xw"])
        * (b["1"] - b["xw"] - b["yw"])
    )
    numerator = delta_on_series("v", inner1) - delta_on_series("w", inner1)
    inner2 = (
        b["x"]
        * geometric_inverse(kernel - b["yw"])
        * (b["1"] - b["xu"] - b["yu"])
        * b["x"]
        * geometric_inverse(b["1"] - b["xu"])
        * b["y"]
    )
    return numerator, (inner2 - delta_on_series("u", inner2)).truncate(order - 1)


def _rhs_duality_k1(order: int) -> Series3:
    """The right-hand side: the (Delta_v - Delta_w)/(v-w) divided difference
    plus the (1 - Delta_u) term, at order-1."""
    numerator, rest = _rhs_duality_k1_parts(order)
    return divide_by_v_minus_w(numerator) + rest


def verify_duality_k1(order: int) -> IdentityReport:
    """Check the three-variable identity for the fixed-k1 sums up to
    order-1 (one order lost to the (v-w) division).

    When (v-w) does not divide the numerator, the report names the first
    nonzero monomial of its w=v diagonal and that coefficient."""
    if order < 1:
        raise ValueError("order must be >= 1")
    numerator, rest = _rhs_duality_k1_parts(order)
    diagonal = numerator.diagonal_vw()
    if not diagonal.is_zero():
        m = diagonal.first_nonzero()
        return IdentityReport(
            "duality-k1", order - 1, False, m, diagonal.coeff(m).render()
        )
    lhs = duality_k1_lhs(order).truncate(order - 1)
    return compare_series("duality-k1", lhs, divide_by_v_minus_w(numerator) + rest)


def verify_proof_steps(order: int) -> list[IdentityReport]:
    """The four Delta-lemmas and the closing algebraic identity, each as an
    exact truncated-series equality."""
    if order < 2:
        raise ValueError("order must be >= 2")
    b = _blocks(order)
    kernel = _k1_kernel_uv(b)
    kernel_w = kernel - b["yw"]
    inv_yu = geometric_inverse(b["1"] - b["yu"])
    reports = [
        compare_series(
            "lemma-1: Delta_u(1-xu)",
            delta_on_series("u", b["1"] - b["xu"]),
            (b["1"] - b["xu"] - b["yu"]) * inv_yu,
        ),
        compare_series(
            "lemma-2: Delta_u(kernel-yw)",
            delta_on_series("u", kernel_w),
            (b["1"] - b["xu"] - b["yu"]) * (b["1"] - b["xv"] - b["yw"]) * inv_yu,
        ),
        compare_series(
            "lemma-3: Delta_v(kernel)",
            delta_on_series("v", kernel),
            (b["1"] - b["xv"] - b["yv"])
            * (b["1"] - b["xu"])
            * geometric_inverse(b["1"] - b["yv"]),
        ),
        compare_series(
            "lemma-4: Delta_w(kernel)",
            delta_on_series("w", kernel),
            kernel_w * geometric_inverse(b["1"] - b["yw"]),
        ),
        compare_series(
            "closing identity",
            (b["v"] - b["w"])
            * (b["1"] - b["xu"] - b["yu"])
            * b["x"]
            * geometric_inverse(b["1"] - b["xu"])
            - (b["1"] - b["xw"] - b["yw"]),
            -(kernel_w * geometric_inverse(b["1"] - b["xu"])),
        ),
    ]
    return reports


def lemma2_swapped_control(order: int) -> IdentityReport:
    """Negative control: lemma 2 with the two noncommuting factors permuted.
    Expected to FAIL."""
    b = _blocks(order)
    kernel_w = _k1_kernel_uv(b) - b["yw"]
    return compare_series(
        "lemma-2 swapped factors (negative control)",
        delta_on_series("u", kernel_w),
        (b["1"] - b["xv"] - b["yw"])
        * (b["1"] - b["xu"] - b["yu"])
        * geometric_inverse(b["1"] - b["yu"]),
    )
