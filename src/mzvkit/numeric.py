"""Floating-point evaluation of the Z-map: partial sums of the nested
Dirichlet series with explicit (crude) tail bounds.

This layer is a sanity net for the symbolic results, not a precision
instrument; everything is double precision with a fixed summation order,
so results are deterministic for a fixed cutoff.

One entry point, z_eval (zeta_eval is z_eval of one word), sums and
checks the tail bounds first, so an index whose bound overflows is refused
before any partial sum is taken. One kernel then takes the distinct
reversed indices in sorted order; each recomputes only the depths past the
prefix it shares with the one before, so each distinct suffix
(k_j, ..., k_d) is computed once, from its parent's buffer. The powers
n^-k are computed once per distinct part, and each depth writes into one
reused buffer. Memory is therefore about (max depth + distinct parts + 1)
arrays of cutoff + 1 floats, whatever the number of indices. Every
per-index value is the same float as the one-index nested cumulative sum
gives. The cutoff must be at least 1 and at least the largest depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .maps import index_to_word, is_admissible_index, word_to_index
from .ncpoly import NcPoly


@dataclass
class EvalResult:
    value: float
    cutoff: int
    tail_bound: float


def zeta_tail_bound(parts, m: int) -> float:
    """Crude logarithmic bound on the truncation error of the outer sum.

    Each of the d-1 inner sums is at most H_{m1-1} <= 1 + ln(m1), so the
    tail is bounded by the integral of (1 + ln t)^(d-1) t^(-k1) over
    t > M, evaluated exactly by parts:

        I_j = (1 + ln M)^j M^(1-k1)/(k1-1) + j/(k1-1) * I_{j-1}.

    The leading term is (1 + ln M)^(d-1) M^(1-k1)/(k1-1); the lower-order
    terms are needed for this to be a true upper bound.
    """
    k1, d = parts[0], len(parts)
    head = m ** (1 - k1) / (k1 - 1)
    acc = head  # I_0
    log1 = 1.0 + math.log(m)
    for j in range(1, d):
        acc = head * log1 ** j + j * acc / (k1 - 1)
    return acc


def _partial_sums(indices, m: int) -> dict:
    """Partial sums over m1 <= m of every index in `indices`, as a dict
    index -> float: cumulative sums from the innermost part outward, one
    pass over the sorted reversed indices (cost O(m) per distinct suffix)."""
    # imported here so that commands which never evaluate do not load numpy
    import numpy as np

    suffixes = sorted({parts[::-1] for parts in indices})
    depth = max(map(len, suffixes), default=0)
    if m < depth:
        raise ValueError("cutoff smaller than depth")
    idx = np.arange(m + 1, dtype=np.float64)
    idx[0] = 1.0  # avoid 0**-k; slot 0 is zeroed below
    powers = {}
    for k in {k for rev in suffixes for k in rev}:
        powers[k] = idx ** float(-k)
        powers[k][0] = 0.0
    del idx
    # bufs[d] holds the nested sum of prev[:d + 1], for d < len(prev)
    bufs = [np.empty(m + 1) for _ in range(depth)]
    sums = {}
    prev = ()
    for rev in suffixes:
        shared = 0
        while shared < len(prev) and prev[shared] == rev[shared]:
            shared += 1
        for d in range(shared, len(rev)):
            buf = bufs[d]
            if d == 0:
                np.cumsum(powers[rev[0]], out=buf)
            else:
                # inner indices strictly below the current one
                np.multiply(powers[rev[d]][1:], bufs[d - 1][:-1], out=buf[1:])
                buf[0] = 0.0
                np.cumsum(buf, out=buf)
        sums[rev[::-1]] = float(bufs[len(rev) - 1][-1])
        prev = rev
    return sums


def zeta_eval(parts, m: int) -> EvalResult:
    """Partial sum of zeta(k1,...,kd) over m1 <= m: z_eval of its word."""
    parts = tuple(parts)
    if not is_admissible_index(parts):
        raise ValueError(
            f"divergent series: index {parts} needs k1 >= 2 and every part >= 1"
        )
    return z_eval(NcPoly.word(index_to_word(parts)), m)


def z_eval(p: NcPoly, m: int) -> EvalResult:
    """Z extended linearly: constant term maps to its scalar, each admissible
    word to its zeta value; tail bounds add with |coeff| weights. A tail
    bound that overflows double precision is a ValueError, raised before
    any partial sum is taken; so is a value that overflows."""
    if not p.admissible_support():
        raise ValueError("outside domain of Z: support not admissible")
    if m < 1:
        raise ValueError(f"cutoff must be at least 1, got {m}")
    try:
        terms = [(word_to_index(w) if w else None, float(c)) for w, c in p.items()]
    except OverflowError:
        raise ValueError("a coefficient does not fit in a float") from None
    tail = 0.0
    try:
        for parts, c in terms:
            if parts:
                tail += abs(c) * zeta_tail_bound(parts, m)
    except OverflowError:
        tail = math.inf
    if not math.isfinite(tail):
        raise ValueError(
            f"tail bound overflows double precision at cutoff {m}:"
            " an index is too deep or a coefficient too large for a bound"
        )
    sums = _partial_sums([parts for parts, _ in terms if parts], m)
    value = 0.0
    for parts, c in terms:
        value += c if parts is None else c * sums[parts]
    if not math.isfinite(value):
        raise ValueError(
            f"Z-value overflows double precision (value {value}, tail bound {tail}):"
            " a coefficient is too large"
        )
    return EvalResult(value, m, tail)
