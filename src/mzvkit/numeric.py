"""Floating-point evaluation of the Z-map: partial sums of the nested
Dirichlet series with explicit (crude) tail bounds.

This layer is a sanity net for the symbolic results, not a precision
instrument; everything is double precision with a fixed summation order,
so results are deterministic for a fixed cutoff.

One kernel evaluates every index of a combination in a single pass. The
indices go, reversed, into a suffix trie, so indices that share their
inner parts (k_j, ..., k_d) share a node, and each node's cumulative sum
is computed once. The powers n^-k are computed once per distinct part,
and each trie depth writes into one reused buffer. Memory is therefore
about (max depth + distinct parts + 1) arrays of cutoff + 1 floats,
whatever the number of indices. Every per-index value is the same float
as the one-index nested cumulative sum gives. The cutoff must be at least
1 and at least the largest depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .maps import is_admissible_index, word_to_index
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
    index -> float: cumulative sums from the innermost part outward along
    a suffix trie of the indices (cost O(m) per distinct suffix)."""
    # imported here so that commands which never evaluate do not load numpy
    import numpy as np

    if m < 1:
        raise ValueError(f"cutoff must be at least 1, got {m}")
    trie: dict = {}
    for parts in indices:
        if m < len(parts):
            raise ValueError("cutoff smaller than depth")
        node = trie
        for k in reversed(parts):
            node = node.setdefault(k, {})
        node[None] = parts
    idx = np.arange(m + 1, dtype=np.float64)
    idx[0] = 1.0  # avoid 0**-k; slot 0 is zeroed below
    powers = {}
    for k in {k for parts in indices for k in parts}:
        powers[k] = idx ** float(-k)
        powers[k][0] = 0.0
    del idx
    depth = max((len(parts) for parts in indices), default=0)
    bufs = [np.empty(m + 1) for _ in range(depth)]
    sums = {}

    def walk(node, d):
        for k, child in node.items():
            if k is None:
                continue
            buf = bufs[d]
            if d == 0:
                np.cumsum(powers[k], out=buf)
            else:
                # inner indices strictly below the current one
                np.multiply(powers[k][1:], bufs[d - 1][:-1], out=buf[1:])
                buf[0] = 0.0
                np.cumsum(buf, out=buf)
            if None in child:
                sums[child[None]] = float(buf[-1])
            walk(child, d + 1)

    walk(trie, 0)
    return sums


def zeta_eval(parts, m: int) -> EvalResult:
    """Partial sum of zeta(k1,...,kd) over m1 <= m, by cumulative sums
    from the innermost index outward (cost O(m * depth))."""
    parts = tuple(parts)
    if not is_admissible_index(parts):
        raise ValueError(
            f"divergent series: index {parts} needs k1 >= 2 and every part >= 1"
        )
    value = _partial_sums([parts], m)[parts]
    return EvalResult(value, m, zeta_tail_bound(parts, m))


def z_eval(p: NcPoly, m: int) -> EvalResult:
    """Z extended linearly: constant term maps to its scalar, each admissible
    word to its zeta value; tail bounds add with |coeff| weights. A value
    or bound that overflows double precision is a ValueError."""
    if not p.admissible_support():
        raise ValueError("outside domain of Z: support not admissible")
    try:
        terms = [(word_to_index(w) if w else None, float(c)) for w, c in p.items()]
    except OverflowError:
        raise ValueError("a coefficient does not fit in a float") from None
    sums = _partial_sums([parts for parts, _ in terms if parts], m)
    value = 0.0
    tail = 0.0
    for parts, c in terms:
        if parts is None:
            value += c
            continue
        value += c * sums[parts]
        tail += abs(c) * zeta_tail_bound(parts, m)
    if not (math.isfinite(value) and math.isfinite(tail)):
        raise ValueError(
            f"Z-value overflows double precision (value {value}, tail bound {tail}):"
            " a coefficient is too large"
        )
    return EvalResult(value, m, tail)
