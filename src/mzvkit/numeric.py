"""Floating-point evaluation of the Z-map: partial sums of the nested
Dirichlet series with explicit (crude) tail bounds.

This layer is a sanity net for the symbolic results, not a precision
instrument; everything is double precision with a fixed summation order,
so results are deterministic for a fixed cutoff.

One entry point, z_eval (zeta_eval is z_eval of one word), refuses any
input before numpy loads: a cutoff below 1 or below the largest depth,
partial sums of more than MAX_SUM_TERMS terms (cutoff + 1 for each node of
the trie of reversed indices), then a tail bound that overflows. One
kernel then walks n = 1..cutoff in blocks of BLOCK values. In each block
it computes the powers n^-k once per distinct part, then walks the trie
depth-first, so each distinct suffix (k_j, ..., k_d) is summed once, from
its parent's values. Two sibling nodes share one complex buffer per
depth, as its real and imaginary lanes, so one complex cumulative sum
advances both. Each node carries its last sum into slot 0 of the next
block, so every per-index value is the same float as the one-index,
full-length nested cumulative sum gives. Memory is about (max depth +
distinct parts) arrays of BLOCK values, whatever the cutoff and the number
of indices.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .maps import index_to_word, is_admissible_index, word_to_index
from .ncpoly import NcPoly


class EvalResult(NamedTuple):
    value: float
    cutoff: int
    tail_bound: float


# values of n summed at a time: a depth's complex buffer of BLOCK + 1
# entries and the block's powers stay in a core's L2 cache
BLOCK = 16384
# z_eval refuses an input whose partial sums would take more than this many
# terms: cutoff + 1 per node of the trie of reversed indices
MAX_SUM_TERMS = 10**10


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


def _schedule(indices):
    """The trie of the reversed indices, as a pre-order list of steps with
    one step per pair of sibling nodes.

    A step (depth, lane, part_a, part_b) fills the two lanes of the
    depth's buffer with two siblings; part_b is None for an odd one. Their
    parent sits in `lane` (0 real, 1 imaginary) of the buffer one depth up,
    or is the root when `lane` is None. Pre-order keeps a parent's buffer
    in place until all its descendants are done. Returns the steps, the
    number of nodes, and index -> (step, lane) of its node."""
    ids, leaf = {}, {}  # (parent node, part) -> node; the root is node 0
    for parts in indices:
        node = 0
        for k in reversed(parts):
            node = ids.setdefault((node, k), len(ids) + 1)
        leaf[parts] = node
    children = {}
    for (parent, k), node in sorted(ids.items()):
        children.setdefault(parent, []).append((k, node))

    def pairs(node, depth, lane):
        kids = children.get(node, [])
        return [(depth, lane, kids[i:i + 2]) for i in range(0, len(kids), 2)]

    steps, where = [], {}
    # an explicit stack, so that depth is not bound by the recursion limit
    stack = pairs(0, 0, None)[::-1]
    while stack:
        depth, lane, pair = stack.pop()
        for i, (_, node) in enumerate(pair):
            where[node] = (len(steps), i)
        steps.append((depth, lane, pair[0][0], pair[1][0] if len(pair) == 2 else None))
        for i in reversed(range(len(pair))):
            stack.extend(pairs(pair[i][1], depth + 1, i)[::-1])
    return steps, len(ids), {parts: where[node] for parts, node in leaf.items()}


def _partial_sums(schedule, m: int) -> dict:
    """Partial sums over m1 <= m of every index of a _schedule, as a dict
    index -> float: cumulative sums from the innermost part outward along
    the trie of the reversed indices, BLOCK values of n at a time, two
    sibling nodes per complex cumulative sum (cost O(m) per pair). The
    caller has checked m against the depth and the work bound."""
    # imported here so that commands which never evaluate do not load numpy
    import numpy as np

    steps, _, where = schedule
    if not steps:
        return {}
    depth = 1 + max(d for d, *_ in steps)
    distinct = {k for _, _, ka, kb in steps for k in (ka, kb) if k is not None}
    # slot 0 of a depth's buffer holds its pair's sums up to n = start - 1,
    # slot 1 + i the sums up to n = start + i
    bufs = [np.empty(min(BLOCK, m) + 1, dtype=np.complex128) for _ in range(depth)]
    carry = [0j] * len(steps)
    powers = {}
    for start in range(1, m + 1, BLOCK):
        n = min(BLOCK, m + 1 - start)
        x = np.arange(start, start + n, dtype=np.float64)
        powers.clear()  # free the last block's powers before making these
        for k in distinct:
            powers[k] = x ** float(-k)
        for i, (d, lane, ka, kb) in enumerate(steps):
            buf = bufs[d][:n + 1]
            if lane is None:
                up = 1.0  # the empty index: 1 at every n
            else:
                up = (bufs[d - 1].imag if lane else bufs[d - 1].real)[:n]
            buf[0] = carry[i]
            # inner indices strictly below the current one
            np.multiply(powers[ka], up, out=buf.real[1:])
            if kb is None:
                buf.imag[1:] = 0.0
            else:
                np.multiply(powers[kb], up, out=buf.imag[1:])
            np.cumsum(buf, out=buf)
            carry[i] = buf[n]
    sums = {}
    for parts, (i, lane) in where.items():
        sums[parts] = float(carry[i].imag if lane else carry[i].real)
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
    word to its zeta value; tail bounds add with |coeff| weights. Each
    refusal is a ValueError, and all but an overflowing value come before
    numpy loads, in the order of the checks below."""
    if not p.admissible_support():
        raise ValueError("outside domain of Z: support not admissible")
    if m < 1:
        raise ValueError(f"cutoff must be at least 1, got {m}")
    try:
        terms = [(word_to_index(w) if w else None, float(c)) for w, c in p.items()]
    except OverflowError:
        raise ValueError("a coefficient does not fit in a float") from None
    indices = [parts for parts, _ in terms if parts]
    if m < max(map(len, indices), default=0):
        raise ValueError("cutoff smaller than depth")
    schedule = _schedule(indices)
    nodes = schedule[1]
    if (m + 1) * nodes > MAX_SUM_TERMS:
        raise ValueError(f"{nodes} nested sums of {m + 1} terms: more than "
                         f"{MAX_SUM_TERMS} terms in all")
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
    sums = _partial_sums(schedule, m)
    value = 0.0
    for parts, c in terms:
        value += c if parts is None else c * sums[parts]
    if not math.isfinite(value):
        raise ValueError(
            f"Z-value overflows double precision (value {value}, tail bound {tail}):"
            " a coefficient is too large"
        )
    return EvalResult(value, m, tail)
