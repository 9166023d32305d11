"""Floating-point evaluation of the Z-map: partial sums of the nested
Dirichlet series with explicit (crude) tail bounds.

This layer is a sanity net for the symbolic results, not a precision
instrument; everything is double precision with a fixed summation order,
so results are deterministic for a fixed cutoff.

One entry point, z_eval (zeta_eval is z_eval of one word), refuses any
input before numpy loads: a cutoff below 1 or below the largest depth,
partial sums of more than MAX_SUM_TERMS terms (cutoff + 1 for each node of
the trie of reversed indices, checked for the deepest index before the
trie is built and for the whole trie after), then a tail bound that
overflows. One kernel then walks n = 1..cutoff in blocks of BLOCK values.
In each block it computes the powers n^-k once per distinct part, then
sums each trie node once from its parent's values, so indices that share a
suffix (k_j, ..., k_d) share its sums. A step sums two nodes in the real
and imaginary lanes of one complex buffer, which is reused once no waiting
node reads it. Each node carries its last sum into slot 0 of the next
block, so every per-index value is the same float as the one-index,
full-length nested cumulative sum gives. Memory is about (buffers +
distinct parts) arrays of BLOCK values, with at most max depth buffers,
whatever the cutoff and the number of indices.
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


# values of n summed at a time: a complex buffer of BLOCK + 1 entries
# and the block's powers stay in a core's L2 cache
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
    terms are needed for this to bound the truncation error. It covers
    truncation only, not the rounding of the double-precision sums: the
    Z-value of an exact zero can exceed it (duality_target(9, 5, 4) at
    M = 200000 gives 4.95e-17 against a bound of 5.13e-18).
    """
    k1, d = parts[0], len(parts)
    head = m ** (1 - k1) / (k1 - 1)
    acc = head  # I_0
    log1 = 1.0 + math.log(m)
    for j in range(1, d):
        acc = head * log1 ** j + j * acc / (k1 - 1)
    return acc


def _schedule(indices):
    """The trie of the reversed indices, as a list of steps that each fill
    the two lanes (real, imaginary) of one complex buffer.

    A step is (out, lane_a, lane_b): out is the buffer it writes, and each
    lane is (src, part), where src is the (buffer, 0 real | 1 imaginary)
    lane that holds the node's parent, or None for the root, whose lane
    sums the powers themselves. lane_b is None when only one node waits.

    A node whose parent has been summed waits on one stack, and each step
    sums the top two into a buffer from a free list, or a new one. The
    buffer counts the waiting nodes whose parent it holds, and goes back
    on the list at 0. The parents' counts drop after out is chosen, so no
    lane reads the buffer its own step writes.

    At most max depth buffers are made. A live buffer (count > 0) holds
    the parents of one run of the stack, and by induction the i-th from
    the bottom holds nodes at least i deep: a step's nodes are children
    of the top two runs' buffers, and its own buffer goes just above the
    live ones left. A new buffer is made only when all are live, and the
    top node is then at least one deeper than their number.

    Returns the steps, the number of nodes, and index -> (step, lane) of
    its node."""
    ids, leaf = {}, {}  # (parent node, part) -> node; the root is node 0
    for parts in indices:
        node = 0
        for k in reversed(parts):
            node = ids.setdefault((node, k), len(ids) + 1)
        leaf[parts] = node
    children = {}
    for (parent, k), node in sorted(ids.items()):
        children.setdefault(parent, []).append((k, node))

    steps, where = [], {}
    # (src, part, node) per waiting node; waiting[b]: those whose parent is in b
    ready = [(None, k, node) for k, node in reversed(children.get(0, []))]
    waiting, free = {}, []
    while ready:
        pair = [ready.pop() for _ in range(min(2, len(ready)))]
        out = free.pop() if free else len(waiting)
        for j in [src[0] for src, _, _ in pair if src]:
            waiting[j] -= 1
            if not waiting[j]:
                free.append(j)
        where.update({node: (len(steps), lane) for lane, (_, _, node) in enumerate(pair)})
        steps.append((out, pair[0][:2], pair[1][:2] if len(pair) == 2 else None))
        kids = [((out, lane), k, kid) for lane in reversed(range(len(pair)))
                for k, kid in reversed(children.get(pair[lane][2], []))]
        ready += kids
        waiting[out] = len(kids)
        if not kids:
            free.append(out)
    return steps, len(ids), {parts: where[node] for parts, node in leaf.items()}


def _partial_sums(schedule, m: int) -> dict:
    """Partial sums over m1 <= m of every index of a _schedule, as a dict
    index -> float: cumulative sums from the innermost part outward along
    the trie of the reversed indices, BLOCK values of n at a time, two
    nodes per complex cumulative sum (cost O(m) per step). Each lane is
    its parent's lane times the powers, summed in order with the carry in
    slot 0, and the real and imaginary parts add independently, so every
    value is the float that one index's own nested sums give. The caller
    has checked m against the depth and the work bound."""
    # imported here so that commands which never evaluate do not load numpy
    import numpy as np

    steps, _, where = schedule
    if not steps:
        return {}
    distinct = {lane[1] for _, *lanes in steps for lane in lanes if lane}
    # slot 0 of a buffer holds its step's sums up to n = start - 1, slot
    # 1 + i the sums up to n = start + i
    bufs = [np.empty(min(BLOCK, m) + 1, dtype=np.complex128)
            for _ in range(1 + max(out for out, _, _ in steps))]
    carry = [0j] * len(steps)
    powers = {}
    for start in range(1, m + 1, BLOCK):
        n = min(BLOCK, m + 1 - start)
        x = np.arange(start, start + n, dtype=np.float64)
        powers.clear()  # free the last block's powers before making these
        for k in distinct:
            powers[k] = x ** float(-k)
        for i, (out, a, b) in enumerate(steps):
            buf = bufs[out][:n + 1]
            buf[0] = carry[i]
            for lane, half in ((a, buf.real), (b, buf.imag)):
                if lane is None:
                    half[1:] = 0.0
                    continue
                src, k = lane
                if src is None:
                    up = 1.0  # the empty index: 1 at every n
                else:
                    j, im = src
                    up = (bufs[j].imag if im else bufs[j].real)[:n]
                # inner indices strictly below the current one
                np.multiply(powers[k], up, out=half[1:])
            np.cumsum(buf, out=buf)
            carry[i] = buf[n]
    sums = {}
    for parts, (i, lane) in where.items():
        sums[parts] = float(carry[i].imag if lane else carry[i].real)
    return sums


def _check_work(nodes: int, m: int):
    """Refuse nodes nested sums of m + 1 terms past MAX_SUM_TERMS in all."""
    if (m + 1) * nodes > MAX_SUM_TERMS:
        raise ValueError(f"{nodes} nested sums of {m + 1} terms: more than "
                         f"{MAX_SUM_TERMS} terms in all")


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
    depth = max(map(len, indices), default=0)
    if m < depth:
        raise ValueError("cutoff smaller than depth")
    # an index of depth d puts d nodes on the trie, so the deepest is
    # checked before the trie is built
    _check_work(depth, m)
    schedule = _schedule(indices)
    _check_work(schedule[1], m)
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
