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
its parent's values. Each step fills the real and imaginary lanes of one
complex buffer with two nodes, so one complex cumulative sum advances
both. Nodes with children pair with their siblings in one buffer per
depth, which stays in place until their subtrees are done; leaves need
only their last sum, so they fill the lanes those pairs leave empty, or
pair with each other in one scratch buffer. Each node carries its last
sum into slot 0 of the next block, so every per-index value is the same
float as the one-index, full-length nested cumulative sum gives. Memory is
about (max depth + 1 + distinct parts) arrays of BLOCK values, whatever
the cutoff and the number of indices.
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

    A step is (out, lane_a, lane_b). Each lane is (src, part): src is the
    (depth, 0 real | 1 imaginary) lane that holds the node's parent, or
    None when the parent is the root, and the lane then sums the powers
    themselves. lane_b is None when it is left empty. out is the depth of
    the buffer the step writes, or None for the scratch buffer.

    Internal nodes (nodes with children) are paired with their siblings
    in pre-order, one buffer per depth, so a parent's buffer stays in
    place until its subtree is done. A leaf needs only its last value:
    the leaf children of a step's nodes go into a pool, and a step with
    one internal node takes a pooled leaf, the one whose parent sits
    deepest, into its second lane. Before a depth's buffer is written
    again, the leaves still pooled under it are paired with each other in
    scratch steps; an odd one takes another pooled leaf, whose parent is
    still in place. Returns the steps, the number of nodes, and index ->
    (step, lane) of its node."""
    ids, leaf = {}, {}  # (parent node, part) -> node; the root is node 0
    for parts in indices:
        node = 0
        for k in reversed(parts):
            node = ids.setdefault((node, k), len(ids) + 1)
        leaf[parts] = node
    children = {}
    for (parent, k), node in sorted(ids.items()):
        children.setdefault(parent, []).append((k, node))

    # a lane to fill is (src, part, node)
    steps, where = [], {}
    # (depth, one or two sibling internal nodes), an explicit stack, so
    # that depth is not bound by the recursion limit
    stack = []
    pool = {}  # depth of the buffer holding the parent (-1 root) -> leaves

    def emit(out, pair):
        for i, (_, _, node) in enumerate(pair):
            where[node] = (len(steps), i)
        steps.append((out, pair[0][:2], pair[1][:2] if len(pair) == 2 else None))

    def take():
        deepest = max(pool)  # the buffer to be written again soonest
        leaves = pool[deepest]
        leaf = leaves.pop()
        if not leaves:
            del pool[deepest]
        return leaf

    def flush(depth):
        leaves = pool.pop(depth, [])
        for i in range(0, len(leaves), 2):
            pair = leaves[i:i + 2]
            if len(pair) == 1 and pool:
                pair.append(take())
            emit(None, pair)

    def expand(depth, src, node):
        # node's children sit at depth; node itself in src, at depth - 1
        kids = [(src, k, kid) for k, kid in children.get(node, [])]
        inner = [lane for lane in kids if lane[2] in children]
        leaves = [lane for lane in kids if lane[2] not in children]
        if leaves:
            pool.setdefault(depth - 1, []).extend(leaves)
        stack.extend((depth, inner[i:i + 2]) for i in reversed(range(0, len(inner), 2)))

    expand(0, None, 0)
    while stack:
        depth, pair = stack.pop()
        flush(depth)
        if len(pair) == 1 and pool:
            pair.append(take())
        emit(depth, pair)
        for lane in reversed(range(len(pair))):
            expand(depth + 1, (depth, lane), pair[lane][2])
    while pool:
        flush(max(pool))
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
    depth = 1 + max((out for out, _, _ in steps if out is not None), default=-1)
    distinct = {lane[1] for _, *lanes in steps for lane in lanes if lane}
    # slot 0 of a buffer holds its step's sums up to n = start - 1, slot
    # 1 + i the sums up to n = start + i; the last is the scratch buffer
    bufs = [np.empty(min(BLOCK, m) + 1, dtype=np.complex128) for _ in range(depth + 1)]
    carry = [0j] * len(steps)
    powers = {}
    for start in range(1, m + 1, BLOCK):
        n = min(BLOCK, m + 1 - start)
        x = np.arange(start, start + n, dtype=np.float64)
        powers.clear()  # free the last block's powers before making these
        for k in distinct:
            powers[k] = x ** float(-k)
        for i, (out, a, b) in enumerate(steps):
            buf = bufs[-1 if out is None else out][:n + 1]
            buf[0] = carry[i]
            for lane, half in ((a, buf.real), (b, buf.imag)):
                if lane is None:
                    half[1:] = 0.0
                    continue
                src, k = lane
                if src is None:
                    up = 1.0  # the empty index: 1 at every n
                else:
                    d, im = src
                    up = (bufs[d].imag if im else bufs[d].real)[:n]
                # inner indices strictly below the current one
                np.multiply(powers[k], up, out=half[1:])
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
