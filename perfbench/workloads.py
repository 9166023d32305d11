"""The benchmark's workloads: the CLI arguments each one runs, the input it
generates from the seed, and the check its output must pass.

Importing this module needs `mzvkit` on `sys.path`; the checks use the
library's own trust anchors (`MembershipCertificate.verify` and
`duality_target`).
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy

from mzvkit.ncpoly import NcPoly
from mzvkit.span import MembershipCertificate, duality_target


class CheckFailed(Exception):
    """A child's output is not the correct answer."""


def corollary_cases(k: int) -> list[tuple[int, int]]:
    """The (m, l) pairs `verify corollary --weight k` certifies, in its order."""
    return [(m, l) for m in range(1, k) for l in range(1, k - m + 1)]


def check_reports(data, expected: list[tuple[str, int]]) -> dict:
    """Identity reports: exactly the expected (name, order) list, all passed."""
    got = [(r["name"], r["order"]) for r in data]
    if got != expected:
        raise CheckFailed(f"reports {got} differ from expected {expected}")
    failed = [r["name"] for r in data if r["passed"] is not True]
    if failed:
        raise CheckFailed(f"reports not passed: {failed}")
    return {}


def check_certificates(data, k: int) -> dict:
    """Corollary certificates: one per (m, l) case of weight k, each for the
    freshly computed target, each re-verifying by direct expansion."""
    got = [(e["k"], e["m"], e["l"]) for e in data]
    expected = [(k, m, l) for m, l in corollary_cases(k)]
    if got != expected:
        raise CheckFailed(f"certificate cases {got} differ from expected {expected}")
    terms = bits = 0
    verify_s = 0.0
    for e in data:
        cert = MembershipCertificate.from_dict(e["certificate"])
        if cert.target != duality_target(k, e["m"], e["l"]):
            raise CheckFailed(f"certificate ({e['m']}, {e['l']}) is for another target")
        start = time.perf_counter()
        ok = cert.verify()
        verify_s += time.perf_counter() - start
        if not ok:
            raise CheckFailed(f"certificate ({e['m']}, {e['l']}) does not verify")
        terms += len(cert.combination)
        for _, _, c in cert.combination:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return {
        "span.cert_terms": terms,
        "span.cert_coeff_bits": bits,
        "span.cert_verify_s": verify_s,
    }


def check_residual(data, cutoff: int, reference: tuple[float, float]) -> dict:
    """Numeric residual of an exact zero: finite, within its tail bound, and
    equal to the reference value (see `reference_residual`) up to rounding."""
    value = float(data["value"])
    bound = float(data["tail_bound"])
    if data["cutoff"] != cutoff:
        raise CheckFailed(f"cutoff {data['cutoff']} != {cutoff}")
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise CheckFailed(f"non-finite residual {value} or bound {bound}")
    if abs(value) > bound:
        raise CheckFailed(f"|residual| {abs(value)} exceeds tail bound {bound}")
    expected, scale = reference
    if abs(value - expected) > RESIDUAL_RTOL * scale:
        raise CheckFailed(f"residual {value!r} differs from the reference {expected!r}")
    return {"numeric.residual_abs": abs(value), "numeric.tail_bound": bound}


RESIDUAL_WEIGHTS = range(2, 11)
RESIDUAL_CUTOFF = 200000
# Rounding allowance, relative to the sum of |coeff * term| over the words.
RESIDUAL_RTOL = 1e-12
_COEFFS = [c for c in range(-9, 10) if c]


def residual_input(seed: int) -> NcPoly:
    """A seeded random nonzero integer combination of every duality target
    (1 - tau)(sum_word(k, m, l)) with k in RESIDUAL_WEIGHTS. Each target is
    zero as a real number, so its Z-value is pure truncation error."""
    rng = random.Random(seed)
    acc = NcPoly.zero()
    for k in RESIDUAL_WEIGHTS:
        for m, l in corollary_cases(k):
            acc = acc + duality_target(k, m, l).scale(rng.choice(_COEFFS))
    return acc


def word_parts(word: str) -> tuple[int, ...]:
    """The index (k1, ..., kd) of a word in x and y that ends in y: each y
    closes one part, one more than the number of x's before it."""
    return tuple(len(block) + 1 for block in word.split("y")[:-1])


def reference_residual(poly: NcPoly, cutoff: int) -> tuple[float, float]:
    """The Z-value of poly, truncated at `cutoff`, computed apart from
    `mzvkit.numeric`, and the sum of |coeff * term| that its rounding
    scales with. The nested partial sums are built innermost part first
    along a trie of the reversed indices, so words that share their inner
    parts share those sums."""
    n = numpy.arange(cutoff + 1, dtype=numpy.float64)
    n[0] = 1.0
    powers = {}
    trie: dict = {}
    terms = []
    for word, coeff in poly.items():
        if not word:
            terms.append(float(coeff))
            continue
        node = trie
        for k in reversed(word_parts(word)):
            node = node.setdefault(k, {})
        node[None] = coeff

    def walk(node, inner):
        for k, child in node.items():
            if k is None:
                continue
            if k not in powers:
                powers[k] = n ** float(-k)
                powers[k][0] = 0.0
            f = powers[k].copy()
            if inner is not None:
                f[1:] *= inner[:-1]  # inner indices strictly below this one
            partial = numpy.cumsum(f)
            if None in child:
                terms.append(float(child[None]) * float(partial[-1]))
            walk(child, partial)

    walk(trie, None)
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def residual_case(seed: int) -> tuple[NcPoly, tuple[float, float]]:
    """The numeric workload's input and its reference residual."""
    poly = residual_input(seed)
    return poly, reference_residual(poly, RESIDUAL_CUTOFF)


@dataclass(frozen=True)
class Workload:
    name: str
    # CLI arguments; "{input}" and "{artifact}" name files in the work directory.
    args: tuple[str, ...]
    # The artifact is the file "{artifact}" if True, else the child's stdout.
    artifact_file: bool
    # check(parsed artifact, expected value that make_input gave or None).
    check: Callable[[object, object], dict]
    # From the seed: the input written to "{input}" and the expected value.
    make_input: Callable[[int], tuple[NcPoly, object]] | None = None
    # The kind of work the child spends its time in, which picks the probe
    # that its times are normalised by (see run.py).
    probe: str = "python"

    def check_artifact(self, artifact: bytes, expected=None) -> dict:
        """Parse and check one artifact; any malformed part is a failed check."""
        try:
            return self.check(json.loads(artifact), expected)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise CheckFailed(f"malformed artifact: {exc!r}") from None


LEMMA_NAMES = [
    "lemma-1: Delta_u(1-xu)",
    "lemma-2: Delta_u(kernel-yw)",
    "lemma-3: Delta_v(kernel)",
    "lemma-4: Delta_w(kernel)",
    "closing identity",
]

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "theorem-k1",
            ("--format", "json", "verify", "theorem", "--eq", "3", "--order", "9"),
            False,
            lambda d, _: check_reports(d, [("duality-k1", 8)]),
        ),
        Workload(
            "theorem-default",
            ("--format", "json", "verify", "theorem"),
            False,
            lambda d, _: check_reports(
                d,
                [("duality-zeta", 12), ("duality-k1", 7)]
                + [(name, 8) for name in LEMMA_NAMES],
            ),
        ),
        Workload(
            "corollary-w10",
            ("verify", "corollary", "--weight", "10", "--certificates", "{artifact}"),
            True,
            lambda d, _: check_certificates(d, 10),
        ),
        Workload(
            "numeric-residual",
            ("--format", "json", "residual", "{input}", "--cutoff", str(RESIDUAL_CUTOFF)),
            False,
            lambda d, reference: check_residual(d, RESIDUAL_CUTOFF, reference),
            residual_case,
            probe="numpy",
        ),
    ]
}
