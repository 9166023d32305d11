import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from mzvkit import numeric
from mzvkit.cli import main
from mzvkit.maps import derivation, dual_index, word_to_index
from mzvkit.ncpoly import NcPoly, admissible_words
from mzvkit.numeric import z_eval, zeta_eval, zeta_tail_bound


def brute_zeta(parts, m):
    """Literal nested-loop oracle, small cutoffs only."""
    from itertools import combinations

    total = 0.0
    d = len(parts)
    for ms in combinations(range(1, m + 1), d):
        ms = ms[::-1]  # strictly decreasing m1 > ... > md
        term = 1.0
        for mi, ki in zip(ms, parts):
            term *= mi ** -ki
        total += term
    return total


def nested_cumsum(parts, m):
    """One index at a time: fresh powers and full-length cumulative sums
    from the innermost part outward. The independent oracle of the blocked
    trie kernel, which must give the same float for every index."""
    idx = np.arange(m + 1, dtype=np.float64)
    idx[0] = 1.0  # avoid 0**-k; slot 0 is zeroed below
    f = idx ** float(-parts[-1])
    f[0] = 0.0
    cum = np.cumsum(f)
    for k in parts[-2::-1]:
        f = idx ** float(-k)
        f[0] = 0.0
        f[1:] *= cum[:-1]  # inner indices strictly below the current one
        cum = np.cumsum(f)
    return float(cum[-1])


def oracle_z_eval(p, m):
    """Z of p word by word through nested_cumsum, in p.items() order."""
    value = tail = 0.0
    for w, c in p.items():
        if not w:
            value += float(c)
            continue
        parts = word_to_index(w)
        value += float(c) * nested_cumsum(parts, m)
        tail += abs(float(c)) * zeta_tail_bound(parts, m)
    return value, tail


def random_combination(rng, n_words, constant):
    """n_words admissible words of weight 2..9 with small integer coefficients."""
    words = [w for k in range(2, 10) for w in admissible_words(k)]
    terms = [(w, rng.choice([-9, -4, -1, 1, 2, 7])) for w in rng.sample(words, n_words)]
    if constant:
        terms.append(("", rng.choice([-3, 5])))
    return NcPoly(terms)


def duality_combination(seed, top):
    """A seeded integer combination of every duality target of weight
    2..top, each an exact zero: the shape of the residual workload."""
    from mzvkit.span import duality_target

    rng = random.Random(seed)
    p = NcPoly.zero()
    for k in range(2, top + 1):
        for m in range(1, k):
            for l in range(1, k - m + 1):
                p = p + duality_target(k, m, l).scale(rng.choice([-5, -2, 1, 3, 8]))
    return p


def replay(indices):
    """Replay the _schedule of indices buffer by buffer, naming each node by
    its path of reversed parts, and return its steps. Each lane must read
    the lane that holds its parent at that moment, never in the buffer its
    step writes; each trie node must sit in exactly one lane; no buffer may
    be overwritten while a child of a node in it is still to come; each
    index must map to the lane of its own node; and the steps may write no
    more buffers than the largest depth of the indices."""
    steps, nodes, where = numeric._schedule(indices)
    kids = {}
    for parts in indices:
        path = tuple(reversed(parts))
        for j in range(1, len(path) + 1):
            kids.setdefault(path[:j - 1], set()).add(path[:j])
    trie = set().union(*kids.values()) if kids else set()
    held, done, named = {}, set(), []
    for out, *lanes in steps:
        assert lanes[0] is not None, out
        made = []
        for lane in lanes:
            if lane is None:
                made.append(None)
                continue
            src, k = lane
            assert src is None or src[0] != out, (out, lane)
            node = (() if src is None else held[src]) + (k,)
            assert node in trie and node not in done, node
            made.append(node)
        for i, node in enumerate(made):
            old = held.get((out, i))
            assert old is None or kids.get(old, set()) <= done, (out, i, old)
            held[out, i] = node
        done.update(node for node in made if node)
        named.append(made)
    assert done == trie and nodes == len(trie)
    for parts, (step, lane) in where.items():
        assert named[step][lane] == tuple(reversed(parts)), parts
    buffers = {out for out, _, _ in steps}
    assert buffers == set(range(len(buffers)))
    assert len(buffers) <= max(map(len, indices), default=0)
    return steps


# shared suffixes (.., 1, 1) and (.., 2, 1), and repeated parts
SHARED_SUFFIXES = NcPoly(
    {"xyyy": 1, "xxyyy": 1, "xyxyyy": 1, "xxyxyy": -1, "xyxyxy": 5, "xxyxxy": 1}
)
# depth 1200 and indices on its path through the trie of reversed indices
DEEP = [(2,) + (1,) * 1199, (2,) + (1,) * 1198, (3, 1), (2, 1), (2, 2, 1)]


def _combinations():
    rng = random.Random(20170611)
    cases = [
        pytest.param(random_combination(rng, n, c), id=f"random{n}")
        for n, c in [(40, True), (25, False), (60, True)]
    ]
    return cases + [
        pytest.param(NcPoly.word("xy"), id="depth1-word"),
        pytest.param(NcPoly.word("xxyxyxyy", -3), id="deep-word"),
        pytest.param(NcPoly({"": 2, "xy": 1, "xxy": -3}), id="constant-and-depth1"),
        pytest.param(SHARED_SUFFIXES, id="shared-suffixes"),
    ]


def _tries():
    """Seeded random tries, one 1200 deep, and one of all 512 admissible
    indices of weight 11 (1023 nodes)."""
    cases = []
    for seed in range(40):
        rng = random.Random(seed)
        indices = {
            tuple(rng.choice([1, 1, 2, 3]) for _ in range(rng.randint(1, 7)))
            for _ in range(rng.randint(1, 60))
        }
        cases.append(pytest.param(sorted(indices), id=f"random{seed}"))
    wide = [word_to_index(w) for w in admissible_words(11)]
    return cases + [pytest.param(DEEP, id="deep"), pytest.param(wide, id="wide")]


class TestSuffixTrieKernel:
    @pytest.mark.parametrize("m", [8, 97, 5000])
    @pytest.mark.parametrize("p", _combinations())
    def test_matches_per_word_oracle_exactly(self, p, m):
        r = z_eval(p, m)
        value, tail = oracle_z_eval(p, m)
        assert r.value == value
        assert r.tail_bound == tail
        for w in p.terms:
            if w:
                parts = word_to_index(w)
                assert zeta_eval(parts, m).value == nested_cumsum(parts, m), parts

    @staticmethod
    def check_residual_stdout(capsys, tmp_path, p, cutoff):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(p.to_dict()))
        assert main(["--format", "json", "residual", str(path), "--cutoff", str(cutoff)]) == 0
        value, tail = oracle_z_eval(p, cutoff)
        expected = {"value": f"{value:.12f}", "cutoff": cutoff, "tail_bound": f"{tail:.12f}"}
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_residual_stdout_is_oracle_formatted(self, capsys, tmp_path):
        self.check_residual_stdout(capsys, tmp_path, duality_combination(7, 7), 30000)

    def test_residual_stdout_is_oracle_formatted_at_the_workload_shape(
        self, capsys, tmp_path, monkeypatch
    ):
        # every duality target of weight 2..10, as in the residual workload,
        # with blocks small enough that 30000 crosses seven block edges
        monkeypatch.setattr(numeric, "BLOCK", 4096)
        self.check_residual_stdout(capsys, tmp_path, duality_combination(11, 10), 30000)

    def test_kernel_is_flat_at_any_depth(self):
        # depth 1200 is past the recursion limit; the shallow indices are
        # nodes on the deep ones' path through the trie
        sums = numeric._partial_sums(numeric._schedule(DEEP), 1300)
        assert sums == {parts: nested_cumsum(parts, 1300) for parts in DEEP}

    @pytest.mark.parametrize("block", [64, 100])
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 127, 128, 129, 5000])
    @pytest.mark.parametrize("p", _combinations())
    def test_block_boundaries_are_exact(self, monkeypatch, block, m, p):
        # the last sum of each block carries into slot 0 of the next; blocks
        # start at n = 1, so under BLOCK 64 the edges are m = 1, 64, 65, 128, 129
        monkeypatch.setattr(numeric, "BLOCK", block)
        indices = [word_to_index(w) for w in p.terms if w]
        sums = numeric._partial_sums(numeric._schedule(indices), m)
        assert sums == {parts: nested_cumsum(parts, m) for parts in indices}

    @pytest.mark.parametrize("block", [64, 100])
    @pytest.mark.parametrize("m", [1300, 5000])
    def test_block_boundaries_are_exact_at_depth(self, monkeypatch, block, m):
        monkeypatch.setattr(numeric, "BLOCK", block)
        sums = numeric._partial_sums(numeric._schedule(DEEP), m)
        assert sums == {parts: nested_cumsum(parts, m) for parts in DEEP}

    def test_schedule_of_shared_suffixes(self):
        # reversed: (1,1,2) (1,1,3) (1,1,2,2) (1,2,3) (2,2,2) (3,3); each
        # step sums the top two waiting nodes, so the 12 nodes take 6
        # steps, and a buffer is reused once no waiting node reads it
        indices = [word_to_index(w) for w in SHARED_SUFFIXES.terms]
        steps, nodes, where = numeric._schedule(indices)
        assert steps == [
            (0, (None, 1), (None, 2)),
            (1, ((0, 0), 1), ((0, 0), 2)),
            (2, ((1, 0), 2), ((1, 0), 3)),
            (3, ((2, 0), 2), ((1, 1), 3)),  # two leaves: 2, 1 and 3 are free
            (3, ((0, 1), 2), (None, 3)),  # then 0 is free
            (0, ((3, 0), 2), ((3, 1), 3)),
        ]
        assert nodes == 12
        assert where == {
            (2, 1, 1): (2, 0), (3, 1, 1): (2, 1), (2, 2, 1, 1): (3, 0),
            (3, 2, 1): (3, 1), (2, 2, 2): (5, 0), (3, 3): (5, 1),
        }
        assert replay(indices) == steps

    @pytest.mark.parametrize("indices", _tries())
    def test_schedule_keeps_every_parent_live(self, indices):
        replay(indices)

    def test_schedule_of_a_deep_trie_takes_three_buffers(self):
        # a buffer is freed once its nodes' children are summed, so a path
        # 1200 deep reuses the same few buffers all the way down
        steps, _, _ = numeric._schedule(DEEP)
        assert len({out for out, _, _ in steps}) <= 3

    def test_schedule_leaves_almost_no_lane_empty(self):
        # the residual workload's shape: each step fills two of the trie's
        # nodes but for a few, so a block costs about nodes / 2 cumsums
        p = duality_combination(3, 10)
        steps, nodes, _ = numeric._schedule([word_to_index(w) for w in p.terms if w])
        assert len(steps) <= math.ceil(nodes / 2) + 3, (len(steps), nodes)

    def test_memory_is_flat_in_the_cutoff(self):
        # one deep-enough index at 10^6, a wide trie of 1023 nodes, then a
        # trie 1200 deep: memory grows with neither the cutoff, the node
        # count nor the depth
        wide = [word_to_index(w) for w in admissible_words(11)]
        for indices, m in [([(2, 1, 1)], 10**6), (wide, 10**5), (DEEP, 10**5)]:
            tracemalloc.start()
            try:
                numeric._partial_sums(numeric._schedule(indices), m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, (len(indices), peak)


class TestZetaEval:
    def test_zeta2_against_pi_squared_over_6(self):
        r = zeta_eval((2,), 10 ** 6)
        assert abs(r.value - math.pi ** 2 / 6) < 1e-5
        assert abs(r.value - 1.6449340668) < 1e-5

    def test_zeta3(self):
        r = zeta_eval((3,), 10 ** 4)
        assert abs(r.value - 1.2020569) < 1e-6

    def test_matches_brute_force_oracle(self):
        for parts in [(2,), (3,), (2, 1), (2, 2), (3, 1, 2)]:
            r = zeta_eval(parts, 60)
            assert abs(r.value - brute_zeta(parts, 60)) < 1e-12

    def test_euler_identity_residual(self):
        r1 = zeta_eval((2, 1), 10 ** 6)
        r2 = zeta_eval((3,), 10 ** 6)
        assert abs(r1.value - r2.value) < 1e-4

    def test_monotone_refinement(self):
        for parts in [(2,), (2, 1), (3, 2)]:
            for m in (100, 1000, 10000):
                a = zeta_eval(parts, m)
                b = zeta_eval(parts, 2 * m)
                assert abs(a.value - b.value) <= a.tail_bound

    def test_tail_bound_is_a_bound(self):
        # high-cutoff value as reference; the reported tail bound must
        # cover the actual truncation error
        for parts in [(2,), (2, 1), (2, 1, 1)]:
            ref = zeta_eval(parts, 10 ** 6).value
            for m in (100, 1000, 10 ** 4):
                r = zeta_eval(parts, m)
                assert abs(r.value - ref) <= r.tail_bound

    @pytest.mark.parametrize("target, m, values, tail", [
        # (9, 5, 4): the first value with numpy's dispatched SIMD kernels,
        # the second on its baseline path (NPY_DISABLE_CPU_FEATURES set to
        # every dispatched feature), where n^-k can differ in the last bit
        ((9, 5, 4), 200000, ("4.954803928258755e-17", "4.9534486755431484e-17"),
         "5.13351303394262e-18"),
        ((7, 3, 4), 10**6, ("-1.932568688411962e-14",), "1.1605312452820005e-15"),
        ((10, 6, 4), 10**6, ("2.2104171791548222e-17",), "1.9457839722987878e-19"),
    ])
    def test_baseline_residuals_are_pinned(self, target, m, values, tail):
        # exact zeros by duality: the values are rounding, past the tail
        # bound, which covers truncation only
        from mzvkit.span import duality_target

        r = z_eval(duality_target(*target), m)
        assert repr(r.value) in values
        assert repr(r.tail_bound) == tail
        assert abs(r.value) > r.tail_bound

    def test_rejects_divergent(self):
        with pytest.raises(ValueError):
            zeta_eval((1, 2), 100)

    @pytest.mark.parametrize("parts", [(2, 0), (3, 0, 0), (2, 1, -1)])
    def test_rejects_part_below_one(self, parts):
        with pytest.raises(ValueError, match="every part >= 1"):
            zeta_eval(parts, 1000)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            zeta_eval((2, 1, 1), 2)

    @pytest.mark.parametrize("m", [0, -5])
    def test_rejects_cutoff_below_one(self, m):
        with pytest.raises(ValueError, match="at least 1"):
            zeta_eval((2,), m)

    def test_deterministic(self):
        a = zeta_eval((2, 1, 3), 5000)
        b = zeta_eval((2, 1, 3), 5000)
        assert a.value == b.value and a.tail_bound == b.tail_bound


class TestZEval:
    def test_z_of_one(self):
        r = z_eval(NcPoly.one(), 100)
        assert r.value == 1.0
        assert r.tail_bound == 0.0

    def test_a_constant_sums_no_block_at_any_cutoff(self):
        # no trie node, so no work however large the cutoff
        assert z_eval(NcPoly.one().scale(3), 10**12).value == 3.0

    def test_derivation_relation_residual(self):
        r = z_eval(derivation(1, NcPoly.word("xy")), 10 ** 6)
        assert abs(r.value) < 1e-4
        assert abs(r.value) < r.tail_bound

    def test_corollary_instance_residual(self):
        from mzvkit.span import duality_target

        r = z_eval(duality_target(5, 2, 2), 10 ** 5)
        assert abs(r.value) < r.tail_bound

    def test_duality_residuals_weight_le_7(self):
        m = 10 ** 5
        for k in range(2, 8):
            for w in admissible_words(k):
                i = word_to_index(w)
                a = zeta_eval(i, m)
                b = zeta_eval(dual_index(i), m)
                assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound, i

    def test_rejects_non_admissible_support(self):
        with pytest.raises(ValueError):
            z_eval(NcPoly.word("yx"), 100)

    @pytest.mark.parametrize("m", [0, -5])
    def test_rejects_cutoff_below_one_for_a_constant(self, m):
        # no word reaches the depth check, so the cutoff is checked first
        with pytest.raises(ValueError, match="at least 1"):
            z_eval(NcPoly.one().scale(3), m)

    @pytest.mark.parametrize("depth, m", [(172, 1000), (400, 500), (1200, 1300)])
    def test_rejects_an_overflowing_tail_bound(self, depth, m):
        with pytest.raises(ValueError, match="tail bound overflows"):
            zeta_eval((2,) + (1,) * (depth - 1), m)

    def test_checks_the_bound_before_any_partial_sum(self, monkeypatch):
        def kernel(indices, m):
            raise AssertionError("partial sums taken before the bound check")

        monkeypatch.setattr(numeric, "_partial_sums", kernel)
        with pytest.raises(ValueError, match="tail bound overflows"):
            z_eval(NcPoly.word("x" + "y" * 400), 500)

    def test_bounds_the_work_before_any_partial_sum(self, monkeypatch):
        # (2,1,1) is three trie nodes of m + 1 terms each
        monkeypatch.setattr(numeric, "MAX_SUM_TERMS", 3 * 1001)
        assert zeta_eval((2, 1, 1), 1000).value == nested_cumsum((2, 1, 1), 1000)

        def cumsum(*args, **kwargs):
            raise AssertionError("partial sums taken before the work bound check")

        monkeypatch.setattr(np, "cumsum", cumsum)
        with pytest.raises(ValueError, match="more than 3003 terms"):
            zeta_eval((2, 1, 1), 1001)

    def test_bounds_the_deepest_index_before_the_trie(self, monkeypatch):
        # an index of depth d puts d nodes on the trie: depth 10^4 at cutoff
        # 10^6 is past the bound before any node is made
        def schedule(indices):
            raise AssertionError("trie built before the work bound check")

        monkeypatch.setattr(numeric, "_schedule", schedule)
        with pytest.raises(ValueError, match="^10000 nested sums of 1000001 terms"):
            z_eval(NcPoly.word("x" + "y" * 10**4), 10**6)

    def test_rejects_cutoff_below_depth(self):
        with pytest.raises(ValueError, match="smaller than depth"):
            z_eval(NcPoly({"xy": 1, "xyyy": 1}), 2)

    def test_certificate_residuals(self):
        from mzvkit.span import corollary_check_all

        m = 10 ** 4
        for mm, ll, cert in corollary_check_all(5):
            # structural: certificate expands exactly to the target
            assert cert.verify()
            # numeric: the target's Z-image vanishes within tolerance
            r = z_eval(cert.target, m)
            assert abs(r.value) < r.tail_bound + 1e-12
