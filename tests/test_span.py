import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from conftest import word_bits
from mzvkit import cli, span
from mzvkit.identities import sum_word
from mzvkit.maps import derivation, tau
from mzvkit.ncpoly import NcPoly, accumulate, accumulate_scaled
from mzvkit.span import (
    MembershipCertificate,
    NotInSpanError,
    SpanSolver,
    corollary_check,
    corollary_check_all,
    duality_target,
    membership,
    span_basis,
)


def P(w, c=1):
    return NcPoly.word(w, c)


# -- independent oracle: dense elimination, different pivot order ------

def _dense_rank(columns, k):
    """Row-echelon rank of a 2^k x len(columns) Fraction matrix, scanning
    rows from the BOTTOM (reverse of the solver's pivot rule)."""
    rows = 2 ** k
    mat = [[col.get(r, Fraction(0)) for col in columns] for r in range(rows)]
    rank = 0
    ncols = len(columns)
    for r in range(rows - 1, -1, -1):
        piv = next((j for j in range(rank, ncols) if mat[r][j]), None)
        if piv is None:
            continue
        mat[r][rank], mat[r][piv] = mat[r][piv], mat[r][rank]
        for rr in range(rows):
            if rr != r:
                mat[rr][rank], mat[rr][piv] = mat[rr][piv], mat[rr][rank]
        lead = mat[r][rank]
        for rr in range(rows):
            if rr == r or not mat[rr][rank]:
                continue
            f = mat[rr][rank] / lead
            for j in range(rank, ncols):
                mat[rr][j] -= f * mat[r][j]
        rank += 1
    return rank


def _vec(p, k):
    # Fraction entries, so the elimination's divisions stay exact
    return {word_bits(w): Fraction(c) for w, c in p.terms.items()}


def oracle_member(target, k):
    """Rank comparison: target in span iff rank[A] == rank[A | target]."""
    cols = [_vec(g.image, k) for g in span_basis(k).generators]
    return _dense_rank(cols, k) == _dense_rank(cols + [_vec(target, k)], k)


# -- independent oracle: rational elimination, any pivot rule ----------

def _uses(k):
    """How many generator images of weight k contain each word."""
    return Counter(w for g in span_basis(k).generators for w in g.image.terms)


# Pivot rules: the word a reduced column (its words) pivots at, given _uses.
def least_word(words, uses):
    return min(words)


def largest_word(words, uses):
    return max(words)


def least_used(words, uses):
    return max(words, key=lambda w: (-uses[w], w))


RULES = [least_word, largest_word, least_used]


class _FractionSolver:
    """Gaussian elimination over Fraction with unit pivots, kept as a
    differential oracle. rule picks the word a column pivots at:
    largest_word is the solver's rule; TestPivotRule runs the others too.
    Pivots are cleared in creation order, as the solver does."""

    def __init__(self, k, rule=largest_word):
        self.basis = span_basis(k)
        uses = _uses(k)
        # pivot row -> (column vector, combination over generator indices)
        self.pivots = {}
        # the generator index of each pivot, in creation order
        self.independent = []
        for j, gen in enumerate(self.basis.generators):
            vec = {w: Fraction(c) for w, c in gen.image.terms.items()}
            combo = {j: Fraction(1)}
            self._reduce(vec, combo)
            if vec:
                row = rule(vec, uses)
                scale = vec[row]
                vec = {r: c / scale for r, c in vec.items()}
                combo = {i: c / scale for i, c in combo.items()}
                self.pivots[row] = (vec, combo)
                self.independent.append(j)

    def _reduce(self, vec, combo):
        for row, (pvec, pcombo) in self.pivots.items():
            c = vec.get(row)
            if not c:
                continue
            neg = -c
            accumulate(vec, ((r, neg * pc) for r, pc in pvec.items()))
            accumulate(combo, ((i, neg * pc) for i, pc in pcombo.items()))

    def combination(self, target):
        """The certificate combination, or None for a non-member."""
        vec = {w: Fraction(c) for w, c in target.terms.items()}
        combo = {}
        self._reduce(vec, combo)
        if vec:
            return None
        gens = self.basis.generators
        return [(gens[i].n, gens[i].word, -c) for i, c in sorted(combo.items()) if c]


# -- independent oracle: certificate expansion term by term ------------

def _expand_per_term(cert):
    """The combination expanded by one derivation call per term, each image
    scaled by its Fraction coefficient."""
    acc = {}
    for n, w, c in cert.combination:
        accumulate(acc, derivation(n, NcPoly.word(w)).scale(c).terms.items())
    return NcPoly._of(acc)


def _expand_grouped(cert):
    """The combination summed per n in integers and expanded by one
    derivation call per n, as verify() does, divided back by its lcm."""
    den, acc = cert._expanded()
    return NcPoly._of(acc).scale(Fraction(1, den))


MUTANT_KINDS = ["dropped term", "changed n", "coefficient + 1", "term listed twice"]


def _mutant(combo, kind, rng):
    """A nonempty combination with one seeded change of the given kind."""
    i = rng.randrange(len(combo))
    n, w, c = combo[i]
    changed = {
        "dropped term": [],
        "changed n": [(n + 1, w, c)],
        "coefficient + 1": [(n, w, c + 1)],
        "term listed twice": [combo[i], combo[rng.randrange(len(combo))]],
    }[kind]
    return combo[:i] + changed + combo[i + 1:]


# -- basis -------------------------------------------------------------

class TestSpanBasis:
    def test_weight3(self):
        b = span_basis(3)
        assert [(g.n, g.word) for g in b.generators] == [(1, "xy")]
        assert b.generators[0].image == P("xyy") + P("xxy", -1)

    def test_weight4(self):
        b = span_basis(4)
        assert [(g.n, g.word) for g in b.generators] == [
            (1, "xxy"),
            (1, "xyy"),
            (2, "xy"),
        ]

    def test_weight2_empty(self):
        assert span_basis(2).generators == []

    def test_generator_counts(self):
        for k in range(3, 9):
            expected = sum(2 ** (k - n - 2) for n in range(1, k - 1))
            assert len(span_basis(k).generators) == expected

    def test_images_homogeneous(self):
        for k in (3, 4, 5):
            for g in span_basis(k).generators:
                assert g.image.is_homogeneous(k)
                assert g.image == derivation(g.n, P(g.word))


# -- membership --------------------------------------------------------

class TestMembership:
    def test_weight3_example(self):
        cert = membership(P("xxy") + P("xyy", -1), 3)
        assert cert is not None
        assert cert.combination == [(1, "xy", Fraction(-1))]
        assert cert.verify()

    def test_weight2_negative(self):
        assert membership(P("xy"), 2) is None

    def test_zero_target(self):
        cert = membership(NcPoly.zero(), 5)
        assert cert is not None and cert.combination == []
        assert cert.verify()

    def test_mixed_weight_rejected(self):
        with pytest.raises(ValueError):
            membership(P("xy") + P("xxy"), 3)

    def test_redundant_columns_tolerated(self):
        # span images are linearly dependent in general; rank < generators
        for k in (5, 6, 7):
            solver = SpanSolver(k)
            assert solver.rank <= len(solver.basis.generators)
        assert SpanSolver(7).rank < len(span_basis(7).generators)

    def test_determinism(self):
        t = duality_target(6, 2, 2)
        c1 = SpanSolver(6).membership(t)
        c2 = SpanSolver(6).membership(t)
        assert c1.combination == c2.combination


class TestSolverOracle:
    def test_agrees_with_rank_comparison(self):
        rng = random.Random(1123)
        cases = 0
        for k in range(3, 7):
            solver = SpanSolver(k)
            targets = []
            for m in range(1, k):
                for l in range(1, k - m + 1):
                    targets.append(duality_target(k, m, l))
            gens = span_basis(k).generators
            for _ in range(15):
                # random combination of images: guaranteed member
                t = NcPoly.zero()
                for g in rng.sample(gens, min(3, len(gens))):
                    t = t + g.image.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                targets.append(t)
                # random homogeneous polynomial: usually not a member
                words = ["".join(rng.choice("xy") for _ in range(k)) for _ in range(4)]
                targets.append(NcPoly((w, rng.randint(-3, 3)) for w in words))
            for t in targets:
                cases += 1
                cert = solver.membership(t)
                assert (cert is not None) == oracle_member(t, k), t.render()
                if cert is not None:
                    assert cert.verify()
        assert cases >= 50


class TestAugmentedRows:
    """Each pivot row's word part is the combination its int keys name."""

    @pytest.mark.parametrize("k", range(3, 9))
    def test_pivot_rows(self, k):
        solver, uses = SpanSolver(k), _uses(k)
        gens = solver.basis.generators
        assert solver.pivots
        for word, row in solver.pivots.items():
            words = {key: c for key, c in row.items() if isinstance(key, str)}
            combo = {key: c for key, c in row.items() if isinstance(key, int)}
            assert largest_word(words, uses) == word
            assert row[word] > 0
            expected = NcPoly.zero()
            for i, c in combo.items():
                expected = expected + gens[i].image.scale(c)
            assert NcPoly(words.items()) == expected


def _clear_whole_row_gcd(row, key, pivot):
    """span._clear with the content taken by one gcd over the whole row;
    returns the content it divided out (1 when it divided nothing)."""
    c, lead = row[key], pivot[key]
    g = gcd(lead, c)
    a = lead // g
    if a != 1:
        for k in row:
            row[k] *= a
    accumulate_scaled(row, pivot, -c // g)
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g
        return g
    return 1


class TestClearContent:
    """_clear stops its content scan at the first unit gcd, and leaves each
    row as the whole-row gcd leaves it, also a row whose own (int) key
    holds +-1."""

    def test_matches_whole_row_gcd(self):
        rng = random.Random(1017)
        seen = Counter()
        key = "xy"  # every other word has 3 to 5 letters
        for _ in range(3000):
            words = {"".join(rng.choices("xy", k=rng.randint(3, 5))) for _ in range(rng.randint(0, 6))}
            f = rng.choice([1, 1, 2, 3, 6, 35])  # a common factor of row and pivot
            pivot = {key: rng.randint(1, 12) * f}
            for w in words:
                pivot[w] = rng.choice([-1, 1]) * rng.randint(1, 30) * f
            if rng.random() < 0.2:  # a multiple of the pivot: clears to {} unless an own key is added
                m = rng.choice([-3, -1, 2, 5])
                row = {w: m * c for w, c in pivot.items()}
            else:
                row = {key: rng.choice([-1, 1]) * rng.randint(1, 40) * f}
                for w in rng.sample(sorted(words), len(words) // 2):
                    row[w] = rng.choice([-1, 1]) * rng.randint(1, 40) * f
            own = rng.choice([None, 0])
            if own is not None:
                row[own] = rng.choice([-1, 1]) * (1 if rng.random() < 0.3 else rng.randint(1, 20) * f)
            new, old = dict(row), dict(row)
            span._clear(new, key, pivot)
            content = _clear_whole_row_gcd(old, key, pivot)
            assert new == old, (row, pivot, own)
            seen["empty"] += not new
            seen["content above 1"] += content > 1
            seen["negative"] += any(v < 0 for v in row.values())
            seen["own None"] += own is None
            seen["unit own"] += own is not None and abs(new[own]) == 1
        assert min(seen[case] for case in
                   ("empty", "content above 1", "negative", "own None", "unit own")) >= 50, seen


class TestFractionOracle:
    """The integer solver's certificates equal rational elimination's."""

    @staticmethod
    def _agree(solver, oracle, t):
        cert = solver.membership(t)
        expected = oracle.combination(t)
        if expected is None:
            assert cert is None, t.render()
        else:
            assert cert is not None and cert.combination == expected, t.render()
        return cert

    def test_duality_targets(self):
        for k in range(3, 9):
            solver, oracle = SpanSolver(k), _FractionSolver(k)
            assert list(solver.pivots) == list(oracle.pivots)
            for m in range(1, k):
                for l in range(1, k - m + 1):
                    t = duality_target(k, m, l)
                    if not t.is_zero():
                        assert self._agree(solver, oracle, t) is not None

    def test_random_and_rational_targets(self):
        rng = random.Random(2719)
        members = nonmembers = 0
        for k in range(3, 8):
            solver, oracle = SpanSolver(k), _FractionSolver(k)
            gens = span_basis(k).generators
            widest = max(
                (duality_target(k, m, l) for m in range(1, k) for l in range(1, k - m + 1)),
                key=len,
            )
            targets = [widest.scale(Fraction(3, 7))]
            a, b = rng.choices(gens, k=2)
            targets.append(a.image.scale(Fraction(5, 2)) + b.image.scale(Fraction(-1, 3)))
            for _ in range(10):
                t = NcPoly.zero()
                for g in rng.sample(gens, min(3, len(gens))):
                    t = t + g.image.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
                targets.append(t)
                words = ["".join(rng.choice("xy") for _ in range(k)) for _ in range(4)]
                targets.append(
                    NcPoly((w, Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for w in words)
                )
            for t in targets:
                if t.is_zero():
                    continue
                cert = self._agree(solver, oracle, t)
                if cert is None:
                    nonmembers += 1
                else:
                    members += 1
                    assert cert.verify()
        assert members >= 40 and nonmembers >= 20


class TestPivotRule:
    """Generator j pivots exactly when its image is independent of those of
    generators 0..j-1, whatever word a column pivots at; so the least-word,
    largest-word and least-used rules give the same certificates."""

    @staticmethod
    def _greedy(k):
        """Indices of the generators independent of all before them, by
        the dense rank oracle."""
        cols = [_vec(g.image, k) for g in span_basis(k).generators]
        chosen = []
        for j, col in enumerate(cols):
            if _dense_rank([cols[i] for i in chosen] + [col], k) > len(chosen):
                chosen.append(j)
        return chosen

    @pytest.mark.parametrize("k", range(3, 10))
    def test_min_and_max_leads_agree(self, k):
        oracles = [_FractionSolver(k, rule) for rule in RULES]
        independent = oracles[0].independent
        assert all(oracle.independent == independent for oracle in oracles)
        if k < 9:  # the dense rank oracle takes about 19 s at weight 9
            assert independent == self._greedy(k)
        # a pivot row's generator is its largest int key: the others are
        # those of earlier pivots
        solver = SpanSolver(k)
        assert [
            max(key for key in row if isinstance(key, int)) for row in solver.pivots.values()
        ] == independent
        rng = random.Random(5003 + k)
        gens = span_basis(k).generators
        targets = [duality_target(k, m, l) for m in range(1, k) for l in range(1, k - m + 1)]
        for _ in range(10):
            a, b = rng.choices(gens, k=2)
            targets.append(
                a.image.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
                + b.image.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
            )
            words = ["".join(rng.choice("xy") for _ in range(k)) for _ in range(4)]
            targets.append(
                NcPoly((w, Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for w in words)
            )
        members = 0
        for t in targets:
            combination = oracles[0].combination(t)
            for oracle in oracles[1:]:
                assert oracle.combination(t) == combination, t.render()
            members += combination is not None
        assert k * (k - 1) // 2 < members < len(targets)


class TestSolverCost:
    def test_row_merges_at_weight_11(self, monkeypatch):
        # The count of row merges (accumulate_scaled calls) in a weight-11
        # build, the lower-weight builds of its skip set included, and its
        # 55 duality-target memberships is deterministic once the cache of
        # lower-weight word lists is empty. Pivoting at the largest word
        # and reading the skip set off the lower weights bring it to
        # 3,667 + 2,423; giving either back, or echeloning the commutation
        # relations again, fails here.
        count = 0
        real = span.accumulate_scaled

        def counting(acc, terms, c):
            nonlocal count
            count += 1
            return real(acc, terms, c)

        span._lower.cache_clear()
        monkeypatch.setattr(span, "accumulate_scaled", counting)
        solver = SpanSolver(11)
        for m in range(1, 11):
            for l in range(1, 12 - m):
                assert solver.membership(duality_target(11, m, l)) is not None
        assert count <= 6090


def _full_build(k):
    """SpanSolver(k) with no skip set, so every generator is reduced, and
    the indices of the generators whose column reduced to zero."""
    full = SpanSolver(k, _skip=False)
    # the generator of each pivot row is its largest int key
    independent = {max(key for key in row if isinstance(key, int)) for row in full.pivots.values()}
    return full, set(range(len(full.basis.generators))) - independent


def _assert_same_build(solver, full):
    """Same pivots in the same order, same pivot rows, same certificates."""
    assert list(solver.pivots) == list(full.pivots)
    assert solver.pivots == full.pivots
    k = solver.weight
    for m in range(1, k):
        for l in range(1, k - m + 1):
            target = duality_target(k, m, l)
            cert = solver.membership(target)
            assert cert is not None and cert == full.membership(target), (m, l)


@pytest.fixture
def fresh_solvers():
    """An empty cache of module-level solvers before and after the test, so
    that no solver built on a mutated skip set outlives it."""
    span._solver.cache_clear()
    yield
    span._solver.cache_clear()


class TestCommutationRelations:
    """The generators SpanSolver skips, read off the pivot words of the
    lower weights, are exactly the dependent ones, and skipping them
    changes no pivot row. The argument needs [d_m, d_n] = 0."""

    def test_derivations_commute_on_x(self):
        # [d_m, d_n] is a derivation and both kill x + y, so it is 0 iff it
        # kills x; the skip set at weight k uses m < n with m + n <= k - 1,
        # so every pair up to the largest weight verify corollary admits
        cap = cli.MAX_SIZE["weight of verify corollary"]
        x = P("x")
        pairs = 0
        for n in range(2, cap - 1):
            for m in range(1, min(n, cap - n)):
                assert derivation(n, derivation(m, x)) == derivation(m, derivation(n, x)), (m, n)
                pairs += 1
        assert pairs == sum((s - 1) // 2 for s in range(3, cap))

    @pytest.mark.parametrize("k", range(3, 13))
    def test_leads_are_the_dependent_generators(self, k):
        full, dependent = _full_build(k)
        gens = full.basis.generators
        assert span._skipped(k) == {(gens[j].n, gens[j].word) for j in dependent}
        solver = SpanSolver(k)
        assert solver.rank == full.rank == len(gens) - len(dependent)
        assert solver.basis == full.basis
        _assert_same_build(solver, full)

    @pytest.mark.parametrize("kind", ["dropped block end", "independent word", "dropped d_(r-1)(x) word"])
    @pytest.mark.parametrize("k", [6, 8, 10])
    def test_bad_word_lists_change_no_certificate(self, k, kind, monkeypatch, fresh_solvers):
        full, dependent = _full_build(k)
        gens = full.basis.generators
        skipped = span._skipped(k)  # the real word lists, cached before the mutation
        false = gens[max(set(range(len(gens))) - dependent)]  # the last independent one
        assert false.n >= 2  # block 1 reads no lower weight
        lower = span._lower

        def mutated(r):
            words, ends = lower(r)
            if kind == "independent word" and r == k - false.n:
                # its word first, ahead of every block end
                return [false.word, *words], {i: e + 1 for i, e in ends.items()}
            if kind == "dropped d_(r-1)(x) word":
                return words, {**ends, r - 1: ends[r - 2]}
            if kind == "dropped block end" and r > 2:  # block 1's pivots counted as none
                return words, {**ends, 1: 0}
            return words, ends

        monkeypatch.setattr(span, "_lower", mutated)
        if kind != "independent word":
            # fewer skips: the dropped generators are reduced to zero
            assert span._skipped(k) < skipped
            _assert_same_build(SpanSolver(k), full)
            return
        assert span._skipped(k) == skipped | {(false.n, false.word)}
        # no later generator can stand in for it, as all of those are
        # skipped: the span loses it, and each target that needs it is
        # certified by the build with no skip set
        assert SpanSolver(k).rank == full.rank - 1
        fallbacks = 0
        for m in range(1, k):
            for l in range(1, k - m + 1):
                target = duality_target(k, m, l)
                fallbacks += span._solver(k).membership(target) is None
                expected = full.membership(target)
                assert membership(target, k) == expected, (m, l)
                assert corollary_check(k, m, l) == expected, (m, l)
        assert fallbacks


class TestGroupedVerify:
    """verify() sums the combination per n in integers; its verdict equals
    the term-by-term expansion's on certificates and on their mutants."""

    def test_every_certificate(self):
        for k in range(3, 12):
            for _, _, cert in corollary_check_all(k):
                expanded = _expand_per_term(cert)
                assert expanded == cert.target
                assert _expand_grouped(cert) == expanded
                assert cert.verify()

    def test_seeded_mutants(self):
        # one mutant per nonempty certificate, the kinds taken in turn
        rng = random.Random(7919)
        made = Counter()
        for k in range(3, 12):
            for _, _, cert in corollary_check_all(k):
                if not cert.combination:
                    continue
                kind = MUTANT_KINDS[sum(made.values()) % len(MUTANT_KINDS)]
                mutant = MembershipCertificate(cert.target, _mutant(cert.combination, kind, rng))
                expanded = _expand_per_term(mutant)
                assert _expand_grouped(mutant) == expanded, kind
                assert expanded != cert.target and not mutant.verify(), kind
                made[kind] += 1
        assert min(made[kind] for kind in MUTANT_KINDS) >= 40

    def test_rational_target(self):
        target = duality_target(7, 3, 2).scale(Fraction(-5, 6))
        cert = membership(target, 7)
        assert any(c.denominator > 1 for _, _, c in cert.combination)
        assert _expand_per_term(cert) == _expand_grouped(cert) == target
        assert cert.verify()

    def test_wrong_certificate_fails_both_routes(self):
        right = corollary_check(8, 3, 2)
        wrong = MembershipCertificate(right.target, corollary_check(8, 2, 3).combination)
        assert wrong.combination != right.combination
        assert _expand_per_term(wrong) != wrong.target
        assert not wrong.verify()

    def test_zero_coefficient_term_is_ignored(self):
        # a certificate read from JSON may carry a term with coefficient 0
        cert = corollary_check(8, 3, 2)
        padded = MembershipCertificate(cert.target, cert.combination + [(2, "xxyxy", Fraction(0))])
        assert _expand_per_term(padded) == _expand_grouped(padded) == cert.target
        assert padded.verify()

    def test_malformed_word_raises_in_both_routes(self):
        # a certificate read from JSON may name a non-word
        cert = MembershipCertificate(P("xxy") + P("xyy", -1), [(1, "xz", Fraction(-1))])
        with pytest.raises(ValueError):
            _expand_per_term(cert)
        with pytest.raises(ValueError):
            cert.verify()


# -- corollary ---------------------------------------------------------

class TestCorollary:
    def test_weight3_case(self):
        cert = corollary_check(3, 2, 1)
        assert cert.target == P("xxy") + P("xyy", -1)
        assert cert.combination == [(1, "xy", Fraction(-1))]

    def test_duality_family_k_equals_m_plus_l(self):
        # certifies zeta(m+1,1^(l-1)) = zeta(l+1,1^(m-1))
        for m in range(1, 5):
            for l in range(1, 5):
                cert = corollary_check(m + l, m, l)
                assert cert.verify()

    def test_all_cases_small_weights(self):
        for k in range(3, 8):
            cases = corollary_check_all(k)
            assert len(cases) == k * (k - 1) // 2
            for m, l, cert in cases:
                assert cert.verify()
                s = sum_word(k, m, l)
                assert cert.target == s - tau(s)

    @pytest.mark.parametrize("k", [2, 1, 0, -3])
    def test_all_cases_rejects_weight_below_three(self, k):
        # below weight 3 every duality target is 0 (weight 2's one case is
        # the self-dual word xy), so the check would pass vacuously
        with pytest.raises(ValueError):
            corollary_check_all(k)

    def test_certificate_json_roundtrip(self):
        cert = corollary_check(5, 2, 2)
        again = MembershipCertificate.from_dict(cert.to_dict())
        assert again.target == cert.target
        assert again.combination == cert.combination
        assert again.verify()

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("n", "1", "combination[0].n"),
            ("n", 0, "combination[0].n"),
            ("n", True, "combination[0].n"),
            ("n", None, "combination[0].n"),
            ("word", "xz", "combination[0].word"),
            ("word", 3, "combination[0].word"),
            ("coeff", None, "combination[0] needs a 'coeff'"),
            ("coeff", "1/0", "combination[0].coeff"),
            ("coeff", True, "combination[0].coeff"),
            # d_20 of the entry's word has a weight that no target word has
            ("n", 20, "combination[0].n"),
        ],
        ids=["n-str", "n-zero", "n-bool", "n-missing", "word-xz", "word-int",
             "coeff-missing", "coeff-1/0", "coeff-bool", "n-weight"],
    )
    def test_from_dict_names_bad_term_field(self, key, value, field):
        # value None removes the key
        data = corollary_check(5, 2, 2).to_dict()
        term = data["combination"][0]
        del term[key]
        if value is not None:
            term[key] = value
        with pytest.raises(ValueError, match=re.escape(field)):
            MembershipCertificate.from_dict(data)

    @pytest.mark.parametrize(
        "data, field",
        [
            ([], "target"),
            ({"combination": []}, "target"),
            ({"target": {"terms": []}}, "combination"),
            ({"target": {"terms": []}, "combination": {}}, "combination"),
            ({"target": {"terms": []}, "combination": ["xy"]}, "combination[0]"),
            ({"target": [], "combination": []}, "target: "),
            ({"target": {"terms": [{"word": "xz", "coeff": "1"}]}, "combination": []},
             "target: terms[0].word"),
            # a zero target has no weight, so it takes no entries
            ({"target": {"terms": []}, "combination": [{"n": 1, "word": "xy", "coeff": "1"}]},
             "combination[0].n"),
        ],
        ids=["list", "no-target", "no-combination", "combination-dict", "term-str",
             "target-list", "target-word-xz", "zero-target-entry"],
    )
    def test_from_dict_names_bad_field(self, data, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            MembershipCertificate.from_dict(data)

    def test_falsification_aborts_loudly(self, monkeypatch):
        import mzvkit.span as span_mod

        monkeypatch.setattr(span_mod, "membership", lambda target, k: None)
        with pytest.raises(NotInSpanError, match="FALSIFICATION"):
            corollary_check(4, 2, 1)
