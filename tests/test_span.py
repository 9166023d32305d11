import random
from fractions import Fraction

import pytest

from conftest import word_bits
from mzvkit.identities import sum_word
from mzvkit.maps import derivation, tau
from mzvkit.ncpoly import NcPoly, accumulate
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


# -- independent oracle: rational elimination, same pivot rule ---------

class _FractionSolver:
    """Gaussian elimination over Fraction with unit pivots: the solver's
    pivot rule in rational arithmetic, kept as a differential oracle."""

    def __init__(self, k):
        self.basis = span_basis(k)
        # pivot row -> (column vector, combination over generator indices)
        self.pivots = {}
        for j, gen in enumerate(self.basis.generators):
            vec = {w: Fraction(c) for w, c in gen.image.terms.items()}
            combo = {j: Fraction(1)}
            self._reduce(vec, combo)
            if vec:
                row = min(vec)
                lead = vec[row]
                vec = {r: c / lead for r, c in vec.items()}
                combo = {i: c / lead for i, c in combo.items()}
                self.pivots[row] = (vec, combo)

    def _reduce(self, vec, combo):
        for row in sorted(self.pivots):
            c = vec.get(row)
            if not c:
                continue
            pvec, pcombo = self.pivots[row]
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
        solver = SpanSolver(k)
        gens = solver.basis.generators
        assert solver.pivots
        for word, row in solver.pivots.items():
            words = {key: c for key, c in row.items() if isinstance(key, str)}
            combo = {key: c for key, c in row.items() if isinstance(key, int)}
            assert min(words) == word
            expected = NcPoly.zero()
            for i, c in combo.items():
                expected = expected + gens[i].image.scale(c)
            assert NcPoly(words.items()) == expected


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
            assert sorted(solver.pivots) == sorted(oracle.pivots)
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

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_all_cases_rejects_weight_below_two(self, k):
        # below weight 2 there is no (m, l) case, so [] would pass vacuously
        with pytest.raises(ValueError):
            corollary_check_all(k)

    def test_certificate_json_roundtrip(self):
        cert = corollary_check(5, 2, 2)
        again = MembershipCertificate.from_dict(cert.to_dict())
        assert again.target == cert.target
        assert again.combination == cert.combination
        assert again.verify()

    def test_falsification_aborts_loudly(self, monkeypatch):
        import mzvkit.span as span_mod

        monkeypatch.setattr(span_mod, "membership", lambda target, k: None)
        with pytest.raises(NotInSpanError, match="FALSIFICATION"):
            corollary_check(4, 2, 1)
