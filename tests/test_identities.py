from fractions import Fraction
from math import comb

import pytest

from mzvkit.identities import (
    IdentityReport,
    compare_series,
    conjecture_lhs_series,
    conjecture_lhs_split_form,
    duality_gf,
    lemma2_swapped_control,
    sum_word,
    verify_duality_k1,
    verify_duality_zeta,
    verify_proof_steps,
)
from mzvkit.maps import tau
from mzvkit.ncpoly import NcPoly
from mzvkit.series import VAR_AXIS, Series3, delta_on_series, geometric_inverse


def P(w, c=1):
    return NcPoly.word(w, c)


def _inv(b, *terms) -> Series3:
    """The explicit inverse of b.lin(*terms): the oracles' quotient."""
    return geometric_inverse(b.lin(*terms))


def _subs_zero(s: Series3, var: str) -> Series3:
    """Set one central variable to 0."""
    axis = VAR_AXIS[var]
    return Series3(s.order, ((m, p) for m, p in s.items() if m[axis] == 0))


class TestSumWord:
    def test_degenerate_depth_one(self):
        assert sum_word(3, 2, 1) == P("xxy")

    def test_depth_one_empty_when_k_ne_m_plus_1(self):
        # l = 1 sums over an empty composition tuple, nonempty only when
        # k = m + 1
        assert sum_word(3, 1, 1) == NcPoly.zero()

    def test_single_composition(self):
        assert sum_word(4, 1, 2) == P("xyxy")

    def test_two_compositions(self):
        assert sum_word(5, 1, 3) == P("xyxyy") + P("xyyxy")

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            sum_word(2, 1, 2)

    def test_terms_admissible_weight_depth(self):
        for k in range(2, 8):
            for m in range(1, k):
                for l in range(1, k - m + 1):
                    s = sum_word(k, m, l)
                    for w, c in s.terms.items():
                        assert c == 1
                        assert len(w) == k
                        assert w.count("y") == l
                        assert w[0] == "x" and w[-1] == "y"

    def test_word_count_is_the_composition_count(self):
        # a1 + ... + a_(l-1) = k-m-l in nonnegative parts: C(k-m-2, l-2)
        # choices for l >= 2, one (the empty tuple) for l = 1 when k = m + 1
        for k in range(2, 12):
            for m in range(1, k):
                for l in range(1, k - m + 1):
                    expected = comb(k - m - 2, l - 2) if l >= 2 else int(k == m + 1)
                    assert len(sum_word(k, m, l)) == expected

    @pytest.mark.parametrize(
        "k, m, l", [(5, 2, 0), (5, 0, 2), (5, -1, 2), (0, 1, 1), (4, 2, 3)]
    )
    def test_rejects_invalid_parameters(self, k, m, l):
        with pytest.raises(ValueError):
            sum_word(k, m, l)


class TestGeneratingFunction:
    def test_constant_term(self):
        f = conjecture_lhs_series(4)
        assert f.coeff((0, 0, 0)) == sum_word(2, 1, 1)
        assert f.coeff((0, 0, 0)) == P("xy")

    def test_matches_enumeration_exhaustive(self):
        # coefficient of u^(m-1) v^(l-1) w^(k-m-l) vs direct composition
        # enumeration, every valid triple with k <= 9
        order = 7
        f = conjecture_lhs_series(order)
        for k in range(2, 10):
            for m in range(1, k):
                for l in range(1, k - m + 1):
                    mono = (m - 1, l - 1, k - m - l)
                    if sum(mono) > order:
                        continue
                    assert f.coeff(mono) == sum_word(k, m, l), (k, m, l)

    def test_no_stray_monomials(self):
        # every monomial of the series corresponds to a valid (k, m, l)
        f = conjecture_lhs_series(5)
        for (a, b, c), p in f.items():
            k, m, l = a + b + c + 2, a + 1, b + 1
            assert k >= m + l
            assert p == sum_word(k, m, l)

    def test_split_form(self):
        order = 6
        assert conjecture_lhs_series(order) == conjecture_lhs_split_form(order)


class TestDualityGf:
    def test_coefficients_are_one_minus_tau_of_sums(self):
        order = 6
        f = duality_gf(order)
        for k in range(2, 9):
            for m in range(1, k):
                for l in range(1, k - m + 1):
                    mono = (m - 1, l - 1, k - m - l)
                    if sum(mono) > order:
                        continue
                    s = sum_word(k, m, l)
                    assert f.coeff(mono) == s - tau(s), (k, m, l)


class TestDualityZeta:
    def test_passes(self):
        report = verify_duality_zeta(8)
        assert report.passed

    @pytest.mark.parametrize("order", [0, -1])
    def test_rejects_order_below_one(self, order):
        # at order 0 both sides are 0, so the check would pass vacuously
        with pytest.raises(ValueError):
            verify_duality_zeta(order)

    @pytest.mark.parametrize("order", [1, 2, 5, 12])
    @pytest.mark.parametrize("perturb", [None, "xy/(1-yu)", "Delta_u"])
    def test_report_equals_paper_form(self, monkeypatch, perturb, order):
        # the check compares Delta_u(base) with x y/(1-yu), base = x/(1-xu)y;
        # the paper's base - x y/(1-yu) = base - Delta_u(base) has the same
        # difference series, so the report must be the same, pass or fail
        import mzvkit.identities as identities

        zeta_base, xy_over_yu = identities._zeta_base, identities._xy_over_yu
        if perturb == "xy/(1-yu)":
            monkeypatch.setattr(identities, "_xy_over_yu", lambda b: (
                xy_over_yu(b) + Series3.single(P("xyy", 3), (1, 0, 0), b.order)))
        elif perturb == "Delta_u":
            monkeypatch.setattr(identities, "_zeta_base", lambda b: (
                zeta_base(b) - Series3.single(P("xxy", 2), (0, 0, 0), b.order)
                if b.var == "u" else zeta_base(b)))
        b, bu = identities._Blocks(order), identities._Blocks(order, "u")
        base = identities._zeta_base(b)
        paper = compare_series("duality-zeta", base - identities._xy_over_yu(b),
                               base - identities._zeta_base(bu))
        report = verify_duality_zeta(order)
        assert report == paper
        assert report.passed == (perturb is None)

    def test_u_coefficients_are_dualized_single_zetas(self):
        # build both sides separately: coefficient of u^m is (1-tau)(x^(m+1)y)
        from mzvkit.identities import _Blocks

        order = 8
        b = _Blocks(order)
        lhs = b.x * _inv(b, "xu") * b.y - b.x * b.y * _inv(b, "yu")
        assert lhs.coeff((0, 0, 0)).is_zero()
        assert lhs.coeff((1, 0, 0)) == P("xxy") + P("xyy", -1)
        for m in range(order + 1):
            single = P("x" * (m + 1) + "y")
            assert lhs.coeff((m, 0, 0)) == single - tau(single)


class TestDualityK1:
    def test_passes(self):
        assert verify_duality_k1(6).passed

    def test_constant_term_of_lhs(self):
        from mzvkit.identities import duality_k1_lhs

        lhs = duality_k1_lhs(4)
        assert lhs.coeff((0, 0, 0)) == P("xyy") + P("xxy", -1)

    def test_specializations_reproduce_kawasaki_tanaka_cases(self):
        # u=0 and v=0 in the identity each still hold
        from mzvkit.identities import _k1_numerator, _k1_rest, duality_k1_lhs
        from mzvkit.series import divide_by_v_minus_w

        order = 5
        lhs = Series3(order - 1, duality_k1_lhs(order).items())
        rhs = divide_by_v_minus_w(_k1_numerator(order)) + _k1_rest(order - 1)
        for var in ("u", "v"):
            assert _subs_zero(lhs, var) == _subs_zero(rhs, var)

    @pytest.mark.parametrize("order", range(2, 7))
    def test_rest_and_lhs_built_at_order_minus_one(self, order):
        # Only the numerator needs the extra degree for the (v-w) division;
        # the rest and the lhs built at order-1 equal the full-order series
        # truncated to order-1.
        from mzvkit.identities import _k1_rest, duality_k1_lhs

        assert _k1_rest(order - 1) == Series3(order - 1, _k1_rest(order).items())
        assert duality_k1_lhs(order - 1) == Series3(order - 1, duality_k1_lhs(order).items())

    def test_coefficients_stay_int(self):
        # the k1 series is integral, so no coefficient falls back to Fraction
        from mzvkit.identities import _k1_numerator, _k1_rest, duality_k1_lhs

        for series in (duality_k1_lhs(6), _k1_numerator(6), _k1_rest(6)):
            coeffs = [c for _, p in series.items() for c in p.terms.values()]
            assert coeffs and all(type(c) is int for c in coeffs)

    def test_division_failure_reports_first_diagonal_monomial(self, monkeypatch):
        # Give the Delta_v images of the letters x and y an extra x*v each,
        # which survives on the w=v diagonal of (Delta_v - Delta_w)(inner1),
        # so (v-w) no longer divides it. inner1 = x (1/kernel) y ... has
        # constant term xy; at degree 1 in v the extra terms give
        # (x*v)*y + x*(x*v) = (xy + xx)v, and the kernel and (1-xw) factors
        # only carry them to degree 2 and above.
        import mzvkit.identities as identities

        real = identities.delta_on_series

        def perturbed(var, f):
            out = real(var, f)
            if var == "v":
                out = out + Series3.single(P("x"), (0, 1, 0), f.order)
            return out

        monkeypatch.setattr(identities, "delta_on_series", perturbed)
        report = verify_duality_k1(4)
        assert not report.passed
        assert report.order == 3
        assert report.failing_monomial == (0, 1, 0)
        assert report.failing_diff == "xx + xy"

    @pytest.mark.parametrize("order", [3, 6, 9])
    def test_flipped_rest_fails_at_first_monomial(self, monkeypatch, order):
        # Negating inner2 flips the sign of the (1 - Delta_u) term, so the
        # division still succeeds and the comparison with the lhs must fail
        # at the same first monomial, with the same coefficient, at every
        # order.
        import mzvkit.identities as identities

        real = identities._inner2
        monkeypatch.setattr(identities, "_inner2", lambda b: -real(b))
        report = verify_duality_k1(order)
        assert not report.passed
        assert report.order == order - 1
        assert report.failing_monomial == (1, 0, 0)
        assert report.failing_diff == "2*xxxy - 2*xxyy - 2*xyxy"

    def test_word_pair_products_at_order_9(self, monkeypatch):
        # The count of word-pair products (one per pair of terms that the
        # product kernel multiplies) is deterministic. The per-variable
        # groupings of inner1 and inner2 bring it from 64,389 to 53,524;
        # a regrouping that gives that back fails here.
        import mzvkit.series as series

        count = 0
        real = series.accumulate_product

        def counting(acc, p, q):
            nonlocal count
            count += len(p.terms) * len(q.terms)
            return real(acc, p, q)

        monkeypatch.setattr(series, "accumulate_product", counting)
        assert verify_duality_k1(9).passed
        assert count <= 53524


# The Delta sides of the proof lemmas, as built on a _Blocks.
_LEMMA_FACTORS = {
    "lin-xu": lambda b: b.lin("xu"),
    "kernel-yw": lambda b: b.kernel("yw"),
    "kernel": lambda b: b.kernel(),
}


class TestFactorwiseDelta:
    # The Delta_t-image of a generating function or lemma factor built on
    # _Blocks(n, t) must equal delta_on_series applied to the expanded product.
    @pytest.mark.parametrize("order", range(1, 7))
    @pytest.mark.parametrize(
        "build, var",
        [
            ("_inner1", "v"), ("_inner1", "w"), ("_inner2", "u"), ("_zeta_base", "u"),
            ("lin-xu", "u"), ("kernel-yw", "u"), ("kernel", "v"), ("kernel", "w"),
        ],
    )
    def test_matches_expanded_route(self, build, var, order):
        import mzvkit.identities as identities

        f = _LEMMA_FACTORS.get(build) or getattr(identities, build)
        expanded = delta_on_series(var, f(identities._Blocks(order)))
        assert f(identities._Blocks(order, var)) == expanded


# Each regrouped builder, as the paper writes it: its factors multiplied
# left to right (Python's * associates to the left), then the same with two
# adjacent factors that do not commute swapped.
_LEFT_TO_RIGHT = {
    "_zeta_base": lambda b: (
        b.x * _inv(b, "xu") * b.y,
        b.x * b.y * _inv(b, "xu"),
    ),
    "_xy_over_yu": lambda b: (
        b.x * b.y * _inv(b, "yu"),
        b.y * b.x * _inv(b, "yu"),
    ),
    "conjecture_lhs_series": lambda b: (
        b.x * _inv(b, "xu") * b.y * _inv(b, "xw", "yv") * b.lin("xw"),
        b.x * _inv(b, "xu") * _inv(b, "xw", "yv") * b.y * b.lin("xw"),
    ),
    "conjecture_lhs_split_form": lambda b: (
        b.x * _inv(b, "xu") * b.y + b.x * _inv(b, "xu") * b.y * _inv(b, "xw", "yv") * b.y * b.v,
        b.x * b.y * _inv(b, "xu") + b.x * _inv(b, "xu") * b.y * _inv(b, "xw", "yv") * b.y * b.v,
    ),
    "duality_k1_lhs": lambda b: (
        b.x * _inv(b, "xu") * b.y * _inv(b, "xw", "yv") * b.y
        - b.x * _inv(b, "xv", "yw") * b.x * b.y * _inv(b, "yu"),
        b.x * _inv(b, "xu") * b.y * _inv(b, "xw", "yv") * b.y
        - b.x * b.x * _inv(b, "xv", "yw") * b.y * _inv(b, "yu"),
    ),
    "_inner1": lambda b: (
        b.x * geometric_inverse(b.kernel()) * b.y * _inv(b, "xw") * b.lin("xw", "yw"),
        b.x * geometric_inverse(b.kernel()) * _inv(b, "xw") * b.y * b.lin("xw", "yw"),
    ),
    "_inner2": lambda b: (
        b.x * geometric_inverse(b.kernel("yw")) * b.lin("xu", "yu") * b.x * _inv(b, "xu") * b.y,
        b.x * geometric_inverse(b.kernel("yw")) * b.x * b.lin("xu", "yu") * _inv(b, "xu") * b.y,
    ),
}


class TestGroupingMatchesLeftToRight:
    # Truncated products are associative, so each builder's grouping must
    # give exactly the left-to-right product. A builder that takes only an
    # order is run on Delta_var blocks by patching _Blocks.
    @pytest.mark.parametrize("order", range(1, 8))
    @pytest.mark.parametrize("var", [None, "u", "v", "w"])
    @pytest.mark.parametrize("name", _LEFT_TO_RIGHT)
    def test_equals_left_to_right_and_not_swapped(self, monkeypatch, name, var, order):
        import mzvkit.identities as identities

        blocks = identities._Blocks
        b = blocks(order, var)
        oracle, swapped = _LEFT_TO_RIGHT[name](b)
        if name.startswith("_"):
            built = getattr(identities, name)(b)
        else:
            monkeypatch.setattr(identities, "_Blocks", lambda n: blocks(n, var))
            built = getattr(identities, name)(order)
        assert built == oracle
        # the control: a slip in the factor order would be caught
        assert swapped != oracle


class TestProofSteps:
    def test_all_pass(self):
        reports = verify_proof_steps(6)
        assert len(reports) == 5
        assert all(r.passed for r in reports)

    def test_negative_control_fails(self):
        report = lemma2_swapped_control(6)
        assert not report.passed
        assert (report.failing_monomial, report.failing_diff) == ((1, 0, 1), "xy - yx")

    @pytest.mark.parametrize("order", [1, 0, -1])
    def test_negative_control_refuses_a_vacuous_order(self, order):
        # below order 2 the swapped factors agree, so the control cannot fail
        with pytest.raises(ValueError, match="order must be >= 2"):
            lemma2_swapped_control(order)


class TestFailureLocalization:
    def test_perturbation_reported_at_first_differing_monomial(self):
        f = conjecture_lhs_series(4)
        bump = Series3.single(P("xy", Fraction(1, 7)), (0, 1, 1), 4)
        report = compare_series("perturbed", f, f + bump)
        assert not report.passed
        assert report.failing_monomial == (0, 1, 1)
        assert report.failing_diff == "-1/7*xy"

    def test_equal_series_of_different_orders_pass_at_the_smaller(self):
        f = conjecture_lhs_series(5)
        short = Series3(3, f.items())
        for lhs, rhs in ((f, short), (short, f)):
            assert compare_series("truncated", lhs, rhs) == IdentityReport("truncated", 3, True)
        assert compare_series("same", f, f) == IdentityReport("same", 5, True)

    def test_report_json(self):
        r = IdentityReport("demo", 4, False, (1, 0, 0), "xy")
        d = r.to_dict()
        assert d["failing_monomial"] == [1, 0, 0]
        assert not d["passed"]
