import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polys
from mzvkit.ncpoly import NcPoly, all_words
from mzvkit.series import (
    NotDivisibleError,
    Series3,
    _apply_big_derivation,
    delta_exp,
    delta_on_series,
    delta_subst,
    divide,
    divide_by_v_minus_w,
    geometric_inverse,
)


def P(w, c=1):
    return NcPoly.word(w, c)


def one(order):
    return Series3.scalar(1, order)


class TestArithmetic:
    def test_central_variables_noncentral_letters(self):
        xu = Series3.single(P("x"), (1, 0, 0), 4)
        yv = Series3.single(P("y"), (0, 1, 0), 4)
        assert (xu * yv).coeff((1, 1, 0)) == P("xy")
        assert (yv * xu).coeff((1, 1, 0)) == P("yx")

    def test_coeff_lookup(self):
        f = one(3) + Series3.single(P("x"), (1, 0, 0), 3)
        assert f.coeff((1, 0, 0)) == P("x")
        assert f.coeff((0, 1, 0)) == NcPoly.zero()

    def test_truncation_kills_high_degree(self):
        n = 3
        xu = Series3.single(P("x"), (1, 0, 0), n)
        p = one(n)
        for _ in range(n + 1):
            p = p * xu
        assert p.is_zero()

    @pytest.mark.parametrize("other", [1, NcPoly.one()], ids=["int", "ncpoly"])
    def test_foreign_operand_is_type_error(self, other):
        # NotImplemented from Series3, so Python raises TypeError
        with pytest.raises(TypeError):
            Series3.scalar(1, 2) + other
        with pytest.raises(TypeError):
            Series3.scalar(1, 2) - other

    def test_json_roundtrip(self):
        f = one(2) + Series3.single(P("xy", Fraction(-1, 3)), (1, 0, 1), 2)
        assert f.to_dict() == {"order": 2, "terms": [
            {"u": 0, "v": 0, "w": 0, "poly": {"terms": [{"word": "", "coeff": "1"}]}},
            {"u": 1, "v": 0, "w": 1, "poly": {"terms": [{"word": "xy", "coeff": "-1/3"}]}},
        ]}


class TestConstructor:
    def test_drops_zero_coefficient(self):
        assert Series3(3, {(0, 0, 0): NcPoly.zero()}).is_zero()

    def test_drops_cancelling_entries(self):
        f = Series3(3, [((1, 0, 0), P("xy")), ((1, 0, 0), P("xy", -1))])
        assert f.is_zero()
        assert f == Series3(3)

    def test_drops_terms_above_order(self):
        f = Series3(2, [((1, 1, 1), P("x")), ((0, 0, 1), P("y"))])
        assert f.items() == [((0, 0, 1), P("y"))]

    def test_rejects_negative_exponent(self):
        # a monomial's degree indexes its layer, so (0, -1, 1) must not
        # land in layer 0
        with pytest.raises(ValueError):
            Series3(2, [((0, -1, 1), P("x"))])


class TestGradedStorageOracle:
    """Series3 against a plain model: an order and a dict from monomial to
    nonzero coefficient, with every operation written out term by term."""

    @staticmethod
    def _poly(rng):
        # multi-word coefficients; a few cancel to zero; int and Fraction
        # mixed, so products and sums reach integral Fractions
        terms = [("".join(rng.choice("xy") for _ in range(rng.randrange(4))),
                  rng.choice((-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3))))
                 for _ in range(rng.randrange(1, 4))]
        return NcPoly(terms)

    def _random(self, rng, order):
        # exponents reach order+1, so some terms sit above the order
        terms = [(tuple(rng.randrange(order + 2) for _ in range(3)), self._poly(rng))
                 for _ in range(rng.randrange(12))]
        return Series3(order, terms), self._sum(order, terms)

    @staticmethod
    def _model_of(f):
        return (f.order, dict(f.items()))

    @staticmethod
    def _sum(order, pairs):
        acc = {}
        for m, p in pairs:
            if sum(m) <= order:
                acc[m] = acc.get(m, NcPoly.zero()) + p
        return (order, {m: p for m, p in acc.items() if p})

    def test_against_monomial_dict_model(self):
        rng = random.Random(20261018)
        key = lambda kv: (sum(kv[0]), kv[0])  # noqa: E731
        for _ in range(120):
            f, (nf, mf) = self._random(rng, rng.randrange(7))
            g, (ng, mg) = self._random(rng, rng.randrange(7))
            n = min(nf, ng)
            assert f.order == nf
            assert f.items() == sorted(mf.items(), key=key)
            assert self._model_of(f + g) == self._sum(n, [*mf.items(), *mg.items()])
            assert self._model_of(f - g) == self._sum(
                n, [*mf.items(), *((m, -p) for m, p in mg.items())]
            )
            assert self._model_of(f * g) == self._sum(n, [
                (tuple(a + b for a, b in zip(m1, m2)), p * q)
                for m1, p in mf.items() for m2, q in mg.items()
            ])
            for k in (0, nf - 1, nf, nf + 2):
                if k >= 0:
                    assert self._model_of(Series3(k, f.items())) == self._sum(k, mf.items())
            first = min(mf.items(), key=key)[0] if mf else None
            assert f.first_nonzero() == first
            assert f.is_zero() == (not mf)
            assert f.coeff((nf + 1, 0, 0)) == NcPoly.zero()
            assert f.coeff((0, 0, nf + 3)) == NcPoly.zero()
            assert (f == g) == ((nf, mf) == (ng, mg))
            assert (f == Series3(nf + 1, f.items())) is False
            assert Series3(nf, Series3(nf + 1, f.items()).items()) == f


class TestGeometricInverse:
    def test_geometric_series(self):
        n = 6
        f = one(n) - Series3.single(P("x"), (1, 0, 0), n)
        g = geometric_inverse(f)
        for m in range(n + 1):
            assert g.coeff((m, 0, 0)) == (P("x" * m) if m else NcPoly.one())

    def test_two_variable_neumann_by_hand(self):
        n = 2
        f = (
            one(n)
            - Series3.single(P("x"), (0, 0, 1), n)
            - Series3.single(P("y"), (0, 1, 0), n)
        )
        g = geometric_inverse(f)
        assert g.coeff((0, 0, 0)) == NcPoly.one()
        assert g.coeff((0, 0, 1)) == P("x")
        assert g.coeff((0, 1, 0)) == P("y")
        assert g.coeff((0, 0, 2)) == P("xx")
        assert g.coeff((0, 1, 1)) == P("xy") + P("yx")
        assert g.coeff((0, 2, 0)) == P("yy")

    def test_two_sided(self):
        n = 4
        f = (
            one(n)
            - Series3.single(P("x"), (1, 0, 0), n)
            - Series3.single(P("yx"), (0, 1, 1), n)
        )
        g = geometric_inverse(f)
        assert f * g == one(n)
        assert g * f == one(n)

    def test_random_three_variable_against_neumann_sum(self):
        # e = 1 - f has multi-word coefficients at degrees 1, 2 and 3
        n = 5
        rng = random.Random(20261018)

        def poly():
            return NcPoly(
                ("".join(rng.choice("xy") for _ in range(rng.randrange(1, 4))),
                 Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1)))
                for _ in range(3)
            )

        monos = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (2, 0, 0),
                 (1, 1, 1), (0, 0, 3), (2, 1, 0)]
        e = Series3(n, [(m, poly()) for m in monos])
        assert {sum(m) for m, _ in e.items()} == {1, 2, 3}
        assert all(len(p) > 1 for _, p in e.items())
        f = one(n) - e
        g = geometric_inverse(f)
        assert f * g == one(n)
        assert g * f == one(n)
        neumann, power = one(n), one(n)
        for _ in range(n):
            power = power * e
            neumann = neumann + power
        assert g == neumann

    def test_inverse_of_inverse(self):
        n = 4
        f = one(n) - Series3.single(P("x"), (1, 0, 0), n)
        assert geometric_inverse(geometric_inverse(f)) == f

    def test_rejects_bad_constant_term(self):
        with pytest.raises(ValueError):
            geometric_inverse(Series3.single(P("x"), (1, 0, 0), 3))
        with pytest.raises(ValueError):
            geometric_inverse(Series3.scalar(2, 3))


class TestDivide:
    """divide(f, g) is the z with f*z = g, and divide(f, g, left=False) the
    z with z*f = g, exactly, over noncommuting coefficients."""

    @staticmethod
    def _random(rng, order, constant):
        # multi-word int and Fraction coefficients; without constant, no
        # term sits at degree 0
        terms = []
        for _ in range(rng.randrange(1, 10)):
            d = rng.randint(0 if constant else 1, max(order, 1))
            a = rng.randint(0, d)
            b = rng.randint(0, d - a)
            terms.append(((a, b, d - a - b), TestGradedStorageOracle._poly(rng)))
        return Series3(order, terms)

    @pytest.mark.parametrize("order", range(7))
    def test_random_quotients_solve_their_side(self, order):
        rng = random.Random(20261020 + order)
        for _ in range(15):
            f = one(order) + self._random(rng, order, constant=False)
            g = self._random(rng, order, constant=True)
            assert f * divide(f, g) == g
            assert divide(f, g, left=False) * f == g

    def test_sides_differ_and_a_swapped_side_fails(self):
        # 1/(1-xu) y = sum x^m y u^m, y 1/(1-xu) = sum y x^m u^m
        n = 4
        f = one(n) - Series3.single(P("x"), (1, 0, 0), n)
        g = Series3.from_poly(P("y"), n)
        left, right = divide(f, g), divide(f, g, left=False)
        for m in range(n + 1):
            assert left.coeff((m, 0, 0)) == P("x" * m + "y")
            assert right.coeff((m, 0, 0)) == P("y" + "x" * m)
        assert left != right
        assert f * right != g
        assert left * f != g

    def test_order_is_the_smaller(self):
        f = one(3) - Series3.single(P("x"), (0, 1, 0), 3)
        g = Series3.single(P("y"), (0, 0, 1), 5)
        assert divide(f, g).order == 3
        assert divide(f, Series3(2, g.items()), left=False).order == 2

    @pytest.mark.parametrize("constant", [
        NcPoly.zero(), NcPoly.one().scale(2), NcPoly.one().scale(-1),
        NcPoly.one() + P("x"), P("x"),
    ])
    def test_rejects_constant_term_other_than_one(self, constant):
        f = Series3(3, {(0, 0, 0): constant, (1, 0, 0): P("y")})
        g = Series3.from_poly(P("y"), 3)
        for left in (True, False):
            with pytest.raises(ValueError, match="constant term != 1"):
                divide(f, g, left)


class TestDeltaSubst:
    def test_on_x(self):
        s = delta_subst("u", P("x"), 2)
        assert s.coeff((0, 0, 0)) == P("x")
        assert s.coeff((1, 0, 0)) == P("xy")
        assert s.coeff((2, 0, 0)) == P("xyy")

    def test_on_y(self):
        s = delta_subst("u", P("y"), 2)
        assert s.coeff((0, 0, 0)) == P("y")
        assert s.coeff((1, 0, 0)) == P("xy", -1)
        assert s.coeff((2, 0, 0)) == P("xyy", -1)

    def test_on_x_closed_form_at_high_order(self):
        # Delta_t(x) = sum_m x y^m t^m, term by term
        n = 3000
        assert delta_subst("u", P("x"), n) == Series3(
            n, {(m, 0, 0): P("x" + "y" * m) for m in range(n + 1)}
        )

    def test_fixes_x_plus_y(self):
        for var in "uvw":
            for n in (1, 5, 12):
                s = delta_subst(var, P("x") + P("y"), n)
                assert s == Series3.from_poly(P("x") + P("y"), n)

    @given(polys, polys, st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_homomorphism(self, p, q, n):
        assert delta_subst("u", p * q, n) == delta_subst("u", p, n) * delta_subst(
            "u", q, n
        )

    def test_closed_form_vs_rational_expression(self):
        # Delta_u(x) = x/(1-yu) and Delta_u(y) = (1-xu-yu) y/(1-yu),
        # rebuilt from series primitives
        n = 5
        yu = Series3.single(P("y"), (1, 0, 0), n)
        xu = Series3.single(P("x"), (1, 0, 0), n)
        inv = geometric_inverse(one(n) - yu)
        assert delta_subst("u", P("x"), n) == Series3.from_poly(P("x"), n) * inv
        assert (
            delta_subst("u", P("y"), n)
            == (one(n) - xu - yu) * Series3.from_poly(P("y"), n) * inv
        )


class TestDeltaExp:
    def test_one_step_on_x(self):
        s = delta_exp("u", P("x"), 1)
        assert s.coeff((0, 0, 0)) == P("x")
        assert s.coeff((1, 0, 0)) == P("xy")

    def test_on_identity(self):
        for n in (0, 3, 6):
            assert delta_exp("u", NcPoly.one(), n) == one(n)

    def test_matches_subst_random_weight8(self):
        rng = random.Random(20260823)
        ws = ["".join(rng.choice("xy") for _ in range(8)) for _ in range(100)]
        for w in ws:
            for n in range(0, 5):
                assert delta_exp("v", P(w), n) == delta_subst("v", P(w), n)

    @given(polys, st.sampled_from("uvw"), st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_subst_on_rational_polys(self, p, var, n):
        assert delta_exp(var, p, n) == delta_subst(var, p, n)

    def test_fixes_x_plus_y_at_order_12(self):
        # d_n(x + y) = 0, so the first power of D is zero and the sum stops
        s = P("x") + P("y")
        for var in "uvw":
            assert delta_exp(var, s, 12) == Series3.from_poly(s, 12)

    def test_powers_of_the_scaled_derivation_are_integral(self):
        n = 6
        big = 60  # lcm(1..6)
        cur = Series3(n, {(0, 0, 0): P("xyx", 3) + P("yy", -2), (0, 1, 0): P("x", 5)})
        for _ in range(n):
            cur = _apply_big_derivation("u", cur, big)
            assert not cur.is_zero()
            assert all(type(c) is int for _, q in cur.items() for c in q.terms.values())

    def test_uses_no_closed_form_image(self, monkeypatch):
        # the oracle reaches Delta_t through derivation alone
        import mzvkit.series as series_mod

        def closed_form(*args):
            raise AssertionError("closed-form Delta_t called")

        expected = delta_subst("u", P("xxy"), 5)
        for name in ("_delta_word", "_delta_letter", "delta_on_series"):
            monkeypatch.setattr(series_mod, name, closed_form)
        assert delta_exp("u", P("xxy"), 5) == expected


class TestDeltaOnSeries:
    def test_paper_lemma_on_1_minus_xu(self):
        n = 6
        xu = Series3.single(P("x"), (1, 0, 0), n)
        yu = Series3.single(P("y"), (1, 0, 0), n)
        lhs = delta_on_series("u", one(n) - xu)
        rhs = (one(n) - xu - yu) * geometric_inverse(one(n) - yu)
        assert lhs == rhs

    def test_fixes_scalar_series(self):
        n = 4
        f = one(n) + Series3.single(NcPoly.one(), (1, 0, 1), n).scale(Fraction(2, 3))
        assert delta_on_series("v", f) == f

    def test_fixed_points(self):
        n = 4
        s = P("x") + P("y")
        f = Series3.from_poly(s, n) + Series3.single(s, (1, 0, 0), n)
        assert delta_on_series("u", f) == f

    def test_homomorphism_on_series(self):
        n = 4
        f = one(n) - Series3.single(P("x"), (1, 0, 0), n)
        g = one(n) + Series3.single(P("yx"), (0, 1, 0), n)
        assert delta_on_series("u", f * g) == delta_on_series("u", f) * delta_on_series(
            "u", g
        )


def _quotient_by_expansion(g: Series3) -> Series3:
    """The independent oracle for divide_by_v_minus_w: a separate pass
    sums each layer's w=v diagonal and raises at its first nonzero
    monomial; then each term p u^a v^b w^c expands to
    sum_{i<b} p u^a v^i w^(b-1-i+c)."""
    for d in range(g.order + 1):
        diagonal = {}
        for (a, b, c), p in g.items():
            if a + b + c == d:
                diagonal[(a, b + c, 0)] = diagonal.get((a, b + c, 0), NcPoly.zero()) + p
        nonzero = sorted(m for m, p in diagonal.items() if p)
        if nonzero:
            raise NotDivisibleError(nonzero[0], diagonal[nonzero[0]])
    return Series3(g.order - 1, [
        ((a, i, b - 1 - i + c), p) for (a, b, c), p in g.items() for i in range(b)
    ])


def _random_poly(rng) -> NcPoly:
    """Up to three random words with random nonzero Fraction coefficients."""
    return NcPoly(
        ("".join(rng.choice("xy") for _ in range(rng.randrange(4))),
         Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1)))
        for _ in range(3)
    )


def _random_series(rng, order, degrees, count=30):
    """count random terms of total degree in degrees, with u-degrees
    0..order and _random_poly coefficients."""
    terms = []
    for _ in range(count):
        d = rng.choice(degrees)
        a = rng.randrange(d + 1)
        b = rng.randrange(d - a + 1)
        terms.append(((a, b, d - a - b), _random_poly(rng)))
    return Series3(order, terms)


class TestDivideByVMinusWAgainstExpansion:
    # The running-sum division against the per-term expansion, on seeded
    # random series over several u-degrees.
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_same_quotient_of_a_multiple(self, n, seed):
        rng = random.Random(1000 * n + seed)
        h = _random_series(rng, n, range(n))
        v = Series3.single(NcPoly.one(), (0, 1, 0), n)
        w = Series3.single(NcPoly.one(), (0, 0, 1), n)
        g = (v - w) * h
        assert len({a for (a, _, _), _ in g.items()}) > 1
        q = divide_by_v_minus_w(g)
        assert q == _quotient_by_expansion(g)
        assert q == Series3(n - 1, h.items())

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("first_bad", [0, 1, 2, 4])
    def test_same_error_when_not_divisible(self, first_bad, seed):
        # every layer below first_bad divides; the terms added at first_bad
        # and above break the diagonal there
        n = 6
        rng = random.Random(100 * first_bad + seed)
        v = Series3.single(NcPoly.one(), (0, 1, 0), n)
        w = Series3.single(NcPoly.one(), (0, 0, 1), n)
        g = (
            (v - w) * _random_series(rng, n, range(n))
            + _random_series(rng, n, [first_bad], count=3)
            + _random_series(rng, n, range(first_bad + 1, n + 1), count=8)
        )
        with pytest.raises(NotDivisibleError) as expected:
            _quotient_by_expansion(g)
        assert sum(expected.value.monomial) == first_bad
        with pytest.raises(NotDivisibleError) as info:
            divide_by_v_minus_w(g)
        assert info.value.monomial == expected.value.monomial
        assert info.value.coeff == expected.value.coeff


class TestDivideByVMinusW:
    def test_simple_factor(self):
        n = 4
        v = Series3.single(NcPoly.one(), (0, 1, 0), n)
        w = Series3.single(NcPoly.one(), (0, 0, 1), n)
        g = (v - w) * Series3.from_poly(P("xy"), n)
        q = divide_by_v_minus_w(g)
        assert q == Series3.from_poly(P("xy"), n - 1)

    def test_v2_minus_w2(self):
        n = 4
        v = Series3.single(NcPoly.one(), (0, 1, 0), n)
        w = Series3.single(NcPoly.one(), (0, 0, 1), n)
        q = divide_by_v_minus_w(v * v - w * w)
        assert q == Series3(n - 1, (v + w).items())

    def test_exactness_property(self):
        n = 5
        v = Series3.single(NcPoly.one(), (0, 1, 0), n)
        w = Series3.single(NcPoly.one(), (0, 0, 1), n)
        u = Series3.single(P("x"), (1, 0, 0), n)
        g = (v - w) * (one(n) + u + v * w.scale(Fraction(1, 2)))
        q = divide_by_v_minus_w(g)
        assert Series3(n - 1, (v - w).items()) * q == Series3(n - 1, g.items())

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_whole_quotient_of_random_multiple(self, n):
        # h has multi-word coefficients, v-exponents up to n-1 and total
        # degree <= n-1, so (v-w)*h is exact at order n
        rng = random.Random(20261018 + n)
        terms = [((0, n - 1, 0), _random_poly(rng))]
        for _ in range(30):
            b = rng.randrange(n)
            a = rng.randrange(n - b)
            terms.append(((a, b, rng.randrange(n - a - b)), _random_poly(rng)))
        h = Series3(n, terms)
        assert max(b for (_, b, _), _ in h.items()) == n - 1
        assert max(len(p) for _, p in h.items()) > 1
        v = Series3.single(NcPoly.one(), (0, 1, 0), n)
        w = Series3.single(NcPoly.one(), (0, 0, 1), n)
        assert divide_by_v_minus_w((v - w) * h) == Series3(n - 1, h.items())

    def test_error_names_first_diagonal_monomial(self):
        n = 3
        v = Series3.single(NcPoly.one(), (0, 1, 0), n)
        w = Series3.single(NcPoly.one(), (0, 0, 1), n)
        g = (v - w) * v + Series3.single(P("xy", 2), (1, 0, 1), n) + v * w * w
        with pytest.raises(NotDivisibleError) as info:
            divide_by_v_minus_w(g)
        # w=v sends u*w to u*v and v*w^2 to v^3; u*v has the lower degree
        assert info.value.monomial == (1, 1, 0)
        assert info.value.coeff == P("xy", 2)

    def test_order_zero(self):
        # the diagonal is tested before the order: a nonzero constant is a
        # nonzero diagonal, and a zero one has no quotient of order -1
        with pytest.raises(NotDivisibleError) as info:
            divide_by_v_minus_w(Series3.from_poly(P("xy"), 0))
        assert (info.value.monomial, info.value.coeff) == ((0, 0, 0), P("xy"))
        with pytest.raises(ValueError) as info:
            divide_by_v_minus_w(Series3(0))
        assert not isinstance(info.value, NotDivisibleError)

    def test_rejects_nonvanishing_diagonal(self):
        n = 3
        v = Series3.single(NcPoly.one(), (0, 1, 0), n)
        with pytest.raises(ValueError):
            divide_by_v_minus_w(one(n) + v)
