import re
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import admissible_polys, bits_word, polys, word_bits
from mzvkit.ncpoly import (
    NcPoly,
    accumulate,
    accumulate_scaled,
    admissible_words,
    all_words,
    is_admissible,
)


def P(w, c=1):
    return NcPoly.word(w, c)


class TestLinearOps:
    def test_add_cancellation(self):
        assert P("xy") + P("xxy") + P("xy", -1) == P("xxy")

    def test_scale_zero(self):
        assert P("xxy").scale(0) == NcPoly.zero()

    def test_scale_combines(self):
        assert P("xy").scale(Fraction(3, 2)) + P("xy").scale(Fraction(1, 2)) == P("xy", 2)


class TestAccumulate:
    def test_sums_and_drops_cancelled_keys(self):
        acc = {"x": Fraction(1)}
        pairs = [("y", Fraction(2)), ("x", Fraction(-1)), ("y", Fraction(1, 2))]
        out = accumulate(acc, pairs)
        assert out is acc
        assert acc == {"y": Fraction(5, 2)}

    @pytest.mark.parametrize("factor", [-1, 3, Fraction(1, 2)])
    def test_scaled_sums_adds_and_drops_cancelled_keys(self, factor):
        acc = {"x": 1, "y": 2}
        # y cancels to 0; x sums into an existing key; xy is new
        terms = {"x": 5, "y": Fraction(-2) / factor, "xy": 4}
        out = accumulate_scaled(acc, terms, factor)
        assert out is acc
        assert acc == {"x": 1 + 5 * factor, "xy": 4 * factor}
        assert terms == {"x": 5, "y": Fraction(-2) / factor, "xy": 4}

    def test_constructor_drops_zero_coefficients(self):
        assert NcPoly({"x": 0}) == NcPoly.zero()
        assert NcPoly({"x": 0}).terms == {}

    def test_constructor_drops_cancelling_pairs(self):
        assert NcPoly([("x", 1), ("x", -1)]) == NcPoly.zero()
        assert NcPoly([("x", 1), ("y", 2), ("x", -1)]).terms == {"y": Fraction(2)}


class TestMul:
    def test_noncommutative(self):
        assert P("xy") * P("x") == P("xyx")
        assert P("x") * P("xy") == P("xxy")
        assert P("xy") * P("x") != P("x") * P("xy")

    def test_binomial_square(self):
        s = P("x") + P("y")
        assert s * s == P("xx") + P("xy") + P("yx") + P("yy")

    def test_identity_word(self):
        p = P("xy", 3) + P("yx", -2)
        assert NcPoly.one() * p == p
        assert p * NcPoly.one() == p

    @given(polys, polys, polys)
    def test_associative_distributive(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys, polys)
    def test_weight_graded(self, p, q):
        pq = p * q
        top = max(pq.weights(), default=0)
        for k in range(top + 1):
            expected = NcPoly.zero()
            for i in range(k + 1):
                expected = expected + p.weight_component(i) * q.weight_component(k - i)
            assert pq.weight_component(k) == expected


class TestWeightComponent:
    def test_picks_weight(self):
        p = P("xy") + P("xxy")
        assert p.weight_component(2) == P("xy")
        assert p.weight_component(3) == P("xxy")
        assert p.weight_component(5) == NcPoly.zero()

    @given(polys)
    def test_components_sum_to_whole(self, p):
        total = NcPoly.zero()
        for k in range(max(p.weights(), default=0) + 1):
            total = total + p.weight_component(k)
        assert total == p


class TestAdmissible:
    def test_examples(self):
        assert is_admissible("xxy")
        assert not is_admissible("yx")
        assert is_admissible("")

    @given(admissible_polys, admissible_polys)
    def test_h0_closed_under_mul(self, p, q):
        assert (p * q).admissible_support()

    def test_counts(self):
        assert len(list(admissible_words(5))) == 8
        assert list(admissible_words(2)) == ["xy"]
        assert list(admissible_words(1)) == []


class TestWordEncoding:
    def test_bits_roundtrip(self):
        for k in range(6):
            for w in all_words(k):
                assert bits_word(word_bits(w), k) == w

    def test_length_lex_matches_bits(self):
        ws = list(all_words(4))
        assert ws == sorted(ws)
        assert [word_bits(w) for w in ws] == list(range(16))


class TestSerialization:
    @given(polys)
    def test_json_roundtrip(self, p):
        assert NcPoly.from_dict(p.to_dict()) == p

    @pytest.mark.parametrize(
        "data, field",
        [
            ({}, "terms"),
            ([], "terms"),
            ({"terms": {"word": "xy"}}, "terms"),
            ({"terms": ["xy"]}, "terms[0]"),
            ({"terms": [{"coeff": "1"}]}, "word"),
            ({"terms": [{"word": 3, "coeff": "1"}]}, "word"),
            ({"terms": [{"word": "xy", "coeff": "1"}, {"word": "xy"}]}, "terms[1]"),
            ({"terms": [{"word": "xy", "coeff": "1/0"}]}, "coeff"),
            ({"terms": [{"word": "xy", "coeff": None}]}, "coeff"),
            ({"terms": [{"word": "xay", "coeff": "1"}]}, "'xay'"),
            ({"terms": [{"word": "xz", "coeff": "1"}]}, "terms[0].word"),
        ],
    )
    def test_from_dict_names_bad_field(self, data, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            NcPoly.from_dict(data)

    def test_int_and_equal_fraction_coefficients_agree(self):
        # an int coefficient, the equal Fraction, and an integral Fraction
        # produced by a sum give the same polynomial in every form
        half = NcPoly({"xy": Fraction(1, 2), "y": -2})
        by_int = NcPoly({"xy": 1, "y": -4})
        by_fraction = NcPoly({"xy": Fraction(1), "y": Fraction(-4)})
        by_sum = NcPoly._of({"xy": Fraction(1, 2) + Fraction(1, 2), "y": Fraction(-4)})
        for p in (by_fraction, by_sum, half + half):
            assert p == by_int
            assert hash(p) == hash(by_int)
            assert p.render() == by_int.render() == "-4*y + xy"
            assert p.to_dict() == by_int.to_dict()
        assert type(by_fraction.coeff("xy")) is int
        assert by_int.coeff("x") == 0

    def test_json_shape(self):
        p = P("xxy", Fraction(-3, 2))
        assert p.to_dict() == {"terms": [{"word": "xxy", "coeff": "-3/2"}]}

    def test_canonical_order(self):
        p = P("yy") + P("xy") + P("x")
        assert [w for w, _ in p.items()] == ["x", "xy", "yy"]

    def test_bad_word_rejected(self):
        with pytest.raises(ValueError):
            NcPoly.word("xz")
