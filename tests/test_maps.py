import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import polys, admissible_polys
from mzvkit.maps import (
    derivation,
    dn_generator,
    dual_index,
    index_from_str,
    index_to_str,
    index_to_word,
    tau,
    tau_word,
    word_to_index,
)
from mzvkit.ncpoly import NcPoly, admissible_words, is_admissible


def P(w, c=1):
    return NcPoly.word(w, c)


class TestTau:
    def test_xy_self_dual(self):
        assert tau_word("xy") == "xy"

    def test_xxy(self):
        assert tau_word("xxy") == "xyy"

    @given(st.text(alphabet="xy", max_size=10))
    def test_involution(self, w):
        assert tau_word(tau_word(w)) == w

    @given(polys, polys)
    def test_anti_automorphism(self, p, q):
        assert tau(p * q) == tau(q) * tau(p)

    @given(polys)
    def test_involution_on_polys(self, p):
        assert tau(tau(p)) == p


class TestDnGenerator:
    def test_n1(self):
        assert dn_generator(1) == P("xy")

    def test_n2(self):
        assert dn_generator(2) == P("xxy") + P("xyy")

    def test_n3(self):
        # x(x+y)^2 y expanded independently via poly_mul
        xy = P("x") + P("y")
        assert dn_generator(3) == P("x") * xy * xy * P("y")
        assert dn_generator(3) == P("xxxy") + P("xxyy") + P("xyxy") + P("xyyy")

    def test_term_count_and_weight(self):
        for n in range(1, 7):
            g = dn_generator(n)
            assert len(g) == 2 ** (n - 1)
            assert g.weights() == [n + 1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            dn_generator(0)


class TestDerivation:
    def test_d1_xy(self):
        assert derivation(1, P("xy")) == P("xyy") + P("xxy", -1)

    def test_d1_xxy(self):
        assert derivation(1, P("xxy")) == P("xyxy") + P("xxyy") + P("xxxy", -1)

    def test_kills_constants_and_x_plus_y(self):
        for n in (1, 2, 3):
            assert derivation(n, NcPoly.one()).is_zero()
            assert derivation(n, P("x") + P("y")).is_zero()

    @given(st.integers(min_value=1, max_value=3), polys, polys)
    def test_leibniz(self, n, p, q):
        assert derivation(n, p * q) == derivation(n, p) * q + p * derivation(n, q)

    @given(st.integers(min_value=1, max_value=4), polys)
    def test_raises_weight_by_n(self, n, p):
        img = derivation(n, p)
        assert all(k - n in p.weights() for k in img.weights())

    def test_kills_powers_of_x_plus_y(self):
        s = P("x") + P("y")
        for n in (1, 2):
            power = s
            for _ in (2, 3, 4):
                power = power * s
                assert derivation(n, power).is_zero()

    def test_maps_h0_into_xhy(self):
        for k in range(2, 9):
            for w in admissible_words(k):
                for n in (1, 2, 3):
                    img = derivation(n, P(w))
                    assert all(
                        v[0] == "x" and v[-1] == "y" for v in img.terms
                    )


class TestIndexWordDictionary:
    @pytest.mark.parametrize(
        "index,word",
        [((3,), "xxy"), ((2, 2), "xyxy"), ((2, 1, 1), "xyyy")],
    )
    def test_examples(self, index, word):
        assert index_to_word(index) == word
        assert word_to_index(word) == index

    def test_roundtrip_all_weight_le_7(self):
        for k in range(1, 8):
            from mzvkit.ncpoly import all_words

            for w in all_words(k):
                if w.endswith("y"):
                    assert index_to_word(word_to_index(w)) == w

    def test_rejects_non_index_words(self):
        for bad in ("", "x", "xyx"):
            with pytest.raises(ValueError):
                word_to_index(bad)

    def test_admissibility_matches(self):
        assert word_to_index("xxy")[0] >= 2
        assert word_to_index("yxy")[0] == 1


class TestDualIndex:
    def test_self_dual(self):
        assert dual_index((2,)) == (2,)

    def test_3_to_21(self):
        assert dual_index((3,)) == (2, 1)

    def test_paper_family(self):
        # zeta(m+1,1,...,1) = zeta(l+1,1,...,1) with l-1 resp. m-1 ones
        for m in range(1, 6):
            for l in range(1, 6):
                i = (m + 1,) + (1,) * (l - 1)
                assert dual_index(i) == (l + 1,) + (1,) * (m - 1)

    def test_involutive_and_weight_preserving(self):
        for k in range(2, 9):
            for w in admissible_words(k):
                i = word_to_index(w)
                d = dual_index(i)
                assert sum(d) == k
                assert dual_index(d) == i

    def test_rejects_non_admissible(self):
        with pytest.raises(ValueError):
            dual_index((1, 2))


class TestIndexText:
    def test_parse_format(self):
        assert index_from_str("(3,1,2)") == (3, 1, 2)
        assert index_to_str((3, 1, 2)) == "(3,1,2)"

    def test_bad(self):
        for bad in ("3,1", "()", "(x)", "(2,0)", "(0)"):
            with pytest.raises(ValueError):
                index_from_str(bad)
