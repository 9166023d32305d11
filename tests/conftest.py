from fractions import Fraction

from hypothesis import strategies as st

from mzvkit.ncpoly import NcPoly, X, Y

words = st.text(alphabet="xy", max_size=6)

coeffs = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)

polys = st.dictionaries(words, coeffs, max_size=4).map(NcPoly)

admissible_word_strs = st.one_of(
    st.just(""),
    st.text(alphabet="xy", max_size=4).map(lambda mid: "x" + mid + "y"),
)

admissible_polys = st.dictionaries(admissible_word_strs, coeffs, max_size=3).map(NcPoly)


def word_bits(w: str) -> int:
    """Dense integer index of a word among all words of its weight (x=0, y=1)."""
    b = 0
    for ch in w:
        b = (b << 1) | (ch == Y)
    return b


def bits_word(bits: int, k: int) -> str:
    return "".join(Y if (bits >> (k - 1 - i)) & 1 else X for i in range(k))
