"""Duality (tau) and the derivation family d_n, the two sources of linear
relations this toolkit connects.

Run: python3 demos/02_duality_and_derivations.py
"""

from mzvkit import (
    NcPoly,
    derivation,
    dn_generator,
    dual_index,
    index_to_word,
    tau,
    word_to_index,
)

# tau reverses a word and swaps x <-> y; on indices it is MZV duality.
print("tau(xxy) =", tau(NcPoly.word("xxy")).render())
print("dual of (3)   :", dual_index((3,)))       # zeta(3) = zeta(2,1)
print("dual of (4)   :", dual_index((4,)))       # zeta(4) = zeta(2,1,1)
print("dual of (3,2) :", dual_index((3, 2)))

# The family zeta(m+1, 1^(l-1)) = zeta(l+1, 1^(m-1)):
for m, l in [(1, 2), (2, 3), (3, 5)]:
    i = (m + 1,) + (1,) * (l - 1)
    print(f"  {i} <-> {dual_index(i)}")

# d_n sends x to x(x+y)^(n-1)y and y to its negative, Leibniz elsewhere.
for n in (1, 2, 3):
    print(f"d_{n} generator =", dn_generator(n).render())

p = NcPoly.word("xy")
print("d_1(xy)  =", derivation(1, p).render())   # xyy - xxy: Euler's relation
print("d_2(xxy) =", derivation(2, NcPoly.word("xxy")).render())

# d_n kills x+y, hence all its powers.
s = NcPoly.word("x") + NcPoly.word("y")
print("d_3((x+y)^4) =", derivation(3, s * s * s * s).render())

# Index <-> word dictionary.
w = index_to_word((3, 1, 2))
print("(3,1,2) <->", w, "<->", word_to_index(w))
