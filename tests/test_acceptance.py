"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line printed per criterion (run with -s to see them inline)."""

import json

from mzvkit.cli import main as cli_main
from mzvkit.identities import (
    conjecture_lhs_series,
    lemma2_swapped_control,
    sum_word,
    verify_duality_k1,
    verify_duality_zeta,
    verify_proof_steps,
)
from mzvkit.maps import dual_index, word_to_index
from mzvkit.ncpoly import NcPoly, admissible_words
from mzvkit.numeric import z_eval, zeta_eval
from mzvkit.series import Series3, delta_exp, delta_subst
from mzvkit.span import corollary_check_all, duality_target, membership
from test_span import oracle_member


def report(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"acceptance criterion {num} failed: {text}"


def test_01_duality_zeta_order_12():
    r = verify_duality_zeta(12)
    report(1, r.passed, "Eq-Duality-Zeta exact at order 12")


def test_02_duality_k1_order_8():
    r = verify_duality_k1(8)
    report(2, r.passed, "Eq-Duality-k1 exact at order 8 incl. (v-w) division")


def test_03_proof_lemmas_and_negative_control():
    rs = verify_proof_steps(8)
    ok = len(rs) == 5 and all(r.passed for r in rs)
    control = lemma2_swapped_control(8)
    ok = ok and not control.passed
    report(3, ok, "4 Delta-lemmas + closing identity at order 8; swapped-factor control fails")


def test_04_delta_oracle_equivalence():
    bad = 0
    for k in range(0, 7):
        for w in admissible_words(k):
            p = NcPoly.word(w)
            for n in range(0, 7):
                if delta_exp("u", p, n) != delta_subst("u", p, n):
                    bad += 1
    report(4, bad == 0, "delta_exp == delta_subst, admissible weight <= 6, orders <= 6")


def test_05_delta_fixes_x_plus_y_order_12():
    s = NcPoly.word("x") + NcPoly.word("y")
    ok = True
    for var in "uvw":
        img = delta_subst(var, s, 12)
        ok = ok and img == Series3.from_poly(s, 12)
    report(5, ok, "Delta_t(x+y) = x+y exactly at order 12, all variables")


def test_06_generating_function_consistency():
    f = conjecture_lhs_series(7)
    ok = True
    for k in range(2, 10):
        for m in range(1, k):
            for l in range(1, k - m + 1):
                if f.coeff((m - 1, l - 1, k - m - l)) != sum_word(k, m, l):
                    ok = False
    report(6, ok, "series coefficients == composition enumeration, k <= 9")


def test_07_corollary_weights_3_to_10():
    ok = True
    for k in range(3, 11):
        for m, l, cert in corollary_check_all(k):
            if not cert.verify():
                ok = False
    negative = membership(NcPoly.word("xy"), 2) is None
    report(7, ok and negative, "corollary certified for weights 3..10; weight-2 negative control")


def test_08_solver_oracle_weight_le_6():
    import random
    from fractions import Fraction

    from mzvkit.span import SpanSolver, span_basis

    rng = random.Random(8151)
    cases = 0
    agree = True
    for k in range(3, 7):
        solver = SpanSolver(k)
        gens = span_basis(k).generators
        targets = [
            duality_target(k, m, l)
            for m in range(1, k)
            for l in range(1, k - m + 1)
        ]
        for _ in range(10):
            t = NcPoly.zero()
            for g in rng.sample(gens, min(2, len(gens))):
                t = t + g.image.scale(Fraction(rng.randint(-5, 5)))
            targets.append(t)
            words = ["".join(rng.choice("xy") for _ in range(k)) for _ in range(3)]
            targets.append(NcPoly((w, rng.randint(-2, 2)) for w in words))
        for t in targets:
            cases += 1
            if (solver.membership(t) is not None) != oracle_member(t, k):
                agree = False
    report(8, agree and cases >= 50, f"solver vs rank oracle on {cases} targets, weight <= 6")


def test_09_numeric_residuals():
    euler = z_eval(NcPoly({"xxy": -1, "xyy": 1}), 10 ** 6)
    ok = abs(euler.value) < 1e-4
    zeta2 = zeta_eval((2,), 10 ** 6)
    ok = ok and abs(zeta2.value - 1.6449340668) < 1e-5
    m = 10 ** 5
    for k in range(2, 8):
        for w in admissible_words(k):
            i = word_to_index(w)
            a = zeta_eval(i, m)
            b = zeta_eval(dual_index(i), m)
            if abs(a.value - b.value) > a.tail_bound + b.tail_bound:
                ok = False
    report(9, ok, "Euler residual < 1e-4; duality residuals within tail bounds; zeta(2)")


def test_10_determinism(capsys, tmp_path):
    artifacts = []
    for tag in ("a", "b"):
        pieces = []
        cli_main(["--format", "json", "verify", "theorem", "--order", "5", "--eq", "all"])
        pieces.append(capsys.readouterr().out)
        cert_path = tmp_path / f"certs_{tag}.json"
        cli_main(["--format", "json", "verify", "corollary", "--weight", "6",
                  "--certificates", str(cert_path)])
        pieces.append(capsys.readouterr().out)
        pieces.append(cert_path.read_bytes().decode())
        span_path = tmp_path / f"span_{tag}.json"
        cli_main(["--format", "json", "span", "--weight", "6", "--dump", str(span_path)])
        pieces.append(capsys.readouterr().out)
        pieces.append(span_path.read_bytes().decode())
        artifacts.append(pieces)
    ok = artifacts[0] == artifacts[1]
    with capsys.disabled():
        report(10, ok, "two consecutive full runs emit byte-identical JSON")
