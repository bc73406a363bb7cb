"""Acceptance gate: thirteen criteria, each a single test with exact equality.

Every test prints one `[Cnn] PASS` line when its criterion holds; under
`pytest -v` each criterion also gets its own PASSED/FAILED line. No
tolerances anywhere: integers and Fractions compare with ==.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import b2tensor
from b2tensor import closed_forms as cf
from b2tensor.engine import (
    decomposition,
    iterate_single_step,
    m_extended,
    recur_multiplicity,
    single_step_decompose,
    tensor_with_vector,
)
from b2tensor.fans import (
    diff_report,
    fan_closed_form,
    fan_power_direct,
    fan_recursion_solve,
    fan_with_zero,
    singular_power_direct,
    singular_power_projected,
    spinor_singular_closed,
    vector_singular_closed,
)
from b2tensor.lattice import Weight, dim_irrep
from b2tensor.series import denominator_product, singular_element, weight_multiplicities
from conftest import halo_weights


def ok(tag: str, detail: str) -> None:
    print(f"[{tag}] PASS  {detail}")


def test_c01_four_routes_agree_within_budget():
    # brute antisymmetrization, weight-shift recursion, fan recursion and
    # iterated single-step products: identical decompositions, p <= 10
    start = time.monotonic()
    pairs = 0
    for mod in ("vector", "spinor"):
        recs = recur_multiplicity(mod, 10)
        for p in range(11):
            a = decomposition(mod, p)
            assert a == recs[p].to_result()
            assert a == fan_recursion_solve(mod, p).to_result()
            assert a == iterate_single_step(mod, p)
            pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    ok("C01", f"4 routes identical on {pairs} (module,p) pairs in {elapsed:.2f}s")


def test_c02_dimension_identity():
    for mod, dim in (("vector", 5), ("spinor", 4)):
        recs = recur_multiplicity(mod, 14)
        for p in range(15):
            total = sum(m * dim_irrep(w) for w, m in recs[p].multiplicities)
            assert total == dim**p, (mod, p)
    ok("C02", "sum of mult * dim == 5^p and 4^p for p <= 14")


def test_c03_near_top_multiplicity_and_singular_contribution():
    recs = recur_multiplicity("vector", 30)
    for p in range(2, 31):
        assert recs[p](Weight.make(p - 2, 1)) == (p - 1) * (p - 2) // 2, p
    for p in range(2, 9):
        assert singular_power_projected("vector", p).coeff(Weight.make(p - 2, 1)) == p * (p - 1), p
    ok("C03", "M(p-2,1) == (p-1)(p-2)/2 for p <= 30; Pi(p-2,1) == p(p-1) for p <= 8")


def test_c04_vector_table():
    cells = 0
    for p in [2, 3] + list(range(6, 15)):
        for i in range(4):
            for j in range(4):
                want = m_extended("vector", p, cf.vector_table_weight(i, j, p))
                assert cf.vector_table(i, j, p) == want, (p, i, j)
                cells += 1
    ok("C04", f"{cells} vector-table cells (zeros included) match extended M")


def test_c05_spinor_table():
    for p in range(2, 15):
        for (a, b) in cf.SPINOR_TABLE_KEYS:
            want = m_extended("spinor", p, cf.spinor_table_weight(a, b, p))
            assert cf.spinor_table(a, b, p) == want, (p, a, b)
        for b in (1, 2, 3):
            for a in (Fraction(1, 2), Fraction(3, 2)):
                assert cf.spinor_table(a, b, p) == 0, (p, a, b)
    assert cf.spinor_table(2, 2, 2) == -1
    ok("C05", "8 spinor entries for p <= 14, half columns vanish, extended spot == -1")


def test_c06_diagonal_families():
    for s in (1, 2, 3):
        for p in range(1, 15):
            for t in range(p + 1):
                want = m_extended("vector", p, cf.diagonal_weight(s, t, p))
                assert cf.diagonal_formula(s, t, p) == want, (s, t, p)
    for s in (4, 6):
        for t in range(7):
            for p in range(1, 15):
                want = m_extended("vector", p, cf.diagonal_weight(s, t, p))
                assert cf.diagonal_formula(s, t, p) == want, (s, t, p)
    for t in range(7):
        # printed s=5 bracket reuses the s=4 coefficients and fails first at p=t+1
        p = t + 1
        want = m_extended("vector", p, cf.diagonal_weight(5, t, p))
        assert cf.diagonal_formula(5, t, p) != want, t
        for p in range(1, 15):
            want = m_extended("vector", p, cf.diagonal_weight(5, t, p))
            assert cf.diagonal_formula(5, t, p, corrected=True) == want, (t, p)
    for p in range(2, 15):
        for a in (0, 1, 2):
            assert cf.diagonal_formula(1, a, p) == cf.spinor_table(a, 1, p), (a, p)
    ok("C06", "s=1..3 exact for p <= 14, t <= p; s=4,6 exact; corrected s=5 exact; s=1 == spinor line")


def test_c07_vector_products_multiplicity_free():
    n = 0
    for d1 in range(0, 17):
        for d2 in range(d1 % 2, d1 + 1, 2):
            mu = Weight(d1, d2)
            summands = tensor_with_vector(mu)
            direct = single_step_decompose(mu, "vector")
            assert sorted(direct) == list(summands), mu.text()
            assert all(v == 1 for v in direct.values()), mu.text()
            assert sum(dim_irrep(nu) for nu in summands) == 5 * dim_irrep(mu), mu.text()
            n += 1
    assert sorted(dim_irrep(w) for w in tensor_with_vector(Weight(1, 1))) == [4, 16]
    ok("C07", f"{n} products with the vector module multiplicity free; edge 4+16 holds")


def test_c08_fan_identity():
    for mod in ("vector", "spinor"):
        for p in range(1, 9):
            lhs = fan_power_direct(p) * singular_power_direct(mod, p)
            assert lhs == singular_power_projected(mod, p), (mod, p)
    for mod in ("vector", "spinor"):
        fan = fan_with_zero(3)
        phi = singular_power_direct(mod, 3)
        pi = singular_power_projected(mod, 3)
        for w in halo_weights(pi):
            assert pi.coeff(w) + sum(c * phi.coeff(w + g) for g, c in fan.items()) == 0
    ok("C08", "R^(p-1) * Phi == Pi for p <= 8, both modules; pointwise sum vanishes at p=3")


def test_c09_closed_forms_and_printed_diffs():
    points = 0
    for p in range(1, 9):
        truth = fan_with_zero(p)
        for w in halo_weights(truth):
            if w.d1 % 2 == 0 and w.d2 % 2 == 0:
                assert fan_closed_form(p, w.d1 // 2, w.d2 // 2) == truth.coeff(w), (p, w.text())
                points += 1
        for mod, closed in (("vector", vector_singular_closed), ("spinor", spinor_singular_closed)):
            pi = singular_power_projected(mod, p)
            for w in halo_weights(pi):
                assert closed(p, w) == pi.coeff(w), (mod, p, w.text())
                points += 1
    for p in range(1, 5):
        for kind in ("fan", "vector", "spinor"):
            assert diff_report(kind, p), (kind, p)
    assert [r for r in diff_report("fan", 2) if r["point"] == "0,0"] == [
        {"point": "0,0", "printed": "0", "direct": "-1"}
    ]
    ok("C09", f"{points} closed-form points equal direct values for p <= 8; strict diffs nonempty")


def test_c10_character_times_denominator():
    R = denominator_product()
    n = 0
    for d1 in range(0, 11):
        for d2 in range(d1 % 2, d1 + 1, 2):
            lam = Weight(d1, d2)
            assert weight_multiplicities(lam) * R == singular_element(lam), lam.text()
            n += 1
    ok("C10", f"ch(lam) * Psi^0 == Psi^lam for {n} dominant lam with first coordinate <= 5")


def test_c11_polynomial_fits_predict():
    recs = recur_multiplicity("vector", 17)
    xs = list(range(6, 15))
    nfits = npred = 0
    for s in (1, 2, 3):
        for t in range(5):
            ys = [recs[p](cf.diagonal_weight(s, t, p)) for p in xs]
            fit = cf.fit_polynomial(xs, ys)
            # (2,0) is identically zero: its front factor carries 1/Gamma(0)
            assert fit.degree == (0 if (s, t) == (2, 0) else s + t - 1), (s, t)
            for p in (15, 16, 17):
                assert fit(p) == recs[p](cf.diagonal_weight(s, t, p)), (s, t, p)
                npred += 1
            nfits += 1
    ok("C11", f"{nfits} certified fits on p=6..14; {npred} out-of-window predictions match")


def test_c12_diagonal_zeros():
    n = 0
    for s in range(1, 7):
        for t in range(0, 16):
            p = 2 * t + s - 2
            if not 1 <= p <= 30:
                continue
            assert cf.diagonal_formula(s, t, p, corrected=(s == 5)) == 0, (s, t)
            assert m_extended("vector", p, cf.diagonal_weight(s, t, p)) == 0, (s, t)
            n += 1
    ok("C12", f"{n} vanishing points at p = 2t+s-2 across all six families, p <= 30")


def test_c13_verify_suite_deterministic():
    # the child imports the package under test, as this process does
    src = str(Path(b2tensor.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "b2tensor", "verify", "--suite", "all", "--pmax", "10",
            "--format", "json"]
    first = subprocess.run(argv, capture_output=True, timeout=300, env=env)
    second = subprocess.run(argv, capture_output=True, timeout=300, env=env)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert b'"fail":0' in first.stdout
    ok("C13", "verify --suite all --pmax 10 exits 0 with byte-identical reruns")
