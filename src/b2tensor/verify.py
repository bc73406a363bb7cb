"""Verification suites: every claim checked against an independent route.

Each check compares two computations that share no code path (closed form vs
convolution, recursion vs antisymmetrization, ...) over an explicit sweep and
reports pass or fail. Known deviations of the published formulas from the
exact values are reported as documented-discrepancy: they are expected, kept
visible, and do not fail a run. All sweeps are exact integer or rational
arithmetic; a single unequal value anywhere is a failure.

Sweep sizes derive from one knob, pmax (default 10): sweeps whose cost grows
quickly stop at pmax or below, polynomial identities run to pmax+4, and the
cheap long recurrences run to 3*pmax. pmax starts at closed_forms.PMAX_MIN,
the first pmax whose fit window 6..pmax+4 certifies a polynomial; every
sweep bound below is written for pmax at or above it.
"""

from __future__ import annotations

import gc
import marshal
import os
import sys
import time
from fractions import Fraction
from functools import partial
from math import comb, isqrt
from typing import NamedTuple

from . import closed_forms as cf
from .engine import (
    band_values,
    decomposition,
    iterate_single_step,
    m_extended,
    recur_multiplicity,
    single_step_decompose,
    tensor_with_vector,
)
from .fans import (
    CLOSED_FORMS,
    closed_form_window,
    diff_report,
    fan_line_structure,
    fan_power_direct,
    fan_recursion_solve,
    fan_step_audit,
    fan_with_zero,
    projected_at,
    singular_power_direct,
    singular_power_projected,
)
from .lattice import FUNDAMENTAL, Weight, dim_irrep
from .series import denominator_product, is_product, singular_element, weight_multiplicities

PASS = "pass"
FAIL = "fail"
DOCUMENTED = "documented-discrepancy"


class CheckResult(NamedTuple):
    name: str
    status: str
    evidence: str
    points: int = 0  # values compared (printed-formula-diffs: differing rows); 0 on failure
    seconds: float = 0.0  # set by run_suite

    def to_json_obj(self) -> dict:
        return {"name": self.name, "status": self.status, "evidence": self.evidence}


class VerificationReport(NamedTuple):
    suite: str
    pmax: int
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, DOCUMENTED: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_json_obj(self) -> dict:
        n = self.counts()
        return {
            "suite": self.suite,
            "pmax": self.pmax,
            "pass": n[PASS],
            "fail": n[FAIL],
            "documented-discrepancy": n[DOCUMENTED],
            "checks": [c.to_json_obj() for c in self.checks],
        }


def _fail(name: str, where: str) -> CheckResult:
    return CheckResult(name, FAIL, f"first mismatch at {where}")


def _claims(module: str, formula, weight, cases):
    """Compare formula(*key, p) with M(weight(*key, p), p) for each (where, key, p) in
    cases: the where of the first mismatch (None if none) and how many matched before it."""
    n = 0
    for where, key, p in cases:
        if formula(*key, p) != m_extended(module, p, weight(*key, p)):
            return where, n
        n += 1
    return None, n


# ---------------------------------------------------------------------------
# oracle agreement


def check_four_routes(pmax: int) -> CheckResult:
    """Brute antisymmetrization, weight-shift recursion, fan recursion and
    repeated single-step products must produce identical decompositions."""
    name = "four-routes-agree"
    n = 0
    recs = {mod: recur_multiplicity(mod, pmax) for mod in FUNDAMENTAL}
    # p outside the modules, so both fan solves at one p share its fan rows
    for p in range(pmax + 1):
        for mod in FUNDAMENTAL:
            a = decomposition(mod, p)
            if not a == recs[mod][p] == fan_recursion_solve(mod, p) == iterate_single_step(mod, p):
                return _fail(name, f"module={mod} p={p}")
            n += 1
    return CheckResult(
        name, PASS, f"4 routes identical on {n} (module,p) pairs, p <= {pmax}", n
    )


def check_dimension_sum(pmax: int) -> CheckResult:
    """Sum of multiplicity times irreducible dimension recovers dim^p."""
    name = "dimension-identity"
    bound = pmax + 4
    for mod, dim in (("vector", 5), ("spinor", 4)):
        recs = recur_multiplicity(mod, bound)
        for p in range(bound + 1):
            total = sum(m * dim_irrep(w) for w, m in recs[p].multiplicities)
            if total != dim**p:
                return _fail(name, f"module={mod} p={p}")
    return CheckResult(
        name, PASS, f"sum m*dim == dim^p for both modules, p <= {bound}", 2 * (bound + 1)
    )


# ---------------------------------------------------------------------------
# published tables


def check_vector_table(pmax: int) -> CheckResult:
    """All 16 cells of the near-highest-weight vector table, including zeros,
    against the extended multiplicity function; large p and the small-p
    region where the polynomials turn negative and match reflected values."""
    name = "vector-table"
    bound = pmax + 4
    powers = [2, 3] + list(range(6, bound + 1))
    cases = (
        (f"p={p} cell=({i},{j})", (i, j), p) for p in powers for i in range(4) for j in range(4)
    )
    bad, n = _claims("vector", cf.vector_table, cf.vector_table_weight, cases)
    if bad:
        return _fail(name, bad)
    return CheckResult(name, PASS, f"16 cells match extended M for p in {{2,3}} and 6..{bound}", n)


def check_spinor_table(pmax: int) -> CheckResult:
    """The eight spinor-table entries, the off-lattice half-integer columns,
    and the p=2 entry whose polynomial value -1 is a reflected multiplicity."""
    name = "spinor-table"
    bound = pmax + 4
    for p in range(2, bound + 1):
        cases = ((f"p={p} entry=({a},{b})", (a, b), p) for a, b in cf.SPINOR_TABLE_KEYS)
        bad, _ = _claims("spinor", cf.spinor_table, cf.spinor_table_weight, cases)
        if bad:
            return _fail(name, bad)
        for b in (1, 2, 3):
            for a in (Fraction(1, 2), Fraction(3, 2)):
                if cf.spinor_table(a, b, p) != 0:
                    return _fail(name, f"p={p} half column ({a},{b})")
                try:
                    cf.spinor_table_weight(a, b, p)
                    return _fail(name, f"p={p} ({a},{b}) unexpectedly on lattice")
                except ValueError:
                    pass
    if cf.spinor_table(2, 2, 2) != -1:
        return _fail(name, "extended spot (2,2) p=2")
    return CheckResult(
        name,
        PASS,
        f"8 entries + 6 off-lattice half columns match for 2 <= p <= {bound}; "
        "extended spot (2,2,p=2) == -1",
        14 * (bound - 1) + 1,
    )


def check_diagonal_low(pmax: int) -> CheckResult:
    """Diagonal families s = 1..3 match the extended multiplicities exactly."""
    name = "diagonal-families-s1-3"
    bound = pmax + 4
    cases = (
        (f"s={s} t={t} p={p}", (s, t), p)
        for s in (1, 2, 3) for p in range(1, bound + 1) for t in range(p + 1)
    )
    bad, n = _claims("vector", cf.diagonal_formula, cf.diagonal_weight, cases)
    if bad:
        return _fail(name, bad)
    return CheckResult(name, PASS, f"{n} points exact for s=1..3, p <= {bound}, 0 <= t <= p", n)


def check_diagonal_high(pmax: int) -> CheckResult:
    """Diagonal families s = 4..6: s=4 and s=6 hold as printed; the printed
    s=5 bracket is wrong at every offset (reusing the s=4 coefficients) and
    first fails at p = t+1; the refitted bracket matches everywhere."""
    name = "diagonal-families-s4-6"
    bound = pmax + 4
    printed, weight = cf.diagonal_formula, cf.diagonal_weight
    powers = range(1, bound + 1)
    cases = ((f"s={s} t={t} p={p}", (s, t), p) for s in (4, 6) for t in range(7) for p in powers)
    bad, n = _claims("vector", printed, weight, cases)
    if bad:
        return _fail(name, bad)
    for t in range(7):
        # the documented discrepancy; where is p, so this is the first printed failure
        first_bad, _ = _claims("vector", printed, weight, ((p, (5, t), p) for p in powers))
        if first_bad != t + 1:
            return _fail(name, f"s=5 t={t}: first printed failure at {first_bad}, expected {t + 1}")
        cases = ((f"s=5 corrected t={t} p={p}", (5, t), p) for p in powers)
        bad, k = _claims("vector", partial(printed, corrected=True), weight, cases)
        if bad:
            return _fail(name, bad)
        n += first_bad + k
    return CheckResult(
        name,
        DOCUMENTED,
        f"s=4 and s=6 exact for t <= 6, p <= {bound}; printed s=5 wrong at every "
        f"t (first failure p=t+1, non-integer values); corrected bracket exact",
        n,
    )


def check_diagonal_spinor_line(pmax: int) -> CheckResult:
    """The s=1 diagonal family reproduces the first spinor-table line."""
    name = "diagonal-spinor-line"
    bound = pmax + 4
    for p in range(2, bound + 1):
        for a in (0, 1, 2):
            if cf.diagonal_formula(1, a, p) != cf.spinor_table(a, 1, p):
                return _fail(name, f"a={a} p={p}")
    return CheckResult(
        name, PASS, f"s=1 values equal spinor entries (a,1) for p <= {bound}", 3 * (bound - 1)
    )


def check_known_window(pmax: int) -> CheckResult:
    """The window of multiplicities around the top vector row: row p is
    0,-1,1,0,0,0 over second coordinate -2..3, row p-1 is 1-p,0,0,p-1,0,0,
    row p-2 carries p(p-3)/2 at 2 and 0 at 3; and M(p-2,1) = (p-1)(p-2)/2
    out to triple the base sweep."""
    name = "known-window"
    long_bound = 3 * pmax
    # the points read: rows p and p-1 over -2..3 and row p-2 at 2 and 3, then (p-2, 1)
    windows = {
        p: [[Weight.make(p - r, d) for d in range(-2, 4)] for r in (0, 1)]
        + [[Weight.make(p - 2, 2), Weight.make(p - 2, 3)]]
        for p in range(5, pmax + 1)
    }
    corners = {p: Weight.make(p - 2, 1) for p in range(2, long_bound + 1)}
    reads = [(p, w) for p, rows in windows.items() for row in rows for w in row]
    reads += corners.items()
    m = dict(zip(reads, band_values("vector", reads)))
    for p, window in windows.items():
        rows = [[m[p, w] for w in row] for row in window]
        if rows[0] != [0, -1, 1, 0, 0, 0]:
            return _fail(name, f"p={p} row p: {rows[0]}")
        if rows[1] != [1 - p, 0, 0, p - 1, 0, 0]:
            return _fail(name, f"p={p} row p-1: {rows[1]}")
        if rows[2] != [p * (p - 3) // 2, 0]:
            return _fail(name, f"p={p} row p-2")
    for p, corner in corners.items():
        if m[p, corner] != (p - 1) * (p - 2) // 2:
            return _fail(name, f"M(p-2,1) at p={p}")
    return CheckResult(
        name,
        PASS,
        f"window rows exact for 5 <= p <= {pmax}; M(p-2,1) == (p-1)(p-2)/2 "
        f"for 2 <= p <= {long_bound}",
        14 * len(windows) + long_bound - 1,
    )


# ---------------------------------------------------------------------------
# closed forms vs direct convolution


def _closed_form_sweep(kind: str, name: str, truth_name: str, pmax: int) -> CheckResult:
    # the validated closed form of `kind` against its truth series, over its window
    form = CLOSED_FORMS[kind]
    bound = pmax - 2
    n = 0
    for p in range(1, bound + 1):
        points, want = closed_form_window(kind, p)
        for pt, got, value in zip(points, form.validated(p, points), want):
            if got != value:
                return _fail(name, f"p={p} point={Weight(*pt).text()}")
        n += len(points)
    return CheckResult(name, PASS, f"{n} points equal {truth_name} for p <= {bound}", n)


def check_fan_closed_form(pmax: int) -> CheckResult:
    """Validated fan closed form equals -R^(p-1) reflected, zero point included,
    over support plus a halo of definitely-zero points."""
    return _closed_form_sweep("fan", "fan-closed-form", "the direct fan", pmax)


def check_vector_singular_closed(pmax: int) -> CheckResult:
    """Validated vector closed form equals the projected power Pi directly."""
    return _closed_form_sweep("vector", "vector-singular-closed-form", "Pi_vector", pmax)


def check_spinor_singular_closed(pmax: int) -> CheckResult:
    """Re-derived spinor closed form equals the projected power Pi directly."""
    return _closed_form_sweep("spinor", "spinor-singular-closed-form", "Pi_spinor", pmax)


def check_diff_reports(pmax: int) -> CheckResult:
    """The verbatim transcriptions differ from the direct values: under the
    strict truncated binomial every report for p = 1..4 is nonempty, e.g. the
    fan value at the origin is -1 but the printed sum gives 0."""
    name = "printed-formula-diffs"
    n = 0
    counts = []
    reports = {}
    for p in range(1, 5):
        row = []
        for kind in CLOSED_FORMS:
            rows = reports[kind, p] = diff_report(kind, p)
            if not rows:
                return _fail(name, f"{kind} p={p}: empty report")
            row.append(len(rows))
            n += len(rows)
        counts.append((p, row))
    origin = [r for r in reports["fan", 2] if r["point"] == "0,0"]
    if origin != [{"point": "0,0", "printed": "0", "direct": "-1"}]:
        return _fail(name, "fan origin row at p=2")
    body = "; ".join(f"p={p}: fan {a}, vector {b}, spinor {c}" for p, (a, b, c) in counts)
    return CheckResult(name, DOCUMENTED, f"nonempty diffs (strict reading): {body}", n)


def check_line_structure(pmax: int) -> CheckResult:
    """Along its lowest alpha1 line the fan R^(p-1) carries (-1)^t C(p-1,t)
    on p points; the published structure claim has C(p,t) on p+1 points,
    which instead describes R^p."""
    name = "fan-line-structure"
    for p in range(2, pmax + 1):
        want = [(t, (-1) ** t * comb(p - 1, t)) for t in range(p)] + [(p, 0)]
        if fan_line_structure(p) != want:
            return _fail(name, f"p={p}")
    return CheckResult(
        name,
        DOCUMENTED,
        f"line values are (-1)^t C(p-1,t) with the (p+1)-th point zero for "
        f"p <= {pmax}; the printed claim C(p,t) on p+1 points describes R^p",
        sum(p + 1 for p in range(2, pmax + 1)),
    )


# ---------------------------------------------------------------------------
# fans against singular elements


def check_fan_identity(pmax: int) -> CheckResult:
    """R^(p-1) * Phi == Pi as series; equivalently the source-inclusive
    pointwise relation sum_gamma gamma_p(gamma) Phi(mu+gamma) + Pi(mu) = 0."""
    name = "fan-identity"
    bound = pmax - 2
    n = 0
    for p in range(1, bound + 1):
        fan = fan_power_direct(p)  # unfolded once for both modules
        for mod in FUNDAMENTAL:
            pi = singular_power_projected(mod, p)
            if not is_product(pi, fan, singular_power_direct(mod, p)):
                return _fail(name, f"module={mod} p={p}")
            n += len(pi)
    fan = fan_with_zero(3).by_tuple()
    phi = singular_power_direct("vector", 3).by_tuple()
    window, source = closed_form_window("vector", 3)  # Pi_vector and its window
    for (d1, d2), value in zip(window, source):
        total = value + sum(
            c * phi.get((d1 + g1, d2 + g2), 0) for (g1, g2), c in fan.items()
        )
        if total != 0:
            return _fail(name, f"pointwise p=3 at {Weight(d1, d2).text()}")
    return CheckResult(
        name,
        PASS,
        f"R^(p-1)*Phi == Pi for both modules, p <= {bound}; pointwise "
        "source-inclusive sum vanishes on the p=3 vector window",
        n + len(window),
    )


def check_singular_contribution(pmax: int) -> CheckResult:
    """The recursion step at (p-2,1): the projected-power source contributes
    p(p-1), the fan lines contribute their published totals, and everything
    sums to the multiplicity (p-1)(p-2)/2."""
    name = "singular-contribution"
    bound = pmax - 2
    for p in range(2, bound + 1):
        if projected_at("vector", p, Weight.make(p - 2, 1)) != p * (p - 1):
            return _fail(name, f"Pi(p-2,1) at p={p}")
    frozen = {
        5: {"lines": [(0, 20), (1, -48), (2, 14)], "singular": 20, "total": 6},
        6: {"lines": [(0, 45), (1, -100), (2, 35)], "singular": 30, "total": 10},
        7: {"lines": [(0, 84), (1, -180), (2, 69)], "singular": 42, "total": 15},
    }
    for p, want in frozen.items():
        audit = fan_step_audit("vector", p, Weight.make(p - 2, 1))
        if audit != want:
            return _fail(name, f"audit p={p}: {audit}")
        if audit["total"] != (p - 1) * (p - 2) // 2:
            return _fail(name, f"audit total p={p}")
    return CheckResult(
        name,
        PASS,
        f"Pi(p-2,1) == p(p-1) for p <= {bound}; step audits at p=5,6,7 "
        "reproduce the published line totals",
        bound - 1 + len(frozen),
    )


def check_character_product(pmax: int) -> CheckResult:
    """Freudenthal characters times the denominator give singular elements:
    ch(lam) * Psi^0 == Psi^lam on both cosets."""
    name = "character-product"
    vmax = pmax // 2
    R = denominator_product()
    n = 0
    for d1 in range(0, 2 * vmax + 1):
        for d2 in range(d1 % 2, d1 + 1, 2):
            lam = Weight(d1, d2)
            if not is_product(singular_element(lam), weight_multiplicities(lam), R):
                return _fail(name, f"lam={lam.text()}")
            n += 1
    return CheckResult(name, PASS, f"{n} dominant weights with first coordinate <= {vmax}", n)


# ---------------------------------------------------------------------------
# conjectures


def check_multiplicity_free(pmax: int) -> CheckResult:
    """Products with the vector module are multiplicity free; the case
    formulas agree with the general signed-reflection rule and preserve
    dimension, including the two-summand edge at (1/2,1/2)."""
    name = "vector-product-multiplicity-free"
    mu1max = pmax - 2
    n = 0
    for d1 in range(0, 2 * mu1max + 1):
        for d2 in range(d1 % 2, d1 + 1, 2):
            mu = Weight(d1, d2)
            summands = tensor_with_vector(mu)
            direct = single_step_decompose(mu, "vector")
            if sorted(direct) != list(summands) or any(v != 1 for v in direct.values()):
                return _fail(name, f"mu={mu.text()}")
            if sum(dim_irrep(nu) for nu in summands) != 5 * dim_irrep(mu):
                return _fail(name, f"dimension at mu={mu.text()}")
            n += 1
    edge = tensor_with_vector(Weight(1, 1))
    if sorted(dim_irrep(w) for w in edge) != [4, 16]:
        return _fail(name, "edge (1/2,1/2)")
    return CheckResult(
        name,
        PASS,
        f"{n} dominant weights with first coordinate <= {mu1max}; edge "
        "(1/2,1/2) x vector = 4 + 16 dimensions",
        n + 1,
    )


def check_polynomial_fits(pmax: int) -> CheckResult:
    """Multiplicities along the s=1..3 diagonals are polynomial in p: a
    window of recurrence samples certifies a polynomial whose predictions
    beyond the window again match the recurrence.

    The family (s,t) has degree d = s+t-1, and a degree-d fit on the window
    6..pmax+4 takes d + 1 + ZERO_SLACK samples, so t is capped accordingly."""
    name = "diagonal-polynomial-fits"
    hi = pmax + 4
    window = hi - 5  # samples in 6..hi
    reads = {
        (s, t): {p: cf.diagonal_weight(s, t, p) for p in range(6, hi + 4)}
        for s in (1, 2, 3)
        for t in range(min(4, window - cf.ZERO_SLACK - s) + 1)
    }
    flat = [(p, w) for weights in reads.values() for p, w in weights.items()]
    m = dict(zip(flat, band_values("vector", flat)))  # one recursion for every family
    npred = 0
    for (s, t), weights in reads.items():
        values = {p: m[p, w] for p, w in weights.items()}
        try:
            _, predictions = cf.fit_window(values, hi)
        except cf.PolynomialityError:
            return _fail(name, f"s={s} t={t}: window not polynomial")
        for p, fitted, recurred in predictions:
            if fitted != recurred:
                return _fail(name, f"s={s} t={t} prediction p={p}")
        npred += len(predictions)
    return CheckResult(
        name,
        PASS,
        f"{len(reads)} fits on window 6..{hi}, {npred} out-of-window predictions match",
        npred,
    )


def check_diagonal_zeros(pmax: int) -> CheckResult:
    """Every diagonal family vanishes at p = 2t+s-2: the linear front factor
    kills the formula and the weight reflects onto a wall."""
    name = "diagonal-zeros"
    bound = 3 * pmax
    n = 0
    for s in range(1, 7):
        for t in range(0, (bound - s + 2) // 2 + 1):
            p = cf.diagonal_zero_power(s, t)
            if p < 1 or p > bound:
                continue
            if cf.diagonal_formula(s, t, p, corrected=(s == 5)) != 0:
                return _fail(name, f"formula s={s} t={t} p={p}")
            if m_extended("vector", p, cf.diagonal_weight(s, t, p)) != 0:
                return _fail(name, f"multiplicity s={s} t={t} p={p}")
            n += 1
    return CheckResult(
        name, PASS, f"{n} zeros at p = 2t+s-2 for all six families, p <= {bound}", n
    )


def check_bracket_factorization(pmax: int) -> CheckResult:
    """Where the bracket polynomials stop factoring: s=4 has rational roots
    only at t=0,1 (the t=2 discriminant is 1872, not a square), corrected
    s=5 likewise, s=6 only at t=0,1,2."""
    name = "bracket-factorization"
    got4 = [cf.bracket_factors_rationally(4, t) for t in range(6)]
    if got4 != [True, True, False, False, False, False]:
        return _fail(name, f"s=4 pattern {got4}")
    if cf.bracket_discriminant(4, 2) != 1872 or isqrt(1872) ** 2 == 1872:
        return _fail(name, "s=4 t=2 discriminant")
    got6 = [cf.bracket_factors_rationally(6, t) for t in range(6)]
    if got6 != [True, True, True, False, False, False]:
        return _fail(name, f"s=6 pattern {got6}")
    got5 = [cf._has_rational_root(cf.diagonal_bracket_corrected(5, t)) for t in range(6)]
    if got5 != [True, True, False, False, False, False]:
        return _fail(name, f"corrected s=5 pattern {got5}")
    return CheckResult(
        name,
        PASS,
        "rational-root pattern: s=4 t<=1, corrected s=5 t<=1, s=6 t<=2; "
        "disc(s=4,t=2) = 1872 is not a square",
        len(got4) + len(got5) + len(got6) + 1,
    )


# ---------------------------------------------------------------------------
# suites


# `all` runs every suite, in this order
SUITES = {
    "oracle-agreement": [check_four_routes],
    "dimension-identity": [check_dimension_sum],
    "paper-tables": [
        check_vector_table,
        check_spinor_table,
        check_diagonal_low,
        check_diagonal_high,
        check_diagonal_spinor_line,
        check_known_window,
    ],
    "closed-forms": [
        check_fan_closed_form,
        check_vector_singular_closed,
        check_spinor_singular_closed,
        check_diff_reports,
        check_line_structure,
    ],
    "fan-singular": [
        check_fan_identity,
        check_singular_contribution,
        check_character_product,
    ],
    "conjectures": [
        check_multiplicity_free,
        check_polynomial_fits,
        check_diagonal_zeros,
        check_bracket_factorization,
    ],
}


# The checks run_suite runs in one forked child while the caller runs the
# rest: the checks that fill the fan and singular chains, less
# printed-formula-diffs. The rule: the two sides' in-process totals about
# equal at pmax 10, which verify-all runs, and at no pmax up to 22 a longer
# side than with printed-formula-diffs in the child. That check reads only
# p <= 4, so its few ms weigh the same at every pmax; in the caller it evens
# pmax 10 and shortens the child, the longer side from pmax 14 up.
# Membership is by function, so a check rebound from outside (as the
# benchmark's tracer rebinds every check in SUITES) runs in the caller.
CHILD_CHECKS = frozenset(
    [fn for fn in SUITES["closed-forms"] if fn is not check_diff_reports]
    + [check_fan_identity, check_singular_contribution]
)


def _run(indexed, pmax: int) -> list:
    """(index, True, timed result) for each (index, check) in turn; a check that
    raises ends the list with (index, False, its exception)."""
    out = []
    for i, fn in indexed:
        start = time.perf_counter()
        try:
            result = fn(pmax)
        except Exception as exc:
            out.append((i, False, exc))
            break
        out.append((i, True, result._replace(seconds=time.perf_counter() - start)))
    return out


def _may_fork() -> bool:
    # a child forked beside other threads may inherit locks they hold, and the
    # split pays only when the two processes can run on two CPUs
    threading = sys.modules.get("threading")
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and (threading is None or threading.active_count() == 1)
    )


def _serve(write: int, indexed: list, pmax: int) -> None:
    """The forked child: run the checks, write their entries to the pipe and
    exit. It never returns into the caller and never flushes the stdio buffers
    it inherited."""
    try:
        sent = [
            (i, ok, tuple(value) if ok else (type(value).__module__, type(value).__name__, value.args))
            for i, ok, value in _run(indexed, pmax)
        ]
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps(sent))
    finally:
        os._exit(0)


def _run_split(checks: list, pmax: int) -> list | None:
    """The entries of _run for every check: CHILD_CHECKS in a forked child, the
    rest here at the same time. None, having run nothing, when the fork fails."""
    mine = [(i, fn) for i, fn in enumerate(checks) if fn not in CHILD_CHECKS]
    theirs = [(i, fn) for i, fn in enumerate(checks) if fn in CHILD_CHECKS]
    read, write = os.pipe()
    with open(read, "rb") as pipe:
        gc.freeze()  # the child's collector then skips the caller's objects, so their pages stay shared
        try:
            pid = os.fork()
            if pid == 0:
                _serve(write, theirs, pmax)
        except OSError:  # EAGAIN or ENOMEM at a process or memory limit
            return None
        finally:
            gc.unfreeze()
            os.close(write)
        try:
            entries = _run(mine, pmax)
            data = pipe.read()
        finally:
            _, status = os.waitpid(pid, 0)
    if not data:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"the verify child process exited with status {code} and sent no results")
    for i, ok, value in marshal.loads(data):
        if ok:
            value = CheckResult(*value)
        else:  # the exception's module, class name and arguments
            module, name, args = value
            value = getattr(sys.modules[module], name)(*args)
        entries.append((i, ok, value))
    return entries


def run_suite(suite: str, pmax: int = 10) -> VerificationReport:
    """Run the checks of suite (or of every suite, for "all") in SUITES order.

    When the checks include CHILD_CHECKS and others, and the process may run on
    more than one CPU, the two sets run at the same time in two processes, or
    in order here should the fork fail; the report is the same either way, and
    an exception is that of the first check in SUITES order that raised. Each
    result's seconds is its check's wall time in its own process.
    """
    if pmax < cf.PMAX_MIN:
        raise ValueError(f"pmax {pmax} is below {cf.PMAX_MIN}, the first pmax with a fit window")
    if suite == "all":
        checks = [fn for suite_checks in SUITES.values() for fn in suite_checks]
    elif suite in SUITES:
        checks = SUITES[suite]
    else:
        raise KeyError(f"unknown suite {suite!r}")
    split = 0 < sum(fn in CHILD_CHECKS for fn in checks) < len(checks) and _may_fork()
    entries = _run_split(checks, pmax) if split else None
    if entries is None:
        entries = _run(enumerate(checks), pmax)
    results = []
    for _, ok, value in sorted(entries, key=lambda entry: entry[0]):
        if not ok:
            raise value
        results.append(value)
    return VerificationReport(suite, pmax, results)
