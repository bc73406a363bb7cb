"""Injection fans and singular elements of tensor powers.

The fan of the p-fold diagonal injection is the (p-1)-th convolution power
of the denominator product R. Two series are attached to the p-th tensor
power of a fundamental module:

  * the direct singular element  Phi = ch^p * R   (one denominator), whose
    coefficient function is the antisymmetrized multiplicity function, and
  * the projected power          Pi  = (Psi^omega)^p = ch^p * R^p,
    the p-fold product of one-factor singular elements.

They are tied together by R^(p-1) * Phi = Pi. In pointwise form that reads

    sum_gamma gamma_p(gamma) * Phi(mu + gamma) + Pi(mu) = 0   for every mu,

with gamma_p(a,b) = -R^(p-1)(-a,-b), so the zero point carries -1. Solving
this for the top unknown weight by weight is the fan recursion; rearranged,
Pi is the source term the recursion adds at each step.

The closed-form evaluators here compute coefficients of R^(p-1) (fan) and of
Pi (singular powers). Each exists in two variants: a verbatim transcription
of the published index formula, and a validated evaluator that matches the
direct convolution exactly. diff_report exposes their disagreements.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .engine import (
    DecompositionResult,
    MultiplicityFunction,
    _module_index,
    m_extended,
    tensor_power_weights,
)
from .lattice import MODULE_NAME, OMEGA1, OMEGA2, RHO, Weight, reflect_to_chamber
from .series import LatticeSeries, denominator_product, singular_element


# ---------------------------------------------------------------------------
# fans


@lru_cache(maxsize=None)
def fan_power_direct(p: int) -> LatticeSeries:
    """R^(p-1): the fan of the diagonal injection into p factors (p >= 1).

    Built from the cached R^(p-2), one multiplication by R per new p.
    """
    if p < 1:
        raise ValueError("fan needs p >= 1")
    if p == 1:
        return LatticeSeries.unit()
    return fan_power_direct(p - 1) * denominator_product()


@lru_cache(maxsize=None)
def fan_with_zero(p: int) -> LatticeSeries:
    """Fan coefficients gamma_p(a,b) = -R^(p-1)(-a,-b), zero point included (-1)."""
    return fan_power_direct(p).reflect().scale(-1)


def fan_pairwise() -> LatticeSeries:
    """The seven signed shifts of the pairwise injection: fan_with_zero(2) without the zero point."""
    full = fan_with_zero(2)
    zero = Weight(0, 0)
    return full - LatticeSeries.unit(zero, full.coeff(zero))


def _tb_lax(j: int, i: int) -> int:
    # binomial with the widened domain 0 <= i <= j (validated reading)
    return comb(j, i) if 0 <= i <= j else 0


def _tb_strict(j: int, i: int) -> int:
    # truncated binomial exactly as printed: C(j,i) for 0 < i <= j, else 0
    return comb(j, i) if 0 < i <= j else 0


def _nonzero_range(first: int, last: int, offset: int, step: int, width: int) -> range:
    """The i in first..last with 0 <= offset - step*i <= width.

    Outside this range the truncated binomial tb(width, offset - step*i) is
    zero under both readings (C(j,i) vanishes unless 0 <= i <= j), so a sum
    over i may skip those terms exactly.
    """
    lo = max(first, -((width - offset) // step))  # ceil((offset - width) / step)
    hi = min(last, offset // step)
    return range(lo, hi + 1)


def _fan_closed(p: int, a: int, b: int, tb) -> int:
    total = 0
    for k in range(1, p + 1):
        sign = -1 if (k + a + b) % 2 else 1
        outer = sign * tb(p - 1, k - 1)
        ms = _nonzero_range(1, p - k + 1, a - k + 4, 3, k - 1)
        for l in _nonzero_range(1, k, b + k + 2, 3, p - k):
            left = outer * tb(k - 1, l - 1) * tb(p - k, b + k - 3 * l + 2)
            for m in ms:
                total += left * tb(p - k, m - 1) * tb(k - 1, a - k - 3 * m + 4)
    return total


def fan_closed_form(p: int, a: int, b: int) -> int:
    """Validated closed form for gamma_p(a,b); equals fan_with_zero(p) everywhere."""
    return _fan_closed(p, a, b, _tb_lax)


def fan_closed_form_printed(p: int, a: int, b: int) -> int:
    """Verbatim transcription (strict truncated binomial). Kept for the diff report."""
    return _fan_closed(p, a, b, _tb_strict)


def fan_line_structure(p: int):
    """Coefficients of R^(p-1) along the alpha1 line from its lowest corner.

    Returns [(t, coeff at corner + t*alpha1)] for t = 0..p. Validated values
    are (-1)^t C(p-1,t), so the t=p entry is 0; the published structure claim
    expects p+1 nonzero line points weighted by C(p,t) instead.
    """
    fan = fan_power_direct(p)
    corner = Weight(-6 * (p - 1), -2 * (p - 1))
    step = Weight(2, -2)  # alpha1 doubled
    out = []
    pt = corner
    for t in range(p + 1):
        out.append((t, fan.coeff(pt)))
        pt = pt + step
    return out


# ---------------------------------------------------------------------------
# singular elements of tensor powers


def singular_power_direct(module, p: int) -> LatticeSeries:
    """Direct singular element Phi = ch(L)^p * R = sum_mu m_mu Psi^(mu)."""
    return _singular_power_direct(_module_index(module), p)


@lru_cache(maxsize=None)
def _singular_power_direct(i: int, p: int) -> LatticeSeries:
    if p < 0:
        raise ValueError("power must be >= 0")
    return tensor_power_weights(i, p) * denominator_product()


def singular_power_projected(module, p: int) -> LatticeSeries:
    """Projected power Pi = (Psi^(omega_i))^p; the closed forms below evaluate this."""
    return _singular_power_projected(_module_index(module), p)


@lru_cache(maxsize=None)
def _singular_power_projected(i: int, p: int) -> LatticeSeries:
    # one 8-term factor times the cached (p-1)-th power; the module is already
    # an index, so 'vector' and 1 share one entry
    if p < 0:
        raise ValueError("negative power")
    if p == 0:
        return LatticeSeries.unit()
    return _singular_power_projected(i, p - 1) * singular_element(OMEGA1 if i == 1 else OMEGA2)


def singular_power_as_sum(result: DecompositionResult) -> LatticeSeries:
    """sum_mu m_mu Psi^(mu) for a given decomposition; must reproduce Phi."""
    acc = LatticeSeries()
    for mu, m in result.multiplicities:
        acc = acc + singular_element(mu).scale(m)
    return acc


def _vector_singular(p: int, c: int, d: int, tb) -> int:
    total = 0
    for k in range(1, p + 2):
        # the printed sign exponent k-d-c+p-4(l+m)+7 has the parity of k-d-c+p+7
        sign = -1 if (k - d - c + p + 7) % 2 else 1
        outer = sign * tb(p, k - 1)
        ms = _nonzero_range(1, p - k + 2, p - c - 2 * k + 7, 5, k - 1)
        for l in _nonzero_range(1, k, -d + 2 * k + 3, 5, p - k + 1):
            left = outer * tb(k - 1, l - 1) * tb(p - k + 1, -d + 2 * k - 5 * (l - 1) - 2)
            for m in ms:
                total += left * tb(p - k + 1, m - 1) * tb(k - 1, p - c - 2 * k - 5 * (m - 1) + 2)
    return total


def vector_singular_closed(p: int, weight: Weight) -> int:
    """Validated coefficient of Pi_vector at the given point (lax binomials)."""
    if weight.d1 % 2 or weight.d2 % 2:
        return 0  # Pi_vector lives on the integer coset
    return _vector_singular(p, weight.d1 // 2, weight.d2 // 2, _tb_lax)


def vector_singular_closed_printed(p: int, weight: Weight) -> int:
    """Verbatim transcription of the published pointwise formula (strict binomials)."""
    if weight.d1 % 2 or weight.d2 % 2:
        return 0
    return _vector_singular(p, weight.d1 // 2, weight.d2 // 2, _tb_strict)


def spinor_singular_closed(p: int, weight: Weight) -> int:
    """Validated coefficient of Pi_spinor at the given point.

    Re-derived from the block structure of the construction (the published
    pointwise formula reuses one block index and collapses; see the diff
    report). In doubled coordinates, with X = (p - 2k) - d1 = 8i + 4j and
    Y = (p + 2k) - d2 = 8n + 4m, the coefficient is
    sum (-1)^(k+i+j+m+n) C(p,k) C(p-k,i) C(k,j) C(p-k,m) C(k,n).
    """
    if weight.d1 % 2 != p % 2 or weight.d2 % 2 != p % 2:
        return 0  # off the p-th spinor coset
    total = 0
    for k in range(0, p + 1):
        x = (p - 2 * k) - weight.d1
        y = (p + 2 * k) - weight.d2
        if x < 0 or y < 0 or x % 4 or y % 4:
            continue
        for i in range(0, p - k + 1):
            jj = x - 8 * i
            if jj < 0:
                break
            j = jj // 4
            if j > k:
                continue
            for n in range(0, k + 1):
                mm = y - 8 * n
                if mm < 0:
                    break
                m = mm // 4
                if m > p - k:
                    continue
                sign = -1 if (k + i + j + m + n) % 2 else 1
                total += (
                    sign * comb(p, k) * comb(p - k, i) * comb(k, j) * comb(p - k, m) * comb(k, n)
                )
    return total


def spinor_singular_closed_printed(p: int, weight: Weight) -> int:
    """Verbatim transcription of the published spinor pointwise formula.

    Superscripts are consumed exactly as printed; half-integer binomial
    arguments and non-integer sign exponents kill their terms, as a literal
    reading dictates.
    """
    c2, d2 = weight.d1, weight.d2  # doubled coordinates
    total = 0
    for k in range(1, p + 2):
        for l in range(1, k + 1):
            for m in range(1, p - k + 3):
                # sign exponent k + (c-d)/2 - (l+m) + 1; (c-d)/2 = (c2-d2)/4
                if (c2 - d2) % 4:
                    continue
                e = k + (c2 - d2) // 4 - (l + m) + 1
                sign = -1 if e % 2 else 1
                # superscripts (1/2)(4(1-m)-k+c-p/2+1) and (1/2)(2-4m+k-d+p/2+1), quadrupled
                s3_quad = 2 * (4 * (1 - m) - k + 1) + c2 - p
                s5_quad = 2 * (2 - 4 * m + k + 1) - d2 + p
                total += (
                    sign
                    * _tb_strict(p, k - 1)
                    * _tb_strict(k, l - 1)
                    * _tb_strict(p - k + 1, m - 1)
                    * _tb_quarter(k, s3_quad)
                    * _tb_quarter(k, s5_quad)
                )
    return total


def _tb_quarter(j: int, quad_i: int) -> int:
    # strict truncated binomial whose superscript arrives multiplied by 4
    if quad_i % 4:
        return 0
    return _tb_strict(j, quad_i // 4)


def diff_report(kind: str, p: int) -> list:
    """Machine-readable verbatim-vs-direct discrepancies over support plus halo.

    kind is one of 'fan', 'vector', 'spinor'. Entries look like
    {"point": "a,b", "printed": "<int>", "direct": "<int>"}.
    """
    rows = []
    if kind == "fan":
        truth = fan_with_zero(p)
        for w in _support_halo(truth):
            if w.d1 % 2 or w.d2 % 2:
                continue
            printed = fan_closed_form_printed(p, w.d1 // 2, w.d2 // 2)
            direct = truth.coeff(w)
            if printed != direct:
                rows.append(_diff_row(w, printed, direct))
    elif kind == "vector":
        truth = singular_power_projected(1, p)
        for w in _support_halo(truth):
            printed = vector_singular_closed_printed(p, w)
            direct = truth.coeff(w)
            if printed != direct:
                rows.append(_diff_row(w, printed, direct))
    elif kind == "spinor":
        truth = singular_power_projected(2, p)
        for w in _support_halo(truth):
            printed = spinor_singular_closed_printed(p, w)
            direct = truth.coeff(w)
            if printed != direct:
                rows.append(_diff_row(w, printed, direct))
    else:
        raise ValueError(f"unknown diff kind {kind!r}")
    return rows


def _diff_row(w: Weight, printed: int, direct: int) -> dict:
    return {"point": w.text(), "printed": str(printed), "direct": str(direct)}


def _support_halo(series: LatticeSeries, step: int = 2):
    pts = set()
    for d1, d2 in series.by_tuple():
        for da in (-step, 0, step):
            for db in (-step, 0, step):
                pts.add((d1 + da, d2 + db))
    return [Weight(d1, d2) for d1, d2 in sorted(pts)]


# ---------------------------------------------------------------------------
# the fan recursion of the worked example


def fan_recursion_solve(module, p: int) -> MultiplicityFunction:
    """Solve for the multiplicity function from the fan relation.

    Processes dominant weights row by row (first coordinate descending, then
    second descending): every fan shift either lands in an already-solved
    position or reflects onto one, so each step determines one new value:

        M(nu) = sum_{gamma != 0} gamma_p(gamma) M(nu + gamma) + Pi(nu).

    The zero point's coefficient -1 is what makes the step well posed.
    """
    i = _module_index(module)
    name = MODULE_NAME[i]
    if p == 0:
        return MultiplicityFunction(name, 0, {(0, 0): 1})
    fan = fan_with_zero(p).by_tuple()
    if fan.get((0, 0)) != -1:
        raise RuntimeError("degenerate leading fan coefficient")
    shifts = sorted((g1, g2, c) for (g1, g2), c in fan.items() if (g1, g2) != (0, 0))
    source = singular_power_projected(i, p).by_tuple()
    top = 2 * p if i == 1 else p
    r1, r2 = RHO.d1, RHO.d2

    known: dict = {}  # (d1, d2) -> M, dominant points solved so far
    for nu in _coset_rows(i, p):
        n1, n2 = nu[0] + r1, nu[1] + r2
        # Shifts ascend in g1, so the loop may stop at the first one with
        # nu[0] + g1 > top: the chamber representative of (n1 + g1, n2 + g2)
        # has a = max(|n1 + g1|, |n2 + g2|) >= n1 + g1, hence
        # rep[0] = a - r1 >= nu[0] + g1 > top, and that shift and every later
        # one would fail the rep[0] > top test below anyway.
        last = top - nu[0]
        val = source.get(nu, 0)
        for g1, g2, c in shifts:
            if g1 > last:
                break
            a, b, sign = reflect_to_chamber(n1 + g1, n2 + g2)
            if sign == 0:
                continue
            rep = (a - r1, b - r2)
            if rep[0] > top or rep[0] + rep[1] > 2 * p:
                continue  # beyond the support of the p-th power
            try:
                val += sign * c * known[rep]
            except KeyError:
                raise RuntimeError(
                    f"fan solve order broke at dependency {Weight(*rep).text()}"
                ) from None
        known[nu] = val
    return MultiplicityFunction(name, p, {w: m for w, m in known.items() if m})


def _coset_rows(i: int, p: int):
    """Dominant lattice points (d1, d2) for module i, power p, in solve order."""
    top = 2 * p if i == 1 else p
    out = []
    d1 = top
    while d1 >= top % 2:
        d2 = d1
        while d2 >= d1 % 2:
            if d1 + d2 <= 2 * p:
                out.append((d1, d2))
            d2 -= 2
        d1 -= 2
    return out


def fan_step_audit(module, p: int, nu: Weight) -> dict:
    """Audit trail of one fan-recursion step at nu.

    Returns {"lines": [(a, contribution)], "singular": Pi(nu), "total": M(nu)}
    where line a groups the fan shifts with first coordinate a (the worked
    example's "first line", "second line", ...). Shifted values come from the
    exact extended multiplicity function.
    """
    i = _module_index(module)
    fan = fan_with_zero(p)
    zero = Weight(0, 0)
    lines: dict = {}
    for g, c in fan.items():
        if g == zero:
            continue
        contrib = c * m_extended(i, p, nu + g)
        if contrib:
            lines[g.d1 // 2] = lines.get(g.d1 // 2, 0) + contrib
    singular = singular_power_projected(i, p).coeff(nu)
    total = sum(lines.values()) + singular
    return {"lines": sorted(lines.items()), "singular": singular, "total": total}
