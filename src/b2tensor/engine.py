"""Tensor-power decomposition by independent methods.

Three engines live here:
  * extract_multiplicities: the alternating-sum inversion of the character
    formula applied to the p-fold convolved weight diagram (the oracle);
    m_extended reads the same sum at one weight,
  * recur_multiplicity: the module-weight-shift recursion in p, on the band
    of dominant points below p*omega that lattice.band gives: the whole
    cone or, for band_values, the small deficit a list of reads needs,
  * single_step_decompose / single_step_chain: reduce one tensor factor
    at a time, p = 0..p_max in one pass; iterate_single_step is its last
    record.
A fourth, driven by the fan of the p-fold diagonal injection, lives in
b2tensor.fans. Each route answers with one MultiplicityFunction record, and
all four must be equal.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .lattice import (
    FUNDAMENTAL_WEIGHTS,
    RHO,
    WEYL_GROUP,
    Weight,
    band,
    deficit,
    dim_irrep,
    is_dominant,
    reflect_to_chamber,
)
from .series import ChamberChain, LatticeSeries

_R1, _R2 = RHO.d1, RHO.d2  # rho in doubled coordinates


class NegativeMultiplicityError(RuntimeError):
    """Extraction produced a negative coefficient: input was not a character."""


class MultiplicityFunction(NamedTuple):
    """Antisymmetrized multiplicity function for one (module, p).

    The answer of every route. Stores only the nonzero dominant values,
    keyed by (d1, d2) tuples of doubled coordinates, so two records of the
    same function are equal; evaluation anywhere on the lattice goes through
    the reflection rule: 0 on rho-shifted walls, otherwise the signed
    dominant value. Weight stays the type at the boundary: __call__ and
    multiplicities take or give Weights.
    """

    module: str
    power: int
    values: dict  # (d1, d2) -> nonzero int, dominant keys only

    @property
    def multiplicities(self) -> tuple:
        """The decomposition as (Weight, m) pairs in ascending weight order."""
        return tuple((Weight(d1, d2), m) for (d1, d2), m in sorted(self.values.items()))

    def at(self, d1: int, d2: int) -> int:
        """M at the doubled point (d1, d2), without building a Weight."""
        a, b, sign = reflect_to_chamber(d1 + _R1, d2 + _R2)
        if sign == 0:
            return 0
        return sign * self.values.get((a - _R1, b - _R2), 0)

    def __call__(self, mu: Weight) -> int:
        return self.at(mu.d1, mu.d2)

    def to_result(self) -> MultiplicityFunction:
        # the record is its own result; kept only because benchmark/task.py calls it
        return self

    def to_json_obj(self):
        return {
            "module": self.module,
            "power": self.power,
            "terms": [
                {"weight": w.text(), "mult": str(m), "dim": str(dim_irrep(w))}
                for w, m in self.multiplicities
            ],
        }


# the powers ch^p of each module's weight diagram, kept on the closed chamber
_DIAGRAMS = {
    module: ChamberChain(LatticeSeries({w: 1 for w in weights}), signed=False)
    for module, weights in FUNDAMENTAL_WEIGHTS.items()
}


# Two diagrams: the one caller, singular_power_direct, asks for each (module, p)
# about once (verify --pmax 10 hit 1 of 17 calls, p <= 40 of both modules none
# of 82, and keeping all 82 raised that sweep's peak RSS from 17.2 to 25.5 MB).
@lru_cache(maxsize=2)
def tensor_power_weights(module: str, p: int) -> LatticeSeries:
    """Weight diagram of the p-th tensor power, unfolded from its chamber."""
    return _DIAGRAMS[module].unfold(p)


# (rho - w rho, det w) for each w in W, doubled: the oracle's eight shifts
_RHO_SHIFTS = tuple((_R1 - a, _R2 - b, w.det) for w in WEYL_GROUP for a, b in [w.act(_R1, _R2)])


def _alternating_sum(get, d1: int, d2: int) -> int:
    """sum_w det(w) * diagram(w(mu+rho) - rho) at mu = (d1, d2), get reading the chamber.

    By invariance the w term is diagram(mu + rho - w^-1 rho), read at its
    sorted absolute coordinates, and det(w^-1) = det(w): eight fixed shifts.
    """
    m = 0
    for s1, s2, det in _RHO_SHIFTS:
        a, b = abs(d1 + s1), abs(d2 + s2)
        m += det * get((a, b) if a >= b else (b, a), 0)
    return m


def extract_multiplicities(chamber, module: str, p: int) -> MultiplicityFunction:
    """Invert ch = sum m_mu ch(mu) on a Weyl-invariant diagram.

    chamber maps the dominant (d1, d2) of the diagram to their nonzero
    values. m_mu is the alternating sum sum_w det(w) * diagram(w(mu+rho) -
    rho), valid whenever the input is an actual character. A negative
    result is a hard error by design. module and p only label the record.
    """
    get = chamber.get
    mult = {}
    # every candidate highest weight shows up in the diagram itself
    for d1, d2 in sorted(chamber):
        m = _alternating_sum(get, d1, d2)
        if m < 0:
            raise NegativeMultiplicityError(f"m({Weight(d1, d2).text()}) = {m}")
        if m:
            mult[d1, d2] = m
    return MultiplicityFunction(module, p, mult)


def decomposition(module: str, p: int) -> MultiplicityFunction:
    """Oracle decomposition of the p-th tensor power, a new record per call."""
    return extract_multiplicities(_DIAGRAMS[module].chamber(p), module, p)


def recur_multiplicity(module: str, p_max: int, depth: int | None = None):
    """Multiplicity functions for p = 0..p_max via the weight-shift recursion.

    Step: M(mu, p) = sum over module weights zeta of M(mu - zeta, p - 1),
    evaluated through the antisymmetric extension. Base p=0 is the trivial
    module: M(mu, 0) = det(w) if mu+rho is conjugate to rho, else 0.

    Each record holds the dominant points of deficit <= depth below p*omega
    (lattice.deficit), with their exact values; depth None holds every
    dominant point below p*omega. A caller that reads near the highest
    weight gets what it reads, at any point whose chamber representative
    lies in that band.
    """
    shifts = [(z.d1, z.d2) for z in FUNDAMENTAL_WEIGHTS[module]]
    if p_max < 0:
        raise ValueError("negative power")
    out = [MultiplicityFunction(module, 0, {(0, 0): 1})]
    for p in range(1, p_max + 1):
        at = out[-1].at
        # The band is closed under the step, so its values are exact.
        # The height f of lattice.deficit is >= 0 on every positive root:
        # the doubled roots e1-e2, e2, e1, e1+e2 give 2, 0, 2, 2 for the
        # vector f = d1 and 0, 2, 2, 4 for the spinor f = d1 + d2. For a
        # dominant x, x - w x is a sum of positive roots, so the dominant
        # representative of w(nu + rho) maximizes f over its orbit, and
        # the chamber read of any nu has deficit <= deficit(nu). And
        # f(zeta) <= f(omega) for every module weight zeta, so mu - zeta
        # at p - 1 has deficit <= deficit(mu) at p. A band point at p
        # thus reads band points at p - 1, or points where M is 0 in
        # both records (walls, and points not below (p-1)*omega).
        dom = {}
        for d1, d2 in band(module, p, depth):
            val = 0
            for z1, z2 in shifts:
                val += at(d1 - z1, d2 - z2)
            if val:
                dom[d1, d2] = val
        out.append(MultiplicityFunction(module, p, dom))
    return out


def band_values(module: str, reads) -> list:
    """M(w, p) for each (p, w) in the list reads, from one recur_multiplicity call: to
    the largest p read, on the band of the largest deficit read, so each read is exact."""
    depth = max((deficit(module, p, w.d1, w.d2) for p, w in reads), default=0)
    recs = recur_multiplicity(module, max((p for p, _ in reads), default=0), depth)
    return [recs[p](w) for p, w in reads]


def m_extended(module: str, p: int, mu: Weight) -> int:
    """M(mu, p) anywhere on the lattice: the alternating sum at mu, read from the ch^p chamber."""
    chain = _DIAGRAMS[module]
    if p < 0:
        raise ValueError("negative power")
    if reflect_to_chamber(mu.d1 + _R1, mu.d2 + _R2)[2] == 0:
        return 0  # mu + rho on a wall: no power of the diagram needed
    return _alternating_sum(chain.chamber(p).get, mu.d1, mu.d2)


def _single_step(d1: int, d2: int, shifts) -> dict:
    """single_step_decompose on doubled tuples; shifts are zeta + rho for each module weight."""
    out = {}
    for s1, s2 in shifts:
        a, b, sign = reflect_to_chamber(d1 + s1, d2 + s2)
        if sign == 0:
            continue
        key = (a - _R1, b - _R2)
        n = out.get(key, 0) + sign
        if n:
            out[key] = n
        else:
            del out[key]
    if any(m < 0 for m in out.values()):
        # cannot happen for a single fundamental factor; guard anyway
        raise NegativeMultiplicityError(f"single step at {Weight(d1, d2).text()} went negative")
    return out


def _step_shifts(module: str):
    return [(z.d1 + _R1, z.d2 + _R2) for z in FUNDAMENTAL_WEIGHTS[module]]


def single_step_decompose(mu: Weight, module: str) -> dict:
    """Decompose L^mu (x) L^module by the signed-reflection rule.

    For each weight zeta of the fundamental module, reflect mu+zeta+rho to
    the open chamber and accumulate the determinant sign.
    """
    if not is_dominant(mu):
        raise ValueError(f"{mu} is not dominant")
    step = _single_step(mu.d1, mu.d2, _step_shifts(module))
    return {Weight(d1, d2): m for (d1, d2), m in step.items()}


def single_step_chain(module: str, p_max: int) -> list:
    """The records of iterate_single_step for p = 0..p_max, from one pass of p_max steps."""
    shifts = _step_shifts(module)
    if p_max < 0:
        raise ValueError("negative power")
    acc = {(0, 0): 1}
    out = [MultiplicityFunction(module, 0, acc)]
    for p in range(1, p_max + 1):
        nxt = {}
        for (d1, d2), m in acc.items():
            for nu, k in _single_step(d1, d2, shifts).items():
                nxt[nu] = nxt.get(nu, 0) + m * k
        acc = {w: m for w, m in nxt.items() if m}
        out.append(MultiplicityFunction(module, p, acc))
    return out


def iterate_single_step(module: str, p: int) -> MultiplicityFunction:
    """p-fold repetition of single_step_decompose starting from the trivial module."""
    return single_step_chain(module, p)[-1]


def tensor_with_vector(mu: Weight):
    """Highest weights of L^mu (x) L^(vector), which is multiplicity free.

    Case formulas, as printed: interior mu (mu1 > mu2 >= 1) gives the five
    weights mu, mu +- e1, mu +- e2; mu = (n,0) gives {(n+1,0), (n-1,0),
    (n,1)}; mu = (n/2,n/2) gives {mu, mu+e1, mu-e2}, less (1/2,-1/2) at n=1.
    Derived, not printed: on the line mu2 = 1/2 the interior formula holds
    less mu - e2, as mu - e2 + rho = (mu1 + 3/2, 0) lies on a wall. Each
    weight dropped is the one case weight that is not dominant.
    """
    if not is_dominant(mu):
        raise ValueError(f"{mu} is not dominant")
    e1 = Weight(2, 0)
    e2 = Weight(0, 2)
    if mu.d1 > mu.d2 >= 1:
        cand = [mu, mu + e1, mu - e1, mu + e2, mu - e2]
    elif mu.d2 == 0 and mu.d1 >= 2:
        cand = [mu + e1, mu - e1, mu + e2]
    elif mu.d1 == mu.d2 >= 1:
        cand = [mu, mu + e1, mu - e2]
    else:  # mu = 0
        cand = [e1]
    return sorted(w for w in cand if is_dominant(w))
