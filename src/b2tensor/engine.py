"""Tensor-power decomposition by independent methods.

Three engines live here:
  * extract_multiplicities: the alternating-sum inversion of the character
    formula applied to the p-fold convolved weight diagram (the oracle),
  * recur_multiplicity: the module-weight-shift recursion in p,
  * single_step_decompose / iterate_single_step: reduce one tensor factor
    at a time.
A fourth, driven by the fan of the p-fold diagonal injection, lives in
b2tensor.fans. All four must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .lattice import (
    MODULE_INDEX,
    MODULE_NAME,
    RHO,
    WEYL_GROUP,
    Weight,
    dim_irrep,
    is_dominant,
    to_dominant_regular,
    weights_of_fundamental,
)
from .series import LatticeSeries, weight_multiplicities


class NegativeMultiplicityError(RuntimeError):
    """Extraction produced a negative coefficient: input was not a character."""


@dataclass(frozen=True)
class DecompositionResult:
    """Map from dominant highest weights to positive multiplicities."""

    module: str
    power: int
    multiplicities: tuple  # sorted tuple of (Weight, int), zero entries pruned

    @classmethod
    def from_dict(cls, module: str, power: int, mult: dict) -> "DecompositionResult":
        items = tuple(sorted((w, m) for w, m in mult.items() if m))
        return cls(module, power, items)

    def as_dict(self) -> dict:
        return dict(self.multiplicities)

    def dimension_sum(self) -> int:
        return sum(m * dim_irrep(w) for w, m in self.multiplicities)

    def to_json_obj(self):
        return {
            "module": self.module,
            "power": self.power,
            "terms": [
                {"weight": w.text(), "mult": str(m), "dim": str(dim_irrep(w))}
                for w, m in self.multiplicities
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "DecompositionResult":
        mult = {Weight.parse(t["weight"]): int(t["mult"]) for t in obj["terms"]}
        return cls.from_dict(obj["module"], int(obj["power"]), mult)


def _module_index(module) -> int:
    if module in (1, 2):
        return module
    try:
        return MODULE_INDEX[module]
    except KeyError:
        raise ValueError(f"unknown module {module!r}") from None


@lru_cache(maxsize=None)
def fundamental_character(i: int) -> LatticeSeries:
    return LatticeSeries({w: 1 for w in weights_of_fundamental(i)})


@lru_cache(maxsize=None)
def tensor_power_weights(module, p: int) -> LatticeSeries:
    """Weight diagram of the p-th tensor power: p-fold convolution."""
    i = _module_index(module)
    if p < 0:
        raise ValueError("power must be >= 0")
    if p == 0:
        return LatticeSeries.unit()
    return tensor_power_weights(i, p - 1) * fundamental_character(i)


def extract_multiplicities(diagram: LatticeSeries, module, p: int) -> DecompositionResult:
    """Invert ch = sum m_mu ch(mu) on a Weyl-invariant diagram.

    m_mu = sum_w det(w) * diagram(w(mu+rho) - rho); valid whenever the input
    is an actual character. A negative result is a hard error by design.
    """
    name = MODULE_NAME[_module_index(module)]
    mult = {}
    for x in diagram.support():
        # every candidate highest weight shows up in the diagram itself
        if not is_dominant(x):
            continue
        m = 0
        shifted = x + RHO
        for w in WEYL_GROUP:
            m += w.det * diagram.coeff(w.apply(shifted) - RHO)
        if m < 0:
            raise NegativeMultiplicityError(f"m({x.text()}) = {m}")
        if m:
            mult[x] = m
    return DecompositionResult.from_dict(name, p, mult)


def decomposition(module, p: int) -> DecompositionResult:
    """Oracle decomposition of the p-th tensor power."""
    i = _module_index(module)
    return extract_multiplicities(tensor_power_weights(i, p), i, p)


@dataclass
class MultiplicityFunction:
    """Antisymmetrized multiplicity function for one (module, p).

    Stores only dominant values; evaluation anywhere on the lattice goes
    through the reflection rule: 0 on rho-shifted walls, otherwise the signed
    dominant value.
    """

    module: str
    power: int
    dominant: dict  # Weight -> int, dominant keys only

    def __call__(self, mu: Weight) -> int:
        rep, sign = to_dominant_regular(mu + RHO)
        if sign == 0:
            return 0
        return sign * self.dominant.get(rep - RHO, 0)

    def restrict_positive(self) -> dict:
        return {w: m for w, m in self.dominant.items() if m}

    def to_result(self) -> DecompositionResult:
        return DecompositionResult.from_dict(self.module, self.power, self.restrict_positive())


def _dominant_window(module, p: int):
    """Dominant lattice points that can carry weight in the p-th power."""
    i = _module_index(module)
    out = []
    if i == 1:
        for d1 in range(0, 2 * p + 1, 2):
            for d2 in range(0, d1 + 1, 2):
                if d1 + d2 <= 2 * p:
                    out.append(Weight(d1, d2))
    else:
        for d1 in range(p % 2, p + 1, 2):
            for d2 in range(d1 % 2, d1 + 1, 2):
                out.append(Weight(d1, d2))
    return out


def recur_multiplicity(module, p_max: int):
    """Multiplicity functions for p = 0..p_max via the weight-shift recursion.

    Step: M(mu, p) = sum over module weights zeta of M(mu - zeta, p - 1),
    evaluated through the antisymmetric extension. Base p=0 is the trivial
    module: M(mu, 0) = det(w) if mu+rho is conjugate to rho, else 0.
    """
    i = _module_index(module)
    name = MODULE_NAME[i]
    shifts = weights_of_fundamental(i)
    out = []
    base = MultiplicityFunction(name, 0, {Weight(0, 0): 1})
    out.append(base)
    for p in range(1, p_max + 1):
        prev = out[-1]
        dom = {}
        for mu in _dominant_window(i, p):
            val = 0
            for z in shifts:
                val += prev(mu - z)
            if val:
                dom[mu] = val
        out.append(MultiplicityFunction(name, p, dom))
    return out


@lru_cache(maxsize=None)
def _decomposition_cached(i: int, p: int) -> DecompositionResult:
    return decomposition(i, p)


@lru_cache(maxsize=None)
def _decomposition_dict(i: int, p: int) -> dict:
    return _decomposition_cached(i, p).as_dict()


def m_extended(module, p: int, mu: Weight) -> int:
    """M(mu, p) anywhere on the lattice, from the oracle decomposition."""
    i = _module_index(module)
    rep, sign = to_dominant_regular(mu + RHO)
    if sign == 0:
        return 0
    return sign * _decomposition_dict(i, p).get(rep - RHO, 0)


def single_step_decompose(mu: Weight, module) -> dict:
    """Decompose L^mu (x) L^(fundamental i) by the signed-reflection rule.

    For each weight zeta of the fundamental module, reflect mu+zeta+rho to
    the open chamber and accumulate the determinant sign.
    """
    if not is_dominant(mu):
        raise ValueError(f"{mu} is not dominant")
    i = _module_index(module)
    out = {}
    for z in weights_of_fundamental(i):
        rep, sign = to_dominant_regular(mu + z + RHO)
        if sign == 0:
            continue
        key = rep - RHO
        out[key] = out.get(key, 0) + sign
        if out[key] == 0:
            del out[key]
    if any(m < 0 for m in out.values()):
        # cannot happen for a single fundamental factor; guard anyway
        raise NegativeMultiplicityError(f"single step at {mu.text()} went negative")
    return out


def iterate_single_step(module, p: int) -> DecompositionResult:
    """p-fold repetition of single_step_decompose starting from the trivial module."""
    i = _module_index(module)
    name = MODULE_NAME[i]
    acc = {Weight(0, 0): 1}
    for _ in range(p):
        nxt = {}
        for mu, m in acc.items():
            for nu, k in single_step_decompose(mu, i).items():
                nxt[nu] = nxt.get(nu, 0) + m * k
        acc = {w: m for w, m in nxt.items() if m}
    return DecompositionResult.from_dict(name, p, acc)


def tensor_with_vector(mu: Weight):
    """Highest weights of L^mu (x) L^(vector), which is multiplicity free.

    Case formulas: interior mu (mu1 > mu2 >= 1) gives the five weights
    mu, mu +- e1, mu +- e2; mu = (n,0) gives {(n+1,0), (n-1,0), (n,1)};
    mu = (n/2,n/2) gives {mu, mu+e1, mu-e2} except that at n=1 the last
    weight is not dominant and the product has only two summands. Inputs not
    covered by a case formula (the mu2 = 1/2 line) fall back to the general
    single-step rule, which stays multiplicity free.
    """
    if not is_dominant(mu):
        raise ValueError(f"{mu} is not dominant")
    e1 = Weight(2, 0)
    e2 = Weight(0, 2)
    if mu.d1 > mu.d2 >= 2:
        cand = [mu, mu + e1, mu - e1, mu + e2, mu - e2]
    elif mu.d2 == 0 and mu.d1 >= 2:
        cand = [mu + e1, mu - e1, mu + e2]
    elif mu.d1 == mu.d2 and mu.d1 >= 1:
        cand = [mu, mu + e1, mu - e2]
        cand = [w for w in cand if is_dominant(w)]  # n=1 drops (1/2,-1/2)
    elif mu == Weight(0, 0):
        cand = [Weight(2, 0)]
    else:
        # not covered by a printed case; the general rule is still mult-free here
        step = single_step_decompose(mu, 1)
        if any(m != 1 for m in step.values()):
            raise RuntimeError(f"L^{mu.text()} (x) vector is not multiplicity free")
        return sorted(step)
    return sorted(cand)
