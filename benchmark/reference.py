"""Independent reference for checking b2tensor's answers.

Works on plain integer pairs (d1, d2) = twice the Euclidean coordinates of a
so(5) weight and imports nothing from b2tensor, so an agreement between the
two is evidence rather than a copy of the program's own code path.

Decompositions use the Brauer-Klimyk rule one tensor factor at a time; the
dimension comes from the Weyl dimension formula in Euclidean coordinates;
series are dicts {(d1, d2): coeff} multiplied by plain convolution.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

RHO = (3, 1)
MODULE_WEIGHTS = {
    "vector": ((2, 0), (-2, 0), (0, 2), (0, -2), (0, 0)),
    "spinor": ((1, 1), (1, -1), (-1, 1), (-1, -1)),
}
MODULE_DIM = {"vector": 5, "spinor": 4}
HIGHEST = {"vector": (2, 0), "spinor": (1, 1)}
# negative roots -e1+e2, -e2, -e1, -e1-e2, doubled
NEGATIVE_ROOTS = ((-2, 2), (0, -2), (-2, 0), (-2, -2))


def _weyl_group():
    """The 8 signed permutations as (map, determinant)."""
    out = []
    for swap in (False, True):
        for s1 in (1, -1):
            for s2 in (1, -1):
                det = s1 * s2 * (-1 if swap else 1)

                def g(v, swap=swap, s1=s1, s2=s2):
                    a, b = (v[1], v[0]) if swap else v
                    return (s1 * a, s2 * b)

                out.append((g, det))
    return tuple(out)


WEYL = _weyl_group()


def add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def into_chamber(v):
    """(image in the open chamber x > y > 0, det) or (None, 0) on a wall."""
    for g, det in WEYL:
        a, b = g(v)
        if a > b > 0:
            return (a, b), det
    return None, 0


def dim(lam) -> int:
    """Weyl dimension: prod <lam+rho, alpha> / <rho, alpha> over e1-e2, e2, e1, e1+e2."""
    x = Fraction(lam[0] + RHO[0], 2)
    y = Fraction(lam[1] + RHO[1], 2)
    value = (x - y) * y * x * (x + y) / Fraction(3, 2)
    if value.denominator != 1:
        raise ValueError(f"non-integer dimension at {lam}")
    return int(value)


def tensor_step(mults: dict, module: str) -> dict:
    """Brauer-Klimyk: (sum m_mu L(mu)) (x) module, as {highest weight: mult}."""
    out = {}
    for mu, m in mults.items():
        for z in MODULE_WEIGHTS[module]:
            rep, det = into_chamber(add(add(mu, z), RHO))
            if det:
                key = sub(rep, RHO)
                out[key] = out.get(key, 0) + det * m
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def decomposition(module: str, p: int) -> dict:
    """{dominant highest weight: multiplicity} of the p-th tensor power."""
    if p == 0:
        return {(0, 0): 1}
    return tensor_step(decomposition(module, p - 1), module)


def multiplicity(module: str, p: int, mu) -> int:
    """Antisymmetric extension M(mu, p): signed value at the reflected point, 0 on walls."""
    rep, det = into_chamber(add(mu, RHO))
    if not det:
        return 0
    return det * decomposition(module, p).get(sub(rep, RHO), 0)


def mul(a: dict, b: dict) -> dict:
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            k = add(u, v)
            out[k] = out.get(k, 0) + x * y
    return {k: c for k, c in out.items() if c}


def power(a: dict, n: int) -> dict:
    acc = {(0, 0): 1}
    for _ in range(n):
        acc = mul(acc, a)
    return acc


@lru_cache(maxsize=None)
def denominator() -> dict:
    acc = {(0, 0): 1}
    for r in NEGATIVE_ROOTS:
        acc = mul(acc, {(0, 0): 1, r: -1})
    return acc


@lru_cache(maxsize=None)
def fan(p: int) -> dict:
    """Fan coefficients gamma_p(w) = -R^(p-1)(-w)."""
    return {(-k[0], -k[1]): -c for k, c in power(denominator(), p - 1).items()}


def singular_element(lam) -> dict:
    shifted = add(lam, RHO)
    return {sub(g(shifted), RHO): det for g, det in WEYL}


@lru_cache(maxsize=None)
def projected(module: str, p: int) -> dict:
    """Pi = (Psi^omega)^p."""
    return power(singular_element(HIGHEST[module]), p)


@lru_cache(maxsize=None)
def direct(module: str, p: int) -> dict:
    """Phi = ch^p * R."""
    ch = {z: 1 for z in MODULE_WEIGHTS[module]}
    return mul(power(ch, p), denominator())


def closed_form_value(kind: str, p: int, w) -> int:
    if kind == "fan":
        return fan(p).get(w, 0)
    return projected(kind, p).get(w, 0)


def diagram(module: str, pmax: int):
    """(nodes {(level, weight, mult)}, edges {(level, source, target)})."""
    nodes = set()
    edges = set()
    for p in range(pmax + 1):
        for w, m in decomposition(module, p).items():
            nodes.add((p, w, m))
            if p < pmax:
                for nu in tensor_step({w: 1}, module):
                    edges.add((p + 1, w, nu))
    return nodes, edges


def parse_weight(text: str):
    a, b = text.split(",")
    d1, d2 = Fraction(a) * 2, Fraction(b) * 2
    if d1.denominator != 1 or d2.denominator != 1:
        raise ValueError(f"not a half-integer point: {text!r}")
    return (int(d1), int(d2))


def weight_text(w) -> str:
    return ",".join(str(d // 2) if d % 2 == 0 else f"{d}/2" for d in w)


def self_check() -> None:
    """The reference must reproduce the two textbook square decompositions."""
    want = {"vector": [1, 10, 14], "spinor": [1, 5, 10]}
    for module, dims in want.items():
        got = decomposition(module, 2)
        if sorted(dim(w) for w in got) != dims or set(got.values()) != {1}:
            raise AssertionError(f"reference {module} (x) {module} = {got}")
