"""Growth diagram of tensor powers as DOT.

Level p holds the irreducible summands of the p-th power; an edge joins a
level-(p-1) node to each summand of its product with the fundamental module,
so paths from the root count multiplicities.
"""

from __future__ import annotations

from .engine import decomposition, single_step_decompose
from .lattice import FUNDAMENTAL, Weight


def _node_id(p: int, w: Weight) -> str:
    return f"p{p}_{w.d1}_{w.d2}".replace("-", "m")


def to_dot(module: str, p_max: int) -> str:
    """DOT source for the growth diagram up to level p_max."""
    if module not in FUNDAMENTAL:
        raise KeyError(module)
    if p_max < 0:
        raise ValueError("negative power")
    lines = [
        f'digraph "{module}_powers" {{',
        "  rankdir=TB;",
        '  node [shape=box, fontname="monospace"];',
    ]
    levels = [decomposition(module, p).multiplicities for p in range(p_max + 1)]
    for p, level in enumerate(levels):
        lines.append(f"  subgraph level_{p} {{ rank=same;")
        for w, m in level:
            label = f"{w.text()}\\nx{m}"
            lines.append(f'    {_node_id(p, w)} [label="{label}"];')
        lines.append("  }")
    for p, level in enumerate(levels[:p_max], 1):
        for mu, _ in level:
            for nu in sorted(single_step_decompose(mu, module)):
                lines.append(f"  {_node_id(p - 1, mu)} -> {_node_id(p, nu)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
