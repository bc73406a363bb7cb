"""One cold large-power task: the four routes and Pi for one (module, p).

Run as `python3 task.py MODULE P` with b2tensor importable. Prints one JSON
object with what the benchmark checks: each route's decomposition as
[[d1, d2, mult], ...], Pi at the point (p-2, 1) and the lowest alpha1 line
of R^(p-1). Library calls go through module attributes, so a tracer that
rebinds them sees every call.
"""

from __future__ import annotations

import json
import sys

import b2tensor
from b2tensor import engine, fans


def _rows(result):
    return [[w.d1, w.d2, m] for w, m in result.multiplicities]


def run(module: str, p: int) -> dict:
    routes = {
        "decomposition": _rows(engine.decomposition(module, p)),
        "recursion": _rows(engine.recur_multiplicity(module, p)[-1].to_result()),
        "fan": _rows(fans.fan_recursion_solve(module, p).to_result()),
        "single-step": _rows(engine.iterate_single_step(module, p)),
    }
    pi = fans.singular_power_projected(module, p)
    fan = fans.fan_power_direct(p)
    corner = (-6 * (p - 1), -2 * (p - 1))
    line = [fan.coeff(b2tensor.Weight(corner[0] + 2 * t, corner[1] - 2 * t)) for t in range(p + 1)]
    return {
        "module": module,
        "p": p,
        "routes": routes,
        "pi_p2_1": pi.coeff(b2tensor.Weight(2 * p - 4, 2)),
        "fan_line": line,
    }


def main(argv) -> int:
    module, p = argv[0], int(argv[1])
    print(json.dumps(run(module, p), separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
