"""Command line interface.

Exit codes: 0 on success, 1 when a verification suite reports a failure or a
computation cannot complete, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import lru_cache

from . import closed_forms as cfm
from .cache import cached, canonical_json
from .diagram import to_dot
from .engine import decomposition, m_extended, recur_multiplicity
from .fans import (
    CLOSED_FORMS,
    diff_report,
    fan_with_zero,
    singular_power_direct,
    singular_power_projected,
    _support_halo,
)
from .lattice import Weight, is_dominant
from .series import series_json_obj
from .verify import SUITE_ORDER, run_suite


def _weight_arg(text: str) -> Weight:
    return Weight.parse(text)


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError("must be >= 0")
    return n


# The largest --power each command accepts. Cost grows steeply with p, as
# the coefficients of the p-th power grow exponentially; at these limits one
# cold answer took at most about 3 s on a 2-core Linux VM with Python 3.11.
MAX_POWER = {
    "decompose": 100,
    "multiplicity": 100,
    "fan": 40,
    "singular": 40,
    "closed-form": 30,
}

# The largest --pmax each command accepts, chosen the same way: one cold
# answer at these limits took at most about 3 s on the same VM.
MAX_PMAX = {"fit": 150, "verify": 22, "diagram": 60}

# The smallest --pmax each command accepts. A fit samples p = 6..pmax+4 and
# needs 3 samples to certify even a constant, so pmax 4 is the first with a
# window; verify's diagonal-families-s4-6 and diagonal-polynomial-fits need
# the same window and report spurious failures below it.
MIN_PMAX = {"fit": 4, "verify": 4}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="b2tensor",
        description="Exact decomposition of tensor powers of the so(5) vector and spinor modules",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")

    def add_power(p, command):
        p.add_argument(
            "--power",
            type=_positive_int,
            required=True,
            help=f"the tensor power p, at most {MAX_POWER[command]}",
        )

    def add_pmax(p, command, **kwargs):
        low = f"at least {MIN_PMAX[command]} and " if command in MIN_PMAX else ""
        p.add_argument(
            "--pmax",
            type=_positive_int,
            help=f"the largest power, {low}at most {MAX_PMAX[command]}",
            **kwargs,
        )

    p = sub.add_parser("decompose", help="decompose the p-th tensor power into irreducibles")
    p.add_argument("--module", choices=("vector", "spinor"), required=True)
    add_power(p, "decompose")
    p.add_argument("--cache", metavar="DIR", default=None)
    add_format(p)

    p = sub.add_parser("multiplicity", help="multiplicity of one weight in the p-th power")
    p.add_argument("--module", choices=("vector", "spinor"), required=True)
    add_power(p, "multiplicity")
    p.add_argument("--weight", type=_weight_arg, required=True, metavar="V1,V2")
    p.add_argument(
        "--extended",
        action="store_true",
        help="evaluate the antisymmetric extension at non-dominant weights",
    )
    add_format(p)

    p = sub.add_parser("fan", help="fan coefficients of the p-fold diagonal injection")
    add_power(p, "fan")
    add_format(p)

    p = sub.add_parser("singular", help="singular element of the p-th power")
    p.add_argument("--module", choices=("vector", "spinor"), required=True)
    add_power(p, "singular")
    p.add_argument(
        "--projected",
        action="store_true",
        help="the p-th power of the one-factor singular element instead of ch^p * R",
    )
    p.add_argument("--cache", metavar="DIR", default=None)
    add_format(p)

    p = sub.add_parser("closed-form", help="closed-form coefficients and printed-formula diffs")
    p.add_argument("--kind", choices=("fan", "vector", "spinor"), required=True)
    add_power(p, "closed-form")
    p.add_argument("--weight", type=_weight_arg, default=None, metavar="V1,V2")
    p.add_argument(
        "--diff-printed",
        action="store_true",
        help="emit points where the verbatim published formula disagrees",
    )
    add_format(p)

    p = sub.add_parser("fit", help="fit a polynomial in p along a diagonal family")
    p.add_argument("--s", type=int, required=True, metavar="S", help="family index 1..6")
    p.add_argument("--t", type=_positive_int, required=True, metavar="T")
    add_pmax(p, "fit", default=10)
    add_format(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=tuple(SUITE_ORDER) + ("all",), default="all")
    add_pmax(p, "verify", default=10)
    p.add_argument(
        "--timings",
        action="store_true",
        help="write each check's name, seconds and point count to stderr",
    )
    add_format(p)

    p = sub.add_parser("diagram", help="growth diagram of tensor powers as DOT")
    p.add_argument("--module", choices=("vector", "spinor"), required=True)
    add_pmax(p, "diagram", required=True)

    return top


# Rendering. A series or decomposition is printed from its JSON payload, the
# text that cached() stores: canonical, sorted by point, every coefficient a
# decimal string. The formats only rearrange those strings, so a cache hit
# is printed as stored, with nothing parsed back.


def _series_text(payload, fmt: str) -> str:
    rows = [(e["weight"], e["coeff"]) for e in payload]  # in every format: checks the shape
    if fmt == "json":
        return canonical_json(payload) + "\n"
    if fmt == "csv":
        return "weight,coeff\n" + "".join(f'"{w}",{c}\n' for w, c in rows)
    return "".join(f"{w:>12}  {c}\n" for w, c in rows)


def _decomposition_text(payload, fmt: str) -> str:
    module, power = payload["module"], payload["power"]  # in every format: checks the shape
    rows = [(t["weight"], t["mult"], t["dim"]) for t in payload["terms"]]
    if fmt == "json":
        return canonical_json(payload) + "\n"
    if fmt == "csv":
        return "weight,mult,dim\n" + "".join(f'"{w}",{m},{d}\n' for w, m, d in rows)
    total = sum(int(m) * int(d) for _, m, d in rows)
    return "".join(
        [f"{module}^(x{power}) =\n"]
        + [f"  {m:>8} x L({w})  dim {d}\n" for w, m, d in rows]
        + [f"total dimension {total}\n"]
    )


def _print_payload(render, payload, fmt: str) -> None:
    """Print render(payload, fmt), built whole before any of it is printed.

    A payload read from the cache has passed its digest check, which tells a
    changed file from the one written but not a well-formed payload from
    another; one that render cannot read is an error, and stdout stays empty.
    """
    try:
        text = render(payload, fmt)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed payload: {exc!r}") from None
    print(text, end="")


def _cmd_decompose(args) -> int:
    payload = cached(
        args.cache,
        f"decompose-{args.module}-{args.power}",
        lambda: decomposition(args.module, args.power).to_json_obj(),
    )
    _print_payload(_decomposition_text, payload, args.format)
    return 0


def _cmd_multiplicity(args) -> int:
    if not args.extended and not is_dominant(args.weight):
        print(
            f"weight {args.weight.text()} is not dominant; pass --extended for "
            "the antisymmetric extension",
            file=sys.stderr,
        )
        return 2
    val = m_extended(args.module, args.power, args.weight)
    if args.format == "json":
        print(
            canonical_json(
                {
                    "module": args.module,
                    "power": args.power,
                    "weight": args.weight.text(),
                    "multiplicity": str(val),
                }
            )
        )
    elif args.format == "csv":
        print("module,power,weight,multiplicity")
        print(f'{args.module},{args.power},"{args.weight.text()}",{val}')
    else:
        print(val)
    return 0


def _cmd_fan(args) -> int:
    if args.power < 1:
        print("fan needs --power >= 1", file=sys.stderr)
        return 2
    _print_payload(_series_text, fan_with_zero(args.power).to_json_obj(), args.format)
    return 0


def _cmd_singular(args) -> int:
    which = "projected" if args.projected else "direct"
    fn = singular_power_projected if args.projected else singular_power_direct
    payload = cached(
        args.cache,
        f"singular-{which}-{args.module}-{args.power}",
        lambda: fn(args.module, args.power).to_json_obj(),
    )
    _print_payload(_series_text, payload, args.format)
    return 0


def _cmd_closed_form(args) -> int:
    if args.power < 1:
        print("closed-form needs --power >= 1", file=sys.stderr)
        return 2
    if args.diff_printed:
        rows = diff_report(args.kind, args.power)
        if args.format == "json":
            print(canonical_json(rows))
        elif args.format == "csv":
            print("point,printed,direct")
            for r in rows:
                print('"{point}",{printed},{direct}'.format(**r))
        else:
            for r in rows:
                print(f'{r["point"]:>12}  printed {r["printed"]:>6}  direct {r["direct"]:>6}')
            print(f"{len(rows)} differing points")
        return 0
    form = CLOSED_FORMS[args.kind]
    if args.weight is not None:
        val = form.validated(args.power, [(args.weight.d1, args.weight.d2)])[0]
        if args.format == "json":
            print(
                canonical_json(
                    {
                        "kind": args.kind,
                        "power": args.power,
                        "weight": args.weight.text(),
                        "coeff": str(val),
                    }
                )
            )
        elif args.format == "csv":
            print("kind,power,weight,coeff")
            print(f'{args.kind},{args.power},"{args.weight.text()}",{val}')
        else:
            print(val)
        return 0
    points = _support_halo(form.truth(args.power))
    values = form.validated(args.power, points)
    _print_payload(_series_text, series_json_obj(zip(points, values)), args.format)
    return 0


@lru_cache(maxsize=64)
def _diagonal_values(s: int, t: int, p_last: int) -> tuple:
    """Vector multiplicities along the diagonal family (s, t) for p = 0..p_last.

    Taken from the weight-shift recursion, the slow part of a fit query;
    repeated queries share the cached tuple, which nobody can mutate.
    """
    recs = recur_multiplicity("vector", p_last)
    return tuple(recs[p](cfm.diagonal_weight(s, t, p)) for p in range(p_last + 1))


def _cmd_fit(args) -> int:
    if not 1 <= args.s <= 6:
        print("--s must be 1..6", file=sys.stderr)
        return 2
    hi = args.pmax + 4
    values = _diagonal_values(args.s, args.t, hi + 3)
    xs = list(range(6, hi + 1))
    ys = [values[p] for p in xs]
    try:
        fit = cfm.fit_polynomial(xs, ys)
    except cfm.PolynomialityError as exc:
        print(f"no polynomial certified: {exc}", file=sys.stderr)
        return 1
    preds = []
    for p in range(hi + 1, hi + 4):
        preds.append(
            {
                "p": p,
                "fit": str(fit(p)),
                "recurrence": str(values[p]),
            }
        )
    coeffs = [str(c) for c in fit.coefficients()]
    if args.format == "json":
        print(
            canonical_json(
                {
                    "s": args.s,
                    "t": args.t,
                    "window": [xs[0], xs[-1]],
                    "degree": fit.degree,
                    "coefficients": coeffs,
                    "predictions": preds,
                }
            )
        )
    elif args.format == "csv":
        print("k,coefficient")
        for k, c in enumerate(coeffs):
            print(f"{k},{c}")
        print("p,fit,recurrence")
        for r in preds:
            print("{p},{fit},{recurrence}".format(**r))
    else:
        print(f"family s={args.s} t={args.t}, window p={xs[0]}..{xs[-1]}")
        print(f"degree {fit.degree}, coefficients (ascending): {', '.join(coeffs)}")
        for r in preds:
            mark = "ok" if r["fit"] == r["recurrence"] else "MISMATCH"
            print(f'  predict p={r["p"]}: {r["fit"]} (recurrence {r["recurrence"]}) {mark}')
    bad = any(r["fit"] != r["recurrence"] for r in preds)
    return 1 if bad else 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.pmax)
    if args.timings:
        for c in report.checks:
            print(f"{c.name} {c.seconds:.4f} s {c.points} points", file=sys.stderr)
    if args.format == "json":
        print(canonical_json(report.to_json_obj()))
    elif args.format == "csv":
        print("name,status,evidence")
        for c in report.checks:
            print(f'{c.name},{c.status},"{c.evidence}"')
    else:
        print(report.render_pretty(), end="")
    return 0 if report.ok else 1


def _cmd_diagram(args) -> int:
    print(to_dot(args.module, args.pmax), end="")
    return 0


_DISPATCH = {
    "decompose": _cmd_decompose,
    "multiplicity": _cmd_multiplicity,
    "fan": _cmd_fan,
    "singular": _cmd_singular,
    "closed-form": _cmd_closed_form,
    "fit": _cmd_fit,
    "verify": _cmd_verify,
    "diagram": _cmd_diagram,
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one instance serves every call
    return build_parser()


_NEGATIVE_VALUE = re.compile(r"-\d")


def _attach_weight_values(argv):
    """Rewrite `--weight -1,0` as `--weight=-1,0`.

    argparse takes a separate value with a leading minus that is not a plain
    number for an option, so a weight whose first coordinate is negative
    would otherwise be rejected.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--weight" and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"--weight={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_attach_weight_values(argv))
    for option, limits in (("power", MAX_POWER), ("pmax", MAX_PMAX)):
        limit = limits.get(args.command)
        value = getattr(args, option, None)
        if limit is not None and value > limit:
            print(
                f"error: --{option} {value} is above the limit {limit} of {args.command}",
                file=sys.stderr,
            )
            return 1
    low = MIN_PMAX.get(args.command)
    if low is not None and args.pmax < low:
        print(f"error: --pmax {args.pmax} is below the limit {low} of {args.command}", file=sys.stderr)
        return 1
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
