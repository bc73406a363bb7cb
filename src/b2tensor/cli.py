"""Command line interface.

Exit codes: 0 on success, 1 when a verification suite reports a failure or a
computation cannot complete, 2 for usage errors.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from itertools import starmap
from operator import itemgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from . import closed_forms as cfm
from . import cache
from .cache import BoundedLRU, canonical_json
from .diagram import to_dot
from .engine import band_values, decomposition, m_extended
from .fans import (
    CLOSED_FORMS,
    closed_form_point,
    closed_form_window,
    diff_report,
    fan_with_zero,
    singular_power_direct,
    singular_power_projected,
)
from .lattice import FUNDAMENTAL, Weight, is_dominant
from .series import series_json_obj
from .verify import SUITES, run_suite

if TYPE_CHECKING:
    import argparse


def _argparse():
    """The argparse module, imported on first use: a plain command line never
    needs it, and importing it (with gettext and locale) costs a cold start
    about 4 ms."""
    import argparse

    return argparse


def _weight_arg(text: str) -> Weight:
    try:
        return Weight.parse(text)
    except ValueError as exc:
        raise _argparse().ArgumentTypeError(str(exc)) from None
    except ZeroDivisionError:
        raise _argparse().ArgumentTypeError(f"{text} has a zero denominator") from None


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise _argparse().ArgumentTypeError(f"{text!r} is not an integer") from None
    if n < 0:
        raise _argparse().ArgumentTypeError(f"{n} is negative")
    return n


def _directory(text: str) -> str:
    if not text:  # an empty name would put the cache files in the working directory
        raise _argparse().ArgumentTypeError("the directory name is empty")
    return text


# The one size option of each command, with its lowest and highest value;
# main refuses a value outside them, and no handler checks the size again.
# Cost grows steeply with p, as the coefficients of the p-th power grow
# exponentially; at the highest values one cold answer took at most about
# 2 s on a 2-core Linux VM with Python 3.11 (closed-form --kind spinor
# --diff-printed at 30 1.8 s, verify at 22 0.64 s, every other command 0.7 s
# or less; fit at 150 0.1 s, as its recursion runs only on the band of the
# weights it reads). fan and closed-form start at 1, as the fan of p factors
# is R^(p-1), and fit and verify at closed_forms.PMAX_MIN, the first fit window.
LIMITS = {
    "decompose": ("power", 0, 100),
    "multiplicity": ("power", 0, 100),
    "fan": ("power", 1, 40),
    "singular": ("power", 0, 40),
    "closed-form": ("power", 1, 30),
    "fit": ("pmax", cfm.PMAX_MIN, 150),
    "verify": ("pmax", cfm.PMAX_MIN, 22),
    "diagram": ("pmax", 0, 60),
}


class Option(NamedTuple):
    """One option of a command, from which both argparse and _read take it.

    A flag is argparse's store_true: no value, True when given, else False.
    The options marked exclusive form the command's one mutually exclusive
    group."""

    name: str
    type: object = None
    choices: tuple | None = None
    default: object = None
    required: bool = False
    flag: bool = False
    metavar: str | None = None
    help: str | None = None
    exclusive: bool = False

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


def _size(command: str, default=None) -> Option:
    """The size option of the command, with its limits from LIMITS in its help."""
    option, low, high = LIMITS[command]
    what = "the tensor power p" if option == "power" else "the largest power"
    least = f"at least {low} and " if low else ""
    help = f"{what}, {least}at most {high}"
    return Option(f"--{option}", _positive_int, default=default, required=default is None, help=help)


_MODULE = Option("--module", choices=tuple(FUNDAMENTAL), required=True)
_CACHE = Option("--cache", _directory, metavar="DIR")
_FORMAT = Option("--format", choices=("json", "csv", "pretty"), default="pretty")

# Each command: its summary and its options, in the order argparse adds them.
COMMANDS = {
    "decompose": (
        "decompose the p-th tensor power into irreducibles",
        (_MODULE, _size("decompose"), _CACHE, _FORMAT),
    ),
    "multiplicity": (
        "multiplicity of one weight in the p-th power",
        (
            _MODULE,
            _size("multiplicity"),
            Option("--weight", _weight_arg, required=True, metavar="V1,V2"),
            Option(
                "--extended",
                flag=True,
                help="evaluate the antisymmetric extension at non-dominant weights",
            ),
            _FORMAT,
        ),
    ),
    "fan": ("fan coefficients of the p-fold diagonal injection", (_size("fan"), _FORMAT)),
    "singular": (
        "singular element of the p-th power",
        (
            _MODULE,
            _size("singular"),
            Option(
                "--projected",
                flag=True,
                help="the p-th power of the one-factor singular element instead of ch^p * R",
            ),
            _CACHE,
            _FORMAT,
        ),
    ),
    "closed-form": (
        "closed-form coefficients and printed-formula diffs",
        (
            Option("--kind", choices=tuple(CLOSED_FORMS), required=True),
            _size("closed-form"),
            Option("--weight", _weight_arg, metavar="V1,V2", exclusive=True),
            Option(
                "--diff-printed",
                flag=True,
                help="emit points where the verbatim published formula disagrees",
                exclusive=True,
            ),
            _FORMAT,
        ),
    ),
    "fit": (
        "fit a polynomial in p along a diagonal family",
        (
            Option("--s", int, required=True, metavar="S", help="family index 1..6"),
            Option("--t", _positive_int, required=True, metavar="T"),
            _size("fit", default=10),
            _FORMAT,
        ),
    ),
    "verify": (
        "run a verification suite",
        (
            Option("--suite", choices=(*SUITES, "all"), default="all"),
            _size("verify", default=10),
            Option(
                "--timings",
                flag=True,
                help="write each check's name, seconds and point count to stderr",
            ),
            _FORMAT,
        ),
    ),
    "diagram": ("growth diagram of tensor powers as DOT", (_MODULE, _size("diagram"))),
}


def build_parser() -> argparse.ArgumentParser:
    return _new_parsers()[0]


def _new_parsers() -> tuple:
    """The top-level parser and the map from each command to its own parser."""
    top = _argparse().ArgumentParser(
        prog="b2tensor",
        description="Exact decomposition of tensor powers of the so(5) vector and spinor modules",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for command, (summary, options) in COMMANDS.items():
        parser = group = sub.add_parser(command, help=summary)
        for o in options:
            if o.exclusive and group is parser:
                group = parser.add_mutually_exclusive_group()
            if o.flag:
                kwargs = {"action": "store_true"}
            else:
                kwargs = dict(type=o.type, choices=o.choices, default=o.default, metavar=o.metavar)
            container = group if o.exclusive else parser
            container.add_argument(o.name, required=o.required, help=o.help, **kwargs)
    return top, sub.choices


# Parsing leaves the parsers unchanged, so one instance serves every call.
_parsers = lru_cache(maxsize=1)(_new_parsers)


# Rendering. A handler returns its Answer: the exit code and the whole text
# of stdout and of stderr, which main prints. Every answer but a fit or a
# diagram is one JSON object rendered by _render; its CSV columns are the
# keys its rows are read at. A series or decomposition is rendered from its
# payload, the object that the disk cache stores: canonical, sorted by point,
# every coefficient a decimal string. The formats only rearrange those
# strings, so nothing is parsed back. With --cache, _cached_answer also has
# the payload's canonical text, which a hit read from the file and a miss
# serialized once to store; the JSON answer is that text, not a second
# serialization.


class Answer(NamedTuple):
    """A command's exit code and the text it prints on stdout and stderr."""

    code: int
    out: str = ""
    err: str = ""


def _render(fmt: str, obj, keys: tuple, pretty, entries=None, quoted=0, canonical=None) -> str:
    """The text of obj in fmt.

    The rows of the answer are its entries, obj itself or entries(obj), each
    a dict read at keys. json renders obj, or prints canonical, the
    canonical JSON of obj when the caller has it; csv renders the keys and
    then the rows, the cell at index quoted in double quotes; pretty is
    pretty(obj, rows). The rows are read in every format, so they check the
    shape of obj. A payload read from the cache has passed its digest check,
    which tells a changed file from the one written but not a well-formed
    payload from another; one that cannot be read is an error, and stdout
    stays empty.
    """
    try:
        rows = list(map(itemgetter(*keys), obj if entries is None else entries(obj)))
        if fmt == "json":
            text = (canonical_json(obj) if canonical is None else canonical) + "\n"
        elif fmt == "csv":
            line = ",".join('"{}"' if i == quoted else "{}" for i in range(len(keys))) + "\n"
            text = ",".join(keys) + "\n" + "".join(starmap(line.format, rows))
        else:
            text = pretty(obj, rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed payload: {exc!r}") from None
    return text


_SERIES_KEYS = ("weight", "coeff")


def _series_pretty(_, rows) -> str:
    return "".join(f"{w:>12}  {c}\n" for w, c in rows)


def _terms(payload) -> list:
    payload["module"], payload["power"]  # read in every format: they check the shape
    return payload["terms"]


def _decomposition_pretty(payload, rows) -> str:
    head = f"{payload['module']}^(x{payload['power']}) =\n"
    lines = [f"  {m:>8} x L({w})  dim {d}\n" for w, m, d in rows]
    return head + "".join(lines) + f"total dimension {sum(int(m) * int(d) for _, m, d in rows)}\n"


def _point(args, label: str, key: str, value: int) -> str:
    # one value at one weight: multiplicity and closed-form --weight. The
    # object has one row, itself, of four keys, so pretty and json need none
    # of _render's rows; csv renders its header and row through _render.
    if args.format == "pretty":
        return f"{value}\n"
    obj = {label: getattr(args, label), "power": args.power, "weight": args.weight.text()}
    obj[key] = str(value)
    if args.format == "json":
        return canonical_json(obj) + "\n"
    return _render("csv", obj, tuple(obj), None, entries=lambda o: [o], quoted=2)


def _cached_answer(args, key: str, compute, keys: tuple, pretty, entries=None) -> Answer:
    """The answer rendered by _render from compute(), the payload of a
    decompose or singular query, or with --cache from the payload stored
    under key.

    Every hit reads and checks its file in cache.load. The text rendered
    from a hit, or from a miss once its payload is stored, is kept in
    _ANSWERS under (the payload's digest, key, --format), so a later hit on
    a payload with that digest prints it without decoding or rendering
    anything: the digest fixes the payload's bytes, and key and --format how
    they are rendered. The digest is bytes, and the key of a command line is
    a tuple of str, so no argv can equal it. A payload that cannot be
    rendered raises, so only an answer that exits 0 with nothing on stderr
    is kept.
    """

    def render(payload, canonical=None) -> str:
        return _render(args.format, payload, keys, pretty, entries, canonical=canonical)

    if args.cache is None:
        return Answer(0, render(compute()))
    memo_key = None

    def rendered(digest):
        nonlocal memo_key
        memo_key = (digest, key, args.format)
        return _ANSWERS.get(memo_key)

    hit = cache.load(args.cache, key, rendered)
    if hit is None:
        payload = compute()
        canonical = canonical_json(payload)
        digest = cache.digest(canonical)
        cache.store(args.cache, key, canonical, digest)
        memo_key = (digest, key, args.format)
    else:
        payload, canonical = hit
        if canonical is None:  # the text rendered from these very bytes before
            return Answer(0, payload)
    text = render(payload, canonical)
    _ANSWERS.put(memo_key, text)
    return Answer(0, text)


def _cmd_decompose(args) -> Answer:
    return _cached_answer(
        args,
        f"decompose-{args.module}-{args.power}",
        lambda: decomposition(args.module, args.power).to_json_obj(),
        ("weight", "mult", "dim"),
        _decomposition_pretty,
        _terms,
    )


def _cmd_multiplicity(args) -> Answer:
    if not args.extended and not is_dominant(args.weight):
        return Answer(
            2,
            err=f"weight {args.weight.text()} is not dominant; pass --extended for "
            "the antisymmetric extension\n",
        )
    value = m_extended(args.module, args.power, args.weight)
    return Answer(0, _point(args, "module", "multiplicity", value))


def _cmd_fan(args) -> Answer:
    payload = fan_with_zero(args.power).to_json_obj()
    return Answer(0, _render(args.format, payload, _SERIES_KEYS, _series_pretty))


def _cmd_singular(args) -> Answer:
    which = "projected" if args.projected else "direct"
    fn = singular_power_projected if args.projected else singular_power_direct
    return _cached_answer(
        args,
        f"singular-{which}-{args.module}-{args.power}",
        lambda: fn(args.module, args.power).to_json_obj(),
        _SERIES_KEYS,
        _series_pretty,
    )


def _diff_pretty(_, rows) -> str:
    lines = [f"{pt:>12}  printed {a:>6}  direct {b:>6}\n" for pt, a, b in rows]
    return "".join(lines) + f"{len(rows)} differing points\n"


def _cmd_closed_form(args) -> Answer:
    if args.diff_printed:
        report = diff_report(args.kind, args.power)
        return Answer(0, _render(args.format, report, ("point", "printed", "direct"), _diff_pretty))
    if args.weight is not None:
        value = closed_form_point(args.kind, args.power, (args.weight.d1, args.weight.d2))
        return Answer(0, _point(args, "kind", "coeff", value))
    points, _ = closed_form_window(args.kind, args.power)
    payload = series_json_obj(zip(points, CLOSED_FORMS[args.kind].validated(args.power, points)))
    return Answer(0, _render(args.format, payload, _SERIES_KEYS, _series_pretty))


def _diagonal_values(s: int, t: int, p_last: int) -> list:
    """Vector multiplicities along the diagonal family (s, t) for p = 0..p_last.

    Taken from the weight-shift recursion, the slow part of a fit query; a
    repeated fit is answered from the text memo and does not get here.
    """
    return band_values("vector", [(p, cfm.diagonal_weight(s, t, p)) for p in range(p_last + 1)])


def _cmd_fit(args) -> Answer:
    if not 1 <= args.s <= 6:
        return Answer(2, err="--s must be 1..6\n")
    hi = args.pmax + 4
    try:
        fit, predictions = cfm.fit_window(_diagonal_values(args.s, args.t, hi + 3), hi)
    except cfm.PolynomialityError as exc:
        return Answer(1, err=f"no polynomial certified: {exc}\n")
    coeffs = [str(c) for c in fit.coefficients()]
    preds = [(p, str(fitted), str(recurred)) for p, fitted, recurred in predictions]
    if args.format == "json":
        obj = {
            "s": args.s,
            "t": args.t,
            "window": [fit.x0, hi],
            "degree": fit.degree,
            "coefficients": coeffs,
            "predictions": [dict(zip(("p", "fit", "recurrence"), r)) for r in preds],
        }
        lines = [canonical_json(obj)]
    elif args.format == "csv":
        lines = ["k,coefficient", *(f"{k},{c}" for k, c in enumerate(coeffs))]
        lines += ["p,fit,recurrence", *(f"{p},{fitted},{recurred}" for p, fitted, recurred in preds)]
    else:
        lines = [
            f"family s={args.s} t={args.t}, window p={fit.x0}..{hi}",
            f"degree {fit.degree}, coefficients (ascending): {', '.join(coeffs)}",
        ]
        for p, fitted, recurred in preds:
            mark = "ok" if fitted == recurred else "MISMATCH"
            lines.append(f"  predict p={p}: {fitted} (recurrence {recurred}) {mark}")
    code = 1 if any(fitted != recurred for _, fitted, recurred in preds) else 0
    return Answer(code, "".join(line + "\n" for line in lines))


def _report_pretty(report, rows) -> str:
    head = f"suite {report['suite']} (pmax={report['pmax']})\n"
    lines = [f"  [{status}] {name}: {evidence}\n" for name, status, evidence in rows]
    counts = ", ".join(f"{report[s]} {s}" for s in ("pass", "fail", "documented-discrepancy"))
    return head + "".join(lines) + counts + "\n"


def _cmd_verify(args) -> Answer:
    report = run_suite(args.suite, args.pmax)
    keys, checks = ("name", "status", "evidence"), itemgetter("checks")
    text = _render(args.format, report.to_json_obj(), keys, _report_pretty, entries=checks, quoted=2)
    lines = [f"{c.name} {c.seconds:.4f} s {c.points} points\n" for c in report.checks]
    return Answer(0 if report.ok else 1, text, "".join(lines) if args.timings else "")


def _cmd_diagram(args) -> Answer:
    return Answer(0, to_dot(args.module, args.pmax))


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


class _Options(NamedTuple):
    """What _read knows of one command's options, taken from COMMANDS."""

    # option string -> (dest, whether it is a flag, type, frozenset of the
    # choices or None)
    actions: dict
    defaults: dict  # dest -> default, in the order of the options
    required: frozenset  # the dests of the required options
    exclusive: frozenset  # the dests of the mutually exclusive options


_OPTIONS = {
    command: _Options(
        {
            o.name: (o.dest, o.flag, o.type, None if o.choices is None else frozenset(o.choices))
            for o in options
        },
        {o.dest: False if o.flag else o.default for o in options},
        frozenset(o.dest for o in options if o.required),
        frozenset(o.dest for o in options if o.exclusive),
    )
    for command, (_, options) in COMMANDS.items()
}


# Why _read gives what argparse gives: argparse classifies each token that
# starts with '-' as an option and every other token as an argument. On a
# plain command line each option is an exact option string, or one before
# '=', and a value token never starts with '-', so each option takes the
# one argument that follows it, or its '=' text, as argparse's nargs None
# takes it. argparse then calls the option's type on that text and checks
# its choices on the result, in the order the options come, as _read does
# (in a frozenset of them, which holds a hashable value exactly when the
# choices do; an unhashable one is left to argparse); it turns the
# exceptions _read catches into usage errors and lets any other one
# through, as _read does. It stores True for a flag, checks the required
# options and the exclusive group, and keeps the defaults of the options not
# given. Two more rules of argparse are kept apart: it drops an argument
# '--' as the end of the options, so an '=' text of '--' is left to it, and
# it passes a str default through the option's type, which no option here
# needs, as every str default belongs to an option with no type. _read and
# the parsers both take the options from COMMANDS, so a plain command line is
# read without importing argparse; a test checks that argparse's Actions
# equal the table, field by field.
def _read(argv: list) -> SimpleNamespace | None:
    """The attributes argparse gives for argv when it is a plain command line, else None.

    A plain command line is a command and then options of it: each token is
    an exact long option of that command, no option is given twice, and an
    option that takes a value takes the text after '=' in its token or else
    the next token, which does not start with '-'. Every value passes its
    option's type and choices, every required option is given and at most
    one of the exclusive options. Any other argv is left to argparse, so
    every help text, usage error and exit code is its own. The answer is a
    SimpleNamespace whose vars() equal those of argparse's Namespace.
    """
    spec = _OPTIONS.get(argv[0]) if argv else None
    if spec is None:
        return None
    actions, values = spec.actions, {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = actions.get(token)
        if action is None:
            option, _, text = token.partition("=")
            action = actions.get(option)
            if action is None or action[1] or text == "--":
                return None
        elif action[1]:
            text = None
        else:
            text = next(tokens, "-")  # a missing value is refused as a leading '-'
            if text.startswith("-"):
                return None
        dest, _, kind, choices = action
        if dest in values:
            return None
        if text is None:  # a flag
            value = True
        else:
            try:
                value = text if kind is None else kind(text)
                if choices is not None and value not in choices:
                    return None
            # the tuple is built only when a type raises (or an unhashable
            # value meets the frozenset of choices), and the refused line goes
            # to argparse next, so importing it here costs nothing extra
            except (_argparse().ArgumentTypeError, TypeError, ValueError):
                return None
        values[dest] = value
    if not values.keys() >= spec.required or len(spec.exclusive & values.keys()) > 1:
        return None
    return SimpleNamespace(**{**spec.defaults, **values, "command": argv[0]})


def _parse(argv: list) -> argparse.Namespace | SimpleNamespace:
    """Parse argv with its command's own parser, as the top-level parser would.

    A plain command line is read by _read. Any other goes to the command's
    parser: the top-level parser hands everything after the command to that
    parser and reports what it leaves over, so going there directly skips
    the top-level pass. No arguments, an unknown command and the top-level
    --help still go through the top-level parser.
    """
    args = _read(argv)
    if args is None:
        # Only a line _read refuses is rewritten, and then read again. The
        # rewrite changes argv only where a token of _WEIGHT_OPTIONS is
        # followed by a token that starts with '-', and _read refuses every
        # line with such a pair. It would read the pair's first token as the
        # command, and none is named so; or as an option, and it is then no
        # exact option of the command, or --weight, whose separate value may
        # not start with '-'; or as the value of the option before it, which
        # may not start with '-' either. So the rewrite leaves every line
        # _read takes as it is, and each line parses as its rewrite did.
        argv = _attach_weight_values(argv)
        args = _read(argv)
    if args is not None:
        return args
    top, commands = _parsers()
    parser = commands.get(argv[0]) if argv else None
    if parser is None:
        return top.parse_args(argv)
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    # argparse drops an '=' text of '--' as the end of the options and stores
    # [] for the option, without calling its type; every option here has one
    # option string, which argparse names in its error
    for option, (dest, *_) in _OPTIONS[argv[0]].actions.items():
        if getattr(args, dest) == []:
            parser.error(f"argument {option}: expected one argument")
    args.command = argv[0]
    return args


# Repeated queries are answered with the text printed the first time, from
# one BoundedLRU keyed by the command line as given and looked up before
# parsing, so a hit costs a tuple, a dict lookup and the write. The parse is
# deterministic, so a stored command line always means the same query; another
# spelling of it (--power=3, another option order) is stored on its own. Keys
# come from outside (--power 3, 03, 003 ... are distinct and of any length),
# so an entry is charged its text plus its key's characters; the memo holds at
# most MEMO_CHARS and does not keep a larger entry. For scale, fan --power 40
# prints 0.55 M characters and decompose vector --power 100 0.23 M. Only an
# answer with exit code 0 and nothing on stderr is kept, and only a process
# that calls main again and again gains, such as the query-mix worker of
# benchmark/run.py; python -m b2tensor answers one query and never hits.
# Whether a miss is stored is decided from the parsed query, so an
# abbreviation such as --cach bypasses as the full option does. Three kinds of
# query are not looked up by their command line, and each pays for its parse
# (a weight given as `--weight -1,0` is rewritten and read again by _parse
# only when _read refuses it as it stands): _read takes 2-4 us on a
# plain command line (every token an exact option of the command, given once,
# each value after '=' or in the next token, which does not start with '-'),
# looked up in the table taken from COMMANDS, and gives a SimpleNamespace,
# so argparse is never imported for it; any other command
# line goes to argparse, which takes 13-21 us once imported and built.
# - verify, as a self-check must recompute and --timings reports live numbers;
# - any query with --cache, as every hit must open, read and check its file
#   in cache.load. The answer is then looked up under (the verified digest
#   as bytes, the cache key, --format), see _cached_answer, and only a
#   lookup that misses decodes and renders the payload; a miss keeps the
#   text it rendered under the digest of the file it stored. A query in
#   query-mix takes 43 us (the median of three runs' medians, 28-45, with
#   the output capture of benchmark/worker.py timed, 2-core VM);
# - an answer at one weight (multiplicity, closed-form --weight): its text is
#   a single number and its keys are every lattice point. Kept, they filled
#   the memo with 10 644 entries in 600 query-mix rounds and raised peak RSS
#   by 7 MB; charging each entry 700 characters for its key still let up to
#   1 MiB / 700 = 1 500 of them in, and query-mix peak RSS rose by 1.2 MB.
#   Bypassing, multiplicity takes 31 us (23-34) and closed-form --weight
#   35 us (25-36), measured as the --cache query above.
MEMO_CHARS = 1 << 20


def _memoizable(args) -> bool:
    """Whether the query's answer may be kept in the memo."""
    bypass = args.command == "verify" or getattr(args, "cache", None) is not None
    return not bypass and getattr(args, "weight", None) is None


_ANSWERS = BoundedLRU(MEMO_CHARS, lambda key, text: len(text) + sum(map(len, key)))


_NEGATIVE_VALUE = re.compile(r"-\.?\d")  # the leading minus of every number Fraction reads
# --weight and the abbreviations argparse resolves to it
_WEIGHT_OPTIONS = frozenset("--weight"[:n] for n in range(3, 9))


def _attach_weight_values(argv):
    """Rewrite `--weight -1,0` as `--weight=-1,0`, and `--wei -1,0` as `--wei=-1,0`.

    argparse takes a separate value with a leading minus that is not a plain
    number for an option, so a weight whose first coordinate is negative
    would otherwise be rejected.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _WEIGHT_OPTIONS and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    key = tuple(argv)
    text = _ANSWERS.get(key)
    if text is not None:
        sys.stdout.write(text)
        return 0
    args = _parse(argv)
    option, low, high = LIMITS[args.command]
    value = getattr(args, option)
    if not low <= value <= high:
        side, limit = ("below", low) if value < low else ("above", high)
        print(
            f"error: --{option} {value} is {side} the limit {limit} of {args.command}",
            file=sys.stderr,
        )
        return 1
    try:
        code, out, err = _DISPATCH[args.command](args)
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        code, out, err = 1, "", f"error: {exc}\n"
    sys.stderr.write(err)
    sys.stdout.write(out)
    if code == 0 and not err and _memoizable(args):
        _ANSWERS.put(key, out)
    return code
