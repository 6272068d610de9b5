"""The ``folinv`` command line: parse polynomials, dispatch to the invariants.

Grammar of polynomial expressions: variables ``x`` and ``y``; integer and
rational literals (``3``, ``2/5``); operators ``+ - * ^`` with explicit ``*``
(no implicit multiplication) and ``^`` restricted to nonnegative integer
exponents up to 10^6; parentheses, nested at most 100 deep; insignificant
whitespace.  Syntax errors carry the byte offset and the set of expected
tokens.  A product or power is refused before it is computed when a bound on
its size, terms times coefficient bits, exceeds 10^6; for a single term that
is the bits of its coefficient, so ``2^1000000`` is refused.

A decimal literal has at most 4 300 digits, Python's default limit for
converting a string to an int.

Orders (``--k``, ``--mk``, ``--k-max``) are decimal literals of that rule, in
ASCII digits, and at most 100.

Argument lines: a plain line naming a verb (exact long options, values that
need no argparse rule; see ``_parse_args``) is read from the verb table
without argparse.  argparse reads every other line, ``-h``, abbreviated
options and refused lines among them, so help, usage errors and their exit
codes are argparse's; it is imported and built only for such a line.

Exit codes: 0 for success (including boolean results of ``true``), 1 for a
``false``/failed check or any failed scenario, 2 for input errors (bad
arguments, unparsable polynomials, violated preconditions).

Output of a verb line, which ``evaluate`` runs: ``--format table`` (default)
prints the bare value, with infinite colengths as the token ``infinite``;
``--format json`` emits one object with keys {command, inputs, k, result,
finite, elapsed_ms}.  ``evaluate`` refuses the ``scenarios`` verb, which
``main`` runs.  Its output is one line per scenario: ``id  [location]
description`` or {id, location, description} for ``list``; ``PASS id: value``,
``FAIL id: computed != expected`` or {id, computed, expected, pass,
elapsed_ms} for ``run``, followed by a summary line, ``passed/total scenarios
passed, failed failed`` or {total, passed, failed}.
"""

from __future__ import annotations

import copy
import functools
import os
import sys
import time
from collections.abc import Callable
from fractions import Fraction
from math import comb, log2, prod
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from . import scenarios as scenarios_mod
from .invariants import (
    CurveGerm,
    Foliation,
    PreconditionError,
    check_conjecture1,
    foliation_milnor_k,
    foliation_tjurina_k,
    gsv_index,
    gsv_theorem_check,
    intersection_number,
    is_invariant,
    is_quasihomogeneous_foliation,
    milnor_bound_check,
    milnor_k,
    polar_gsv_check,
    polar_intersection_k,
    quasihomogeneous_identity_check,
    ratio_check,
    second_type_milnor_check,
    teissier_k_check,
    tjurina_k,
)
from .ring import Poly, X, Y, _decode
from .stdbasis import INFINITE, Ideal, colength

if TYPE_CHECKING:
    import argparse


# -- polynomial expression parser ---------------------------------------------


class ParseError(ValueError):
    """Syntax error in a polynomial expression, with byte offset and expectations."""

    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        text = f"syntax error at byte offset {offset}: {message}"
        if self.expected:
            text += "; expected " + " or ".join(self.expected)
        super().__init__(text)


class _Token(NamedTuple):
    kind: str
    value: object
    offset: int


def _tokenize(text: str) -> list:
    tokens = []
    kinds = {
        "+": "PLUS",
        "-": "MINUS",
        "*": "STAR",
        "^": "CARET",
        "(": "LPAREN",
        ")": "RPAREN",
        "x": "VAR",
        "y": "VAR",
    }
    # _Token(...) without the Python-level __new__ of a NamedTuple
    token = functools.partial(tuple.__new__, _Token)
    # Offsets are asked for in increasing order and text[:pos] is nbytes long
    # in UTF-8, so each character is encoded at most once.  In ASCII text an
    # offset is the index.
    pos = nbytes = 0
    ascii_only = text.isascii()

    def _byte_offset(j: int) -> int:
        nonlocal pos, nbytes
        nbytes += len(text[pos:j].encode("utf-8"))
        pos = j
        return nbytes

    def _digits(start: int, end: int) -> int:
        # Python 3.10.7+ refuses int() of longer strings, earlier versions
        # convert them in quadratic time
        if end - start > 4300:
            raise ParseError(
                "number has more than 4300 digits", _byte_offset(start)
            )
        return int(text[start:end])

    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        off = i if ascii_only else _byte_offset(i)
        kind = kinds.get(c)
        if kind is not None:
            tokens.append(token((kind, c, off)))
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            num = _digits(i, j)
            den = 1
            if j < n and text[j] == "/":
                if j + 1 < n and text[j + 1].isdecimal():
                    k = j + 1
                    while k < n and text[k].isdecimal():
                        k += 1
                    den = _digits(j + 1, k)
                    if den == 0:
                        raise ParseError(
                            "denominator is zero", _byte_offset(j + 1)
                        )
                    j = k
                    if tokens and tokens[-1][0] == "CARET":
                        # x^4/2 is not x^2
                        raise ParseError(
                            "exponent must be a nonnegative integer",
                            off,
                            {"integer exponent"},
                        )
                else:
                    raise ParseError(
                        "'/' must be followed by digits",
                        _byte_offset(j),
                        {"digit"},
                    )
            tokens.append(token(("NUM", Fraction(num, den), off)))
            i = j
            continue
        raise ParseError(
            f"unexpected character {c!r}",
            off,
            {"number", "'x'", "'y'", "'+'", "'-'", "'*'", "'^'", "'('", "')'"},
        )
    tokens.append(token(("END", None, _byte_offset(n))))
    return tokens


_EXPONENT_CAP = 10**6
# The parser recurses five calls deep per open parenthesis, so this cap keeps
# any accepted text well inside Python's default recursion limit of 1000.
_DEPTH_CAP = 100
_SIZE_BUDGET = 10**6
_ATOM_EXPECTED = {"number", "'x'", "'y'", "'('", "'-'"}


def _shape(p: Poly) -> tuple:
    """(terms, degree in x, degree in y, log2(D * |D*p|_1)) of p.

    D is the common denominator of the coefficients and |.|_1 the sum of the
    absolute values of the coefficients.  In a product of powers of such
    polynomials, numerators and denominators have at most sum(e * last entry)
    + 1 bits.  As p.prim is primitive, D is the denominator of p.content.
    """
    den = p.content.denominator
    norm = abs(p.content.numerator) * sum(abs(c) for _, c in p.prim)
    a, b = zip(*(_decode(code) for code, _ in p.prim))
    return len(p.prim), max(a), max(b), log2(norm) + log2(den)


def _grows(p: Poly) -> bool:
    """Whether a product with p can be larger than its other factor, so needs
    :func:`_check_size`: not when p is zero (content 0) or a monomial with
    coefficient +-1.  For any other single term the size bound is the bits
    of its coefficient."""
    return len(p.prim) > 1 or p.content not in (0, 1, -1)


def _check_size(op: _Token, factors: list) -> None:
    """Refuse a product of factors, given as (:func:`_shape`, exponent) pairs,
    when a bound on its terms times its coefficient bits exceeds the budget.

    The terms are bounded by the multinomial count and by the box of
    exponents, the coefficient bits by the l1 norms.
    """
    terms = prod(comb(e + shape[0] - 1, shape[0] - 1) for shape, e in factors)
    dx = sum(shape[1] * e for shape, e in factors)
    dy = sum(shape[2] * e for shape, e in factors)
    terms = min(terms, (dx + 1) * (dy + 1))
    bits = int(sum(shape[3] * e for shape, e in factors)) + 1
    if terms * bits > _SIZE_BUDGET:
        raise PreconditionError(
            f"{op.value!r} at byte offset {op.offset} would give up to {terms}"
            f" terms of up to {bits} bits; the limit is {_SIZE_BUDGET}"
            " terms times bits"
        )


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses around the current position

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        node = self._expr()
        tok = self._peek()
        if tok.kind != "END":
            raise ParseError(
                f"unexpected {tok.value!r}",
                tok.offset,
                {"'+'", "'-'", "'*'", "'^'", "end of input"},
            )
        return node

    def _expr(self) -> Poly:
        node = self._term()
        while self._peek().kind in ("PLUS", "MINUS"):
            op = self._advance()
            rhs = self._term()
            node = node + rhs if op.kind == "PLUS" else node - rhs
        return node

    def _term(self) -> Poly:
        node = self._unary()
        while self._peek().kind == "STAR":
            op = self._advance()
            rhs = self._unary()
            if _grows(node) and _grows(rhs):
                _check_size(op, [(_shape(node), 1), (_shape(rhs), 1)])
            node = node * rhs
        return node

    def _unary(self) -> Poly:
        negate = False
        while self._peek().kind == "MINUS":
            self._advance()
            negate = not negate
        node = self._power()
        return -node if negate else node

    def _power(self) -> Poly:
        node = self._atom()
        if self._peek().kind == "CARET":
            op = self._advance()
            tok = self._peek()
            if tok.kind != "NUM":
                raise ParseError(
                    "exponent must be a nonnegative integer",
                    tok.offset,
                    {"integer exponent"},
                )
            exponent = int(tok.value)
            if exponent > _EXPONENT_CAP:
                raise ParseError(
                    f"exponent exceeds {_EXPONENT_CAP}",
                    tok.offset,
                    {"integer exponent <= 10^6"},
                )
            self._advance()
            if _grows(node):
                _check_size(op, [(_shape(node), exponent)])
            return node**exponent
        return node

    def _atom(self) -> Poly:
        tok = self._peek()
        if tok.kind == "NUM":
            self._advance()
            return Poly.constant(tok.value)
        if tok.kind == "VAR":
            self._advance()
            return X if tok.value == "x" else Y
        if tok.kind == "LPAREN":
            if self.depth == _DEPTH_CAP:
                raise ParseError(
                    f"parentheses nested deeper than {_DEPTH_CAP}", tok.offset
                )
            self._advance()
            self.depth += 1
            node = self._expr()
            self.depth -= 1
            closing = self._peek()
            if closing.kind != "RPAREN":
                raise ParseError(
                    "unclosed parenthesis", closing.offset, {"')'"}
                )
            self._advance()
            return node
        raise ParseError(
            "end of input" if tok.kind == "END" else f"unexpected {tok.value!r}",
            tok.offset,
            _ATOM_EXPECTED,
        )


@functools.lru_cache(maxsize=128)
def parse_poly(text: str) -> Poly:
    """Parse a polynomial expression to a normalized Poly (exact arithmetic).

    Results are cached by text: a scenario batch names few distinct
    polynomials many times, and a Poly is immutable, so every caller can
    share one value.  A refused text is not cached and raises on every call.
    """
    return _Parser(_tokenize(text)).parse()


# -- value encoding -----------------------------------------------------------


def canonical(value) -> str:
    """Canonical text form: booleans true/false, infinite, tuples comma-joined."""
    if value is INFINITE:
        return "infinite"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(canonical(v) for v in value)
    return str(value)


def _json_value(value):
    if value is INFINITE:
        return None
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    return str(value)  # a Fraction: check conjecture1's bound


def _all_finite(value) -> bool:
    if value is INFINITE:
        return False
    if isinstance(value, (tuple, list)):
        return all(_all_finite(v) for v in value)
    return True


class Outcome(NamedTuple):
    """Result of one evaluated verb line, ready for formatting and exit-code logic."""

    command: str
    inputs: dict
    k: "int | None"
    result: object

    @property
    def exit_code(self) -> int:
        r = self.result
        if isinstance(r, bool):
            return 0 if r else 1
        if isinstance(r, tuple) and r and isinstance(r[-1], bool):
            return 0 if r[-1] else 1
        return 0


# -- command table ------------------------------------------------------------


# A cold order k makes one Mora run per order up to k, each on a larger basis:
# mu^1000 of x^5+y^7+2x^2y^3 takes about 6 s on 2 cores.
_COUNT_CAP = 100


def _nonneg(text: str) -> int:
    """The ``type`` of orders: an integer in 0.._COUNT_CAP, written as a
    decimal literal of the polynomial grammar, with an optional sign.

    int() also takes spaces, underscores and non-ASCII digits; this does not.
    A refused text raises ValueError with the reason, which argparse prints;
    a long text is quoted cut short.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        quoted = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        raise ValueError(f"{quoted} is not an integer")
    if len(digits) > 4300:
        raise ValueError("must have at most 4300 digits")
    value = int(text)
    if value < 0:
        raise ValueError("must be nonnegative")
    if value > _COUNT_CAP:
        raise ValueError(f"must be at most {_COUNT_CAP}")
    return value


def _arg(*flags, **options) -> tuple:
    """One ``add_argument`` call, as data."""
    return flags, options


_K = _arg("--k", type=_nonneg, default=0, help="order k (default 0)")
_FORMAT = _arg(
    "--format", choices=("table", "json"), default="table", help="output format"
)
_FOLIATION = (_arg("--P", required=True), _arg("--Q", required=True))
_FOLIATION_CURVE = _FOLIATION + (_arg("--f", required=True),)
_PQF = ("P", "Q", "f")


class _Row(NamedTuple):
    """One verb or one check name: its arguments and how it is evaluated.

    ``run`` maps the parsed arguments to the result; it reads the reported
    order as ``args.k``.  ``inputs`` are the arguments echoed in the JSON
    ``inputs``, in order, and each must be given (argparse leaves a check's
    arguments optional); they are echoed as copies, as a list default belongs
    to the shared parser.  ``k`` gives the reported order, by default ``--k``
    where the verb takes one.  ``gate`` is the ``--assert-...`` flag the row
    requires and the hypothesis it vouches for, named when the flag is missing.
    """

    run: "Callable | None"
    help: "str | None" = None
    args: tuple = ()
    inputs: tuple = ()
    k: "Callable | None" = None
    gate: "tuple | None" = None


def _foliation(args) -> Foliation:
    return Foliation(parse_poly(args.P), parse_poly(args.Q))


def _curve(args) -> CurveGerm:
    return CurveGerm(parse_poly(args.f))


def _vdim(args):
    gens = [parse_poly(g) for g in args.gens]
    plus = Ideal(tuple(parse_poly(g) for g in args.plus))
    base = Ideal(tuple(gens)) if gens else Ideal.of(Poly.one())
    return colength(base, args.mk, plus)


def _teissier(args) -> bool:
    f = parse_poly(args.f)
    return all(teissier_k_check(f, k) for k in range(args.k + 1))


def _bound(args) -> bool:
    F, B0 = _foliation(args), _curve(args)
    return all(milnor_bound_check(F, B0, k)[3] for k in range(args.k + 1))


def _qh_identity(args) -> bool:
    F, C = _foliation(args), _curve(args)
    return all(
        quasihomogeneous_identity_check(F, C, k)[2] for k in range(1, args.k + 1)
    )


CHECKS = {
    "gsv-theorem": _Row(
        lambda a: gsv_theorem_check(_foliation(a), _curve(a), a.k), inputs=_PQF
    ),
    "teissier-k": _Row(_teissier, inputs=("f",)),
    "polar-gsv": _Row(
        lambda a: polar_gsv_check(_foliation(a), _curve(a), a.k),
        inputs=_PQF,
        gate=("assert-second-type", "non-dicritical second-type hypothesis"),
    ),
    "bound": _Row(
        _bound, inputs=_PQF,
        gate=("assert-second-type", "the balanced-divisor hypothesis"),
    ),
    "qh-identity": _Row(
        _qh_identity, inputs=_PQF, k=lambda a: max(1, a.k),
        gate=("assert-generalized-curve", "the generalized-curve hypothesis"),
    ),
    "second-type": _Row(
        lambda a: second_type_milnor_check(_foliation(a), _curve(a), a.k),
        inputs=_PQF,
        gate=("assert-second-type", "second-type hypothesis"),
    ),
    "conjecture1": _Row(
        lambda a: check_conjecture1(parse_poly(a.f), a.k), inputs=("f",)
    ),
    "ratio": _Row(lambda a: ratio_check(parse_poly(a.f), a.k), inputs=("f",)),
}
CHECK_NAMES = tuple(CHECKS)

# ``check`` and ``scenarios`` have no ``run``: ``check`` is handed on to
# CHECKS, and ``main`` runs ``scenarios`` itself.
VERBS = {
    "vdim": _Row(
        _vdim, "colength of <GENS>*m^MK + <PLUS...>",
        (
            _arg("gens", nargs="*", help="ideal generators (default: none, i.e. the unit ideal)"),
            _arg("--mk", type=_nonneg, default=0, help="power of the maximal ideal factor"),
            _arg("--plus", action="append", default=[], help="extra generator added to the product (repeatable)"),
        ),
        inputs=("gens", "plus", "mk"), k=lambda a: a.mk,
    ),
    "intersect": _Row(
        lambda a: intersection_number(parse_poly(a.f), parse_poly(a.g)),
        "intersection number i(f,g)", (_arg("f"), _arg("g")), inputs=("f", "g"),
    ),
    "milnor": _Row(
        lambda a: milnor_k(parse_poly(a.f), a.k),
        "k-th Milnor number of a curve germ", (_arg("f"), _K), inputs=("f",),
    ),
    "tjurina": _Row(
        lambda a: tjurina_k(parse_poly(a.f), a.k),
        "k-th Tjurina number of a curve germ", (_arg("f"), _K), inputs=("f",),
    ),
    "fol-milnor": _Row(
        lambda a: foliation_milnor_k(_foliation(a), a.k),
        "k-th Milnor number of the foliation P dx + Q dy",
        _FOLIATION + (_K,), inputs=("P", "Q"),
    ),
    "fol-tjurina": _Row(
        lambda a: foliation_tjurina_k(_foliation(a), _curve(a), a.k),
        "k-th Tjurina number of a foliation along an invariant curve",
        _FOLIATION_CURVE + (_K,), inputs=_PQF,
    ),
    "gsv": _Row(
        lambda a: gsv_index(_foliation(a), _curve(a)),
        "GSV index of a foliation along an invariant reduced curve",
        _FOLIATION_CURVE, inputs=_PQF,
    ),
    "polar": _Row(
        lambda a: polar_intersection_k(_foliation(a), _curve(a), a.k),
        "k-th polar intersection number at a generic direction",
        _FOLIATION_CURVE + (_K,), inputs=_PQF,
    ),
    "invariant": _Row(
        lambda a: is_invariant(_foliation(a), _curve(a)),
        "is the curve invariant by the foliation?",
        _FOLIATION_CURVE, inputs=_PQF,
    ),
    "qh-check": _Row(
        lambda a: is_quasihomogeneous_foliation(_foliation(a), _curve(a)),
        "membership f in (P,Q): quasi-homogeneity of the foliation",
        _FOLIATION_CURVE, inputs=_PQF,
    ),
    "check": _Row(
        None, "verify a named identity",
        (
            _arg("name", choices=CHECK_NAMES),
            _arg("--P"),
            _arg("--Q"),
            _arg("--f"),
            # another spelling of --k: it sets args.k (see build_parser)
            _arg("--k-max", type=_nonneg, dest="k"),
            _arg(
                "--assert-second-type", action="store_true",
                help="assert the foliation is of second type (required by some checks)",
            ),
            _arg(
                "--assert-generalized-curve", action="store_true",
                help="assert the foliation is a generalized curve (required by qh-identity)",
            ),
            _K,
        ),
    ),
    "scenarios": _Row(
        None, "run or list the bundled reproduction scenarios",
        (
            _arg("action", choices=("run", "list")),
            _arg("--all", action="store_true", help="run every scenario"),
            _arg("--filter", default=None, help="substring filter on id and location"),
            _arg("--registry", default=None, help="path to a scenario registry file"),
        ),
    ),
}


class UsageError(ValueError):
    """An argument list the parser refuses, with argparse's message; ``parser``
    is the parser or verb subparser that refused it."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class HelpRequested(UsageError):
    """-h or --help; ``parser`` is the parser whose help was asked for."""


def build_parser() -> argparse.ArgumentParser:
    """The ``folinv`` parser.  Its ``verbs`` maps each verb to the subparser
    that reads the rest of a command line naming it.

    An argument with a ``dest`` of its own is another spelling of the
    argument that owns the dest and leaves the default to it.
    """
    import argparse  # only a line the plain reader declines needs it

    class _Help(argparse.Action):
        """-h and --help: raise HelpRequested where argparse's own action
        would print the help to stdout and exit."""

        def __init__(self, option_strings, dest):
            super().__init__(
                option_strings, argparse.SUPPRESS, nargs=0,
                default=argparse.SUPPRESS, help="show this help message and exit",
            )

        def __call__(self, parser, namespace, values, option_string=None):
            raise HelpRequested(parser, "help requested")

    class _ArgumentParser(argparse.ArgumentParser):
        """An argparse parser that raises UsageError where argparse would
        print the usage or the help and exit, so that a scenario row reports
        the reason and writes nothing."""

        def __init__(self, **kwargs):
            super().__init__(add_help=False, **kwargs)
            self.add_argument("-h", "--help", action=_Help)

        def error(self, message):
            raise UsageError(self, message)

    def typed(convert: Callable) -> Callable:
        """convert, its ValueError raised as an ArgumentTypeError, whose
        message argparse prints as it is."""

        def checked(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return checked

    parser = _ArgumentParser(
        prog="folinv",
        description=(
            "Exact invariants of plane-curve and foliation germs at the origin: "
            "k-th Milnor and Tjurina numbers, intersection numbers, GSV index, "
            "polar intersection numbers, and identity checks."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = {}
    for verb, row in VERBS.items():
        p = parser.verbs[verb] = sub.add_parser(verb, help=row.help)
        for flags, options in row.args + (_FORMAT,):
            if "type" in options:
                options = {**options, "type": typed(options["type"])}
            if "dest" in options:
                options = {**options, "default": argparse.SUPPRESS}
            p.add_argument(*flags, **options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    return build_parser()


def _value(text: str, options: dict):
    """text converted and checked as argparse does for an argument declared
    with options, or None where argparse refuses it."""
    convert = options.get("type")
    if convert is not None:
        try:
            text = convert(text)
        except ValueError:
            return None
    choices = options.get("choices")
    return text if choices is None or text in choices else None


@functools.cache
def _reader(verb: str) -> Callable:
    """The reader of plain ``verb`` lines, built from the verb's table row.

    It maps the tokens after the verb to the namespace argparse's subparser
    returns for them, with the same attributes, or to None when the line is
    not plain (see :func:`_parse_args`).
    """
    options, positionals, defaults, lists = {}, [], {"verb": verb}, []
    required = set()
    for flags, opts in VERBS[verb].args + (_FORMAT,):
        flag = flags[0]
        if not flag.startswith("-"):
            positionals.append((flag, opts))
            continue
        dest = opts.get("dest", flag[2:].replace("-", "_"))
        options[flag] = dest, opts
        if opts.get("required"):
            required.add(flag)
        if "dest" in opts:
            continue  # another spelling: the default is the owner's
        store_true = opts.get("action") == "store_true"
        defaults[dest] = opts.get("default", False if store_true else None)
        if isinstance(defaults[dest], list):
            lists.append(dest)
    # vdim's gens, the only positional that takes a run of any length
    star = len(positionals) == 1 and positionals[0][1].get("nargs") == "*"

    def read(tokens):
        args = dict(defaults)
        for dest in lists:
            args[dest] = list(args[dest])  # never the shared default
        run, closed, seen = [], False, set()
        i, n = 0, len(tokens)
        while i < n:
            token = tokens[i]
            i += 1
            if not token.startswith("-"):
                if closed:
                    return None  # a second run of positionals
                run.append(token)
                continue
            closed = bool(run)  # an option ends a run of positionals
            flag, eq, text = token.partition("=")
            if flag not in options:
                return None
            dest, opts = options[flag]
            seen.add(flag)
            action = opts.get("action")
            if action == "store_true":
                if eq:
                    return None
                args[dest] = True
                continue
            if not eq:
                if i == n or tokens[i].startswith("-"):
                    return None
                text = tokens[i]
                i += 1
            value = _value(text, opts)
            if value is None:
                return None
            if action == "append":
                args[dest].append(value)
            else:
                args[dest] = value
        if not required <= seen:
            return None
        if star:
            dest, opts = positionals[0]
            args[dest] = [_value(token, opts) for token in run]
            if None in args[dest]:
                return None
        elif len(run) == len(positionals):
            for (dest, opts), token in zip(positionals, run):
                args[dest] = _value(token, opts)
                if args[dest] is None:
                    return None
        else:
            return None
        return SimpleNamespace(**args)

    return read


def _parse_args(argv):
    """Read argv (``sys.argv[1:]`` when None) once.

    A plain line naming a verb is read by that verb's :func:`_reader`, with
    no argparse.  Plain means: every option is an exact long option of the
    verb, written ``--opt VALUE`` with a VALUE that does not start with
    ``-``, or ``--opt=VALUE``, and ``store_true`` flags are bare; the
    positionals are one contiguous run that fills the verb's positionals, one
    token each or ``vdim``'s ``nargs="*"`` run; every required option is
    given, and every ``type`` call and ``choices`` check passes.  The reader
    returns the attributes argparse returns, in a ``SimpleNamespace``.

    Any other line goes to argparse, which is imported and built
    (:func:`_parser`) only then.  A line naming a verb is read by that verb's
    subparser alone, the parser the top-level one would hand the rest of the
    line to; any other line, ``-h`` or an unknown verb among them, by the
    top-level parser.
    """
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in VERBS:
        args = _reader(argv[0])(argv[1:])
        if args is not None:
            return args
    parser = _parser()
    subparser = parser.verbs.get(argv[0]) if argv else None
    if subparser is None:
        return parser.parse_args(argv)
    args = subparser.parse_args(argv[1:])
    args.verb = argv[0]
    return args


def evaluate(argv) -> Outcome:
    """Parse argv and run the verb line, returning the raw outcome.

    Raises ParseError / PreconditionError for invalid inputs, the scenarios
    verb among them, and UsageError for malformed argument lists.
    """
    args = _parse_args(argv)
    if args.verb == "scenarios":
        raise PreconditionError(
            "scenario expressions may not invoke the scenarios verb"
        )
    return _evaluate_verb(args)


def _evaluate_verb(args) -> Outcome:
    """Run a verb line other than ``scenarios``, read into args."""
    command, row = args.verb, VERBS[args.verb]
    if command == "check":
        command, row = f"check {args.name}", CHECKS[args.name]
    for name in row.inputs:
        if getattr(args, name) is None:
            raise PreconditionError(f"--{name} is required for this command")
    if row.gate is not None:
        flag, reason = row.gate
        if not getattr(args, flag.replace("-", "_")):
            raise PreconditionError(
                f"{command} requires --{flag} ({reason} is not decidable here)"
            )
    args.k = row.k(args) if row.k else getattr(args, "k", None)
    inputs = {name: copy.copy(getattr(args, name)) for name in row.inputs}
    return Outcome(command, inputs, args.k, row.run(args))


# -- output -------------------------------------------------------------------


def _render(outcome: Outcome, fmt: str, elapsed_ms: int) -> str:
    if fmt == "json":
        import json  # only JSON output needs it

        return json.dumps(
            {
                "command": outcome.command,
                "inputs": outcome.inputs,
                "k": outcome.k,
                "result": _json_value(outcome.result),
                "finite": _all_finite(outcome.result),
                "elapsed_ms": elapsed_ms,
            }
        )
    return canonical(outcome.result)


def _scenarios(args) -> tuple:
    """List or run the scenarios of the registry: (output text, exit code)."""
    import json  # only JSON output needs it

    registry = scenarios_mod.load_registry(args.registry)
    as_json = args.format == "json"
    if args.action == "list":
        lines = [
            json.dumps(
                {"id": sc.id, "location": sc.paper_location, "description": sc.description}
            )
            if as_json
            else f"{sc.id}  [{sc.paper_location}]  {sc.description}"
            for sc in scenarios_mod.select(registry, args.filter)
        ]
        return "\n".join(lines), 0
    if not args.all and args.filter is None:
        raise PreconditionError("scenarios run needs --all or --filter")
    reports, summary = scenarios_mod.run_all(filter=args.filter, registry=registry)
    if as_json:
        lines = [
            json.dumps(
                {
                    "id": r.scenario_id,
                    "computed": r.computed,
                    "expected": r.expected,
                    "pass": r.passed,
                    "elapsed_ms": r.elapsed_ms,
                }
            )
            for r in reports
        ]
        lines.append(json.dumps(summary))
    else:
        lines = [
            f"PASS {r.scenario_id}: {r.computed}"
            if r.passed
            else f"FAIL {r.scenario_id}: {r.computed} != {r.expected}"
            for r in reports
        ]
        tally = "{passed}/{total} scenarios passed, {failed} failed"
        lines.append(tally.format(**summary))
    return "\n".join(lines), 1 if summary["failed"] else 0


def main(argv=None) -> int:
    start = time.perf_counter()
    try:
        args = _parse_args(argv)
        if args.verb == "scenarios":
            text, code = _scenarios(args)
        else:
            outcome = _evaluate_verb(args)
            elapsed_ms = int((time.perf_counter() - start) * 1000)
            text = _render(outcome, args.format, elapsed_ms)
            code = outcome.exit_code
    except HelpRequested as exc:
        exc.parser.print_help()
        exc.parser.exit()
    except UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        exc.parser.exit(2, f"{exc.parser.prog}: error: {exc}\n")
    except ValueError as exc:  # includes ParseError and PreconditionError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if text:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
