"""Text front end for the command surface.

Scripts are newline-separated assignments followed by exactly one command
line. Values are exact: integers, rationals ``p/q``, Gaussian rationals
like ``3/2+1/4i``, delta measures ``d[x]`` with integer vectors, Laurent
polynomials in ``z1..zd`` (``z`` is ``z1``), polynomials in ``x1..xd``,
exponential bases as parenthesized vectors ``(1, 1/2+1/2i)``, and
``ideal(...)`` of Laurent polynomials. Operators are ``+ - * ^`` with the
usual precedence; there is no implicit multiplication.

``parse`` evaluates a script to a Command; ``format_command`` renders a
Command back to canonical text that reparses to an equal Command (given
the same dimension).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import CommandError, DimensionMismatch, ParseError
from .fourier import LaurentPoly
from .ideals import IdealHandle
from .measures import Exponential, Measure, delta
from .polynomials import Polynomial
from .scalars import GaussianRational

_SIMPLE_VERBS = {"solve", "roots", "member", "verify"}
_HYPHEN_VERBS = {
    ("root", "order"): "root-order",
    ("dual", "space"): "dual-space",
    ("apply", "derivation"): "apply-derivation",
    ("demo", "rank"): "demo-rank",
}
_VERB_WORDS = _SIMPLE_VERBS | {w for pair in _HYPHEN_VERBS for w in pair}
_RESERVED = _VERB_WORDS | {"d", "i", "ideal"}
_VAR_RE = re.compile(r"^([zx])([0-9]*)$")

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<newline>\r?\n)"
    r"|(?P<number>[0-9]+(?:/[0-9]+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^=(),\[\]])"
)


@dataclass(frozen=True)
class Token:
    kind: str
    value: object
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    line = 1
    linestart = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        col = pos - linestart + 1
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        raw = m.group()
        pos = m.end()
        if kind in ("ws", "comment"):
            continue
        if kind == "newline":
            tokens.append(Token("NEWLINE", "\n", line, col))
            line += 1
            linestart = pos
        elif kind == "number":
            if raw.endswith("i"):
                tokens.append(Token("IMAG", Fraction(raw[:-1]), line, col))
            elif "/" in raw:
                tokens.append(Token("RAT", Fraction(raw), line, col))
            else:
                tokens.append(Token("INT", int(raw), line, col))
        elif kind == "name":
            if raw == "i":
                tokens.append(Token("IMAG", Fraction(1), line, col))
            else:
                tokens.append(Token("NAME", raw, line, col))
        else:
            tokens.append(Token("OP", raw, line, col))
    tokens.append(Token("EOF", None, line, pos - linestart + 1))
    return tokens


@dataclass(frozen=True)
class IdealValue:
    """Unmaterialized ideal: generators still await the final dimension."""

    generators: tuple

    @property
    def dim(self) -> int:
        return max(g.dim for g in self.generators)


@dataclass(frozen=True)
class Command:
    verb: str
    args: tuple
    dim: int


def _as_scalar(v):
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, int):
        return GaussianRational(v)
    return None


def _pad(p, dim: int):
    """A Laurent polynomial or polynomial read in dim >= p.dim variables."""
    if p.dim == dim:
        return p
    tail = (0,) * (dim - p.dim)
    return p._raw(dim, {a + tail: v for a, v in p.terms.items()})


def _combine(op: str, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    return left * right


def _apply_binary(op: str, a, b, tok: Token):
    if isinstance(a, tuple) or isinstance(b, tuple):
        raise ParseError("vectors do not combine with operators", tok.line, tok.col)
    if isinstance(a, IdealValue) or isinstance(b, IdealValue):
        raise ParseError("ideals do not combine with operators", tok.line, tok.col)
    sa = _as_scalar(a)
    sb = _as_scalar(b)
    if sa is not None and sb is not None:
        return _combine(op, sa, sb)
    if isinstance(a, Measure) or isinstance(b, Measure):
        if isinstance(a, Measure) and isinstance(b, Measure):
            if a.dim != b.dim:
                raise ParseError(
                    f"measure dimensions {a.dim} and {b.dim} differ",
                    tok.line,
                    tok.col,
                )
            return _combine(op, a, b)
        if op == "*" and sa is not None:
            return b.scaled(sa)
        if op == "*" and sb is not None:
            return a.scaled(sb)
        raise ParseError(
            "measures combine only with measures or scalar factors",
            tok.line,
            tok.col,
        )
    la, lb = isinstance(a, LaurentPoly), isinstance(b, LaurentPoly)
    pa, pb = isinstance(a, Polynomial), isinstance(b, Polynomial)
    if (la and pb) or (pa and lb):
        raise ParseError(
            "z-variables and x-variables do not mix", tok.line, tok.col
        )
    if la or lb or pa or pb:
        # The other operand is a scalar, which the ring reads as a constant.
        dim = max(v.dim for v in (a, b) if isinstance(v, (LaurentPoly, Polynomial)))
        left = sa if sa is not None else _pad(a, dim)
        right = sb if sb is not None else _pad(b, dim)
        return _combine(op, left, right)
    raise ParseError(f"operator {op!r} is not defined here", tok.line, tok.col)


def _apply_power(base, n: int, tok: Token):
    if isinstance(base, LaurentPoly):
        try:
            return base ** n
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None
    if isinstance(base, Polynomial):
        if n < 0:
            raise ParseError(
                "polynomials have no negative powers", tok.line, tok.col
            )
        return base ** n
    if isinstance(base, Measure):
        if n < 0:
            raise ParseError(
                "measures have no negative convolution powers", tok.line, tok.col
            )
        return base ** n
    s = _as_scalar(base)
    if s is not None:
        if n < 0 and s.is_zero():
            raise ParseError("zero has no negative powers", tok.line, tok.col)
        return s ** n
    raise ParseError("this value cannot be raised to a power", tok.line, tok.col)


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, *ops) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value in ops

    def expect_op(self, op: str) -> Token:
        tok = self.advance()
        if tok.kind != "OP" or tok.value != op:
            raise ParseError(f"expected {op!r}", tok.line, tok.col)
        return tok

    def end_line(self) -> None:
        tok = self.peek()
        if tok.kind == "NEWLINE":
            self.advance()
        elif tok.kind != "EOF":
            raise ParseError("unexpected token", tok.line, tok.col)

    # statement layer

    def try_verb(self):
        tok = self.peek()
        if tok.kind != "NAME":
            return None
        nxt = self.tokens[self.pos + 1]
        if tok.value in _SIMPLE_VERBS:
            if nxt.kind == "OP" and nxt.value == "=":
                return None
            self.advance()
            return tok.value
        if nxt.kind == "OP" and nxt.value == "-":
            after = self.tokens[self.pos + 2]
            merged = _HYPHEN_VERBS.get((tok.value, after.value if after.kind == "NAME" else None))
            if merged is not None:
                self.advance()
                self.advance()
                self.advance()
                return merged
        return None

    def assignment(self, env: dict) -> None:
        tok = self.advance()
        if tok.kind != "NAME":
            raise ParseError("expected a name or command", tok.line, tok.col)
        name = tok.value
        if name in _RESERVED or _VAR_RE.match(name):
            raise ParseError(f"{name!r} is reserved", tok.line, tok.col)
        self.expect_op("=")
        env[name] = self.expr(env)

    def command_args(self, verb: str, env: dict) -> tuple:
        if verb == "verify":
            names = []
            while self.peek().kind == "NAME":
                names.append(self.hyphen_word())
            return tuple(names)
        if verb == "demo-rank":
            tok = self.advance()
            if tok.kind != "INT":
                raise ParseError("demo-rank takes an integer", tok.line, tok.col)
            return (tok.value,)
        args = []
        while True:
            tok = self.peek()
            if tok.kind in ("INT", "RAT", "IMAG", "NAME") or self.at_op("(", "-"):
                args.append(self.expr(env))
            else:
                break
        return tuple(args)

    def hyphen_word(self) -> str:
        parts = [self.advance().value]
        while self.at_op("-") and self.tokens[self.pos + 1].kind == "NAME":
            self.advance()
            parts.append(self.advance().value)
        return "-".join(parts)

    # expression layer

    def expr(self, env: dict):
        value = self.term(env)
        while self.at_op("+", "-"):
            tok = self.advance()
            value = _apply_binary(tok.value, value, self.term(env), tok)
        return value

    def term(self, env: dict):
        value = self.factor(env)
        while self.at_op("*"):
            tok = self.advance()
            value = _apply_binary(tok.value, value, self.factor(env), tok)
        return value

    def factor(self, env: dict):
        value = self.unary(env)
        if self.at_op("^"):
            tok = self.advance()
            sign = 1
            if self.at_op("-"):
                self.advance()
                sign = -1
            etok = self.advance()
            if etok.kind != "INT":
                raise ParseError("exponent must be an integer", etok.line, etok.col)
            value = _apply_power(value, sign * etok.value, tok)
            if self.at_op("^"):
                nxt = self.peek()
                raise ParseError(
                    "chained powers need parentheses", nxt.line, nxt.col
                )
        return value

    def unary(self, env: dict):
        if self.at_op("-"):
            tok = self.advance()
            value = self.unary(env)
            if isinstance(value, int):
                return -value
            if isinstance(value, (GaussianRational, Measure, LaurentPoly, Polynomial)):
                return -value
            raise ParseError("cannot negate this value", tok.line, tok.col)
        return self.primary(env)

    def primary(self, env: dict):
        tok = self.advance()
        if tok.kind == "INT":
            return tok.value
        if tok.kind == "RAT":
            return GaussianRational(tok.value)
        if tok.kind == "IMAG":
            return GaussianRational(0, tok.value)
        if tok.kind == "OP" and tok.value == "(":
            items = [self.expr(env)]
            while self.at_op(","):
                self.advance()
                items.append(self.expr(env))
            self.expect_op(")")
            if len(items) == 1:
                return items[0]
            out = []
            for v in items:
                s = _as_scalar(v)
                if s is None:
                    raise ParseError(
                        "vector entries must be scalars", tok.line, tok.col
                    )
                out.append(s)
            return tuple(out)
        if tok.kind == "NAME":
            name = tok.value
            if name == "d" and self.at_op("["):
                return self.delta_term()
            if name == "ideal" and self.at_op("("):
                return self.ideal_call(env)
            m = _VAR_RE.match(name)
            if m:
                index = int(m.group(2) or "1")
                if index < 1:
                    raise ParseError(
                        "variable indices start at 1", tok.line, tok.col
                    )
                if m.group(1) == "z":
                    return LaurentPoly.variable(index, index - 1)
                return Polynomial.variable(index, index - 1)
            if name in env:
                return env[name]
            raise ParseError(f"undefined name {name!r}", tok.line, tok.col)
        raise ParseError("expected a value", tok.line, tok.col)

    def delta_term(self) -> Measure:
        self.expect_op("[")
        entries = [self.signed_int()]
        while self.at_op(","):
            self.advance()
            entries.append(self.signed_int())
        self.expect_op("]")
        return delta(tuple(entries))

    def signed_int(self) -> int:
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        tok = self.advance()
        if tok.kind != "INT":
            raise ParseError("expected an integer", tok.line, tok.col)
        return sign * tok.value

    def ideal_call(self, env: dict) -> IdealValue:
        open_tok = self.expect_op("(")
        gens = [self.expr(env)]
        while self.at_op(","):
            self.advance()
            gens.append(self.expr(env))
        self.expect_op(")")
        out = []
        for g in gens:
            if isinstance(g, LaurentPoly):
                out.append(g)
                continue
            s = _as_scalar(g)
            if s is None:
                raise ParseError(
                    "ideal generators must be Laurent polynomials",
                    open_tok.line,
                    open_tok.col,
                )
            out.append(LaurentPoly.constant(1, s))
        return IdealValue(tuple(out))


def parse(text: str, dim: int | None = None) -> Command:
    """Evaluate a script to a Command; dim overrides inference."""
    if dim is not None and dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    parser = _Parser(tokenize(text))
    env: dict = {}
    pending = None
    while True:
        tok = parser.peek()
        if tok.kind == "NEWLINE":
            parser.advance()
            continue
        if tok.kind == "EOF":
            break
        if pending is not None:
            raise ParseError(
                "nothing may follow the command line", tok.line, tok.col
            )
        verb = parser.try_verb()
        if verb is not None:
            pending = (verb, parser.command_args(verb, env))
        else:
            parser.assignment(env)
        parser.end_line()
    if pending is None:
        tok = parser.peek()
        raise ParseError("script has no command line", tok.line, tok.col)
    return _materialize(pending[0], pending[1], dim)


def _target_dim(values, dim_option):
    explicit = []
    flexible = []
    for v in values:
        if isinstance(v, Measure):
            explicit.append(v.dim)
        elif isinstance(v, tuple):
            explicit.append(len(v))
        elif isinstance(v, (LaurentPoly, Polynomial, IdealValue)):
            flexible.append(v.dim)
    target = dim_option or max(explicit + flexible + [1])
    for d in explicit:
        if d != target:
            raise DimensionMismatch(
                f"object of dimension {d} in a dimension-{target} command"
            )
    for d in flexible:
        if d > target:
            raise DimensionMismatch(
                f"variable index {d} exceeds dimension {target}"
            )
    return target


def _to_measure(v) -> Measure:
    if isinstance(v, Measure):
        return v
    raise CommandError("expected a measure")


def _to_laurent(v, target: int) -> LaurentPoly:
    if isinstance(v, LaurentPoly):
        return _pad(v, target)
    s = _as_scalar(v)
    if s is not None:
        return LaurentPoly.constant(target, s)
    raise CommandError("expected a Laurent polynomial")


def _to_poly(v, target: int) -> Polynomial:
    if isinstance(v, Polynomial):
        return _pad(v, target)
    s = _as_scalar(v)
    if s is not None:
        return Polynomial.constant(target, s)
    raise CommandError("expected a polynomial")


def _to_exponential(v, target: int) -> Exponential:
    if isinstance(v, tuple):
        base = v
    else:
        s = _as_scalar(v)
        if s is None:
            raise CommandError("expected an exponential base")
        base = (s,)
    if len(base) != target:
        raise DimensionMismatch(
            f"exponential has {len(base)} coordinates, need {target}"
        )
    return Exponential(base)


def _to_ideal(v, target: int) -> IdealHandle:
    if isinstance(v, IdealValue):
        return IdealHandle([_pad(g, target) for g in v.generators])
    return IdealHandle([_to_laurent(v, target)])


def _materialize(verb: str, values: tuple, dim_option) -> Command:
    if verb == "verify":
        from .suites import SUITES

        for name in values:
            if name not in SUITES:
                raise CommandError(f"unknown suite {name!r}")
        return Command(verb=verb, args=values, dim=dim_option or 1)
    if verb == "demo-rank":
        k = values[0]
        if k < 1:
            raise CommandError("demo-rank takes a positive integer")
        return Command(verb=verb, args=(k,), dim=dim_option or k)
    target = _target_dim(values, dim_option)
    if verb == "solve":
        if not values:
            raise CommandError("solve needs at least one measure")
        args = tuple(_to_measure(v) for v in values)
    elif verb == "roots":
        if not values:
            raise CommandError("roots needs an ideal or Laurent polynomials")
        if len(values) == 1:
            args = (_to_ideal(values[0], target),)
        else:
            args = (IdealHandle([_to_laurent(v, target) for v in values]),)
    elif verb == "member":
        if len(values) != 2:
            raise CommandError("member takes an ideal and a Laurent polynomial")
        args = (_to_ideal(values[0], target), _to_laurent(values[1], target))
    elif verb in ("root-order", "dual-space"):
        if len(values) != 2:
            raise CommandError(f"{verb} takes an ideal and an exponential")
        args = (_to_ideal(values[0], target), _to_exponential(values[1], target))
    elif verb == "apply-derivation":
        if len(values) != 3:
            raise CommandError(
                "apply-derivation takes a polynomial, a measure and an exponential"
            )
        args = (
            _to_poly(values[0], target),
            _to_measure(values[1]),
            _to_exponential(values[2], target),
        )
    else:
        raise CommandError(f"unknown verb {verb!r}")
    return Command(verb=verb, args=args, dim=target)


# canonical formatting


def _point_term(x: tuple) -> str:
    return "d[" + ",".join(str(c) for c in x) + "]"


def format_measure(mu: Measure) -> str:
    if not mu.terms:
        return "(0)*" + _point_term((0,) * mu.dim)
    parts = [
        f"({mu.terms[x]})*{_point_term(x)}" for x in sorted(mu.terms)
    ]
    return " + ".join(parts)


def _format_terms(terms: dict, letter: str) -> str:
    if not terms:
        return "(0)"
    parts = []
    for alpha in sorted(terms):
        factors = [f"({terms[alpha]})"]
        for idx, e in enumerate(alpha, start=1):
            if e == 0:
                continue
            factors.append(f"{letter}{idx}" + ("" if e == 1 else f"^{e}"))
        parts.append("*".join(factors))
    return " + ".join(parts)


def format_laurent(L: LaurentPoly) -> str:
    return _format_terms(L.terms, "z")


def format_polynomial(p: Polynomial) -> str:
    return _format_terms(p.terms, "x")


def format_exponential(c: Exponential) -> str:
    return "(" + ", ".join(str(v) for v in c.base) + ")"


def format_ideal(I: IdealHandle) -> str:
    return "ideal(" + ", ".join(format_laurent(g) for g in I.generators) + ")"


def format_value(v) -> str:
    if isinstance(v, Measure):
        return format_measure(v)
    if isinstance(v, LaurentPoly):
        return format_laurent(v)
    if isinstance(v, Polynomial):
        return format_polynomial(v)
    if isinstance(v, Exponential):
        return format_exponential(v)
    if isinstance(v, IdealHandle):
        return format_ideal(v)
    if isinstance(v, GaussianRational):
        return f"({v})"
    if isinstance(v, int):
        return str(v)
    raise TypeError(f"cannot format {v!r}")


def format_command(cmd: Command) -> str:
    if cmd.verb in ("verify", "demo-rank"):
        parts = [cmd.verb] + [str(a) for a in cmd.args]
        return " ".join(parts)
    return " ".join([cmd.verb] + [format_value(a) for a in cmd.args])
