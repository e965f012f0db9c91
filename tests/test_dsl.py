"""Script language: lexing, evaluation, dimension rules, round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from synthkit import (
    Exponential,
    IdealHandle,
    LaurentPoly,
    Measure,
    Polynomial,
)
from synthkit.dsl import Command, parse, tokenize
from synthkit.errors import CommandError, DimensionMismatch, ParseError
from synthkit.scalars import GaussianRational

from conftest import dims, exponentials, laurents, measures, polynomials

Z = LaurentPoly.variable(1, 0)


def gr(n, d=1):
    return GaussianRational(Fraction(n, d))


# lexer


def test_token_kinds():
    kinds = [t.kind for t in tokenize("mu = d[-2] + 3/2*z^2\nsolve mu")]
    assert kinds == [
        "NAME", "OP", "NAME", "OP", "OP", "INT", "OP", "OP",
        "RAT", "OP", "NAME", "OP", "INT", "NEWLINE", "NAME", "NAME", "EOF",
    ]


def test_exact_literals():
    toks = tokenize("3/2 1/4i i 7")
    assert toks[0].kind == "RAT" and toks[0].value == Fraction(3, 2)
    assert toks[1].kind == "IMAG" and toks[1].value == Fraction(1, 4)
    assert toks[2].kind == "IMAG" and toks[2].value == Fraction(1)
    assert toks[3].kind == "INT" and toks[3].value == 7


def test_comments_and_blank_lines_are_skipped():
    cmd = parse("# setup\n\nmu = d[0] - d[1]  # the measure\n\nsolve mu\n")
    assert cmd.verb == "solve"


def test_unexpected_character():
    with pytest.raises(ParseError) as exc:
        tokenize("solve @")
    assert exc.value.line == 1
    assert exc.value.column == 7


# commands, frozen

FIB_SCRIPT = "mu = d[-2] - 3*d[-1] + 2*d[0]\nsolve mu"


def test_solve_script():
    cmd = parse(FIB_SCRIPT)
    assert cmd.verb == "solve"
    assert cmd.dim == 1
    (mu,) = cmd.args
    assert mu == Measure(1, {(-2,): gr(1), (-1,): gr(-3), (0,): gr(2)})


def test_member_script():
    cmd = parse("member ideal(z-1) z^2-1")
    assert cmd.verb == "member"
    I, L = cmd.args
    assert I == IdealHandle([Z - 1])
    assert L == Z * Z - 1


def test_roots_accepts_bare_laurents():
    cmd = parse("roots z-1 z-2")
    (I,) = cmd.args
    assert I == IdealHandle([Z - 1, Z - 2])


def test_root_order_script():
    cmd = parse("root-order (z-1)^2*(z-2) 1")
    assert cmd.verb == "root-order"
    I, c = cmd.args
    assert I == IdealHandle([(Z - 1) ** 2 * (Z - 2)])
    assert c == Exponential((gr(1),))


def test_dual_space_two_variables():
    cmd = parse("dual-space ideal((z1-1)^2, z2-1) (1, 1)")
    assert cmd.dim == 2
    I, c = cmd.args
    assert I.dim == 2
    assert c == Exponential((gr(1), gr(1)))


def test_apply_derivation_script():
    cmd = parse("apply-derivation x d[-1]-d[0] 2")
    p, mu, c = cmd.args
    assert p == Polynomial.variable(1, 0)
    assert mu == Measure(1, {(-1,): gr(1), (0,): gr(-1)})
    assert c == Exponential((gr(2),))


def test_verify_script():
    cmd = parse("verify rank-growth product-rule")
    assert cmd.verb == "verify"
    assert cmd.args == ("rank-growth", "product-rule")


def test_demo_rank_script():
    cmd = parse("demo-rank 4")
    assert cmd.args == (4,)
    assert cmd.dim == 4


def test_gaussian_scalars_in_expressions():
    cmd = parse("solve (1/2+3/4i)*d[0]")
    (mu,) = cmd.args
    assert mu == Measure(1, {(0,): GaussianRational(Fraction(1, 2), Fraction(3, 4))})


def test_convolution_power_of_measure():
    cmd = parse("solve (d[-1] - d[0])^2")
    (mu,) = cmd.args
    assert mu == Measure(1, {(-2,): gr(1), (-1,): gr(-2), (0,): gr(1)})


def test_bare_z_is_first_variable():
    assert parse("roots z-1").args == parse("roots z1-1").args


def test_negative_monomial_power():
    cmd = parse("member ideal(z-1) (z-1)*z^-3")
    _, L = cmd.args
    assert L == (Z - 1) * Z**-3


# dimension inference


def test_flexible_dimensions_pad_upward():
    cmd = parse("member ideal(z1-1) z2-1")
    assert cmd.dim == 2
    I, L = cmd.args
    assert I.generators[0].dim == 2


def test_dim_option_overrides_upward():
    cmd = parse("roots z-1", dim=3)
    assert cmd.dim == 3
    assert cmd.args[0].dim == 3


def test_explicit_dimension_conflicts():
    with pytest.raises(DimensionMismatch):
        parse("solve d[0]", dim=2)
    with pytest.raises(DimensionMismatch):
        parse("dual-space ideal(z2-1) (1)")
    with pytest.raises(DimensionMismatch):
        parse("roots z3-1", dim=2)


def test_measure_dimensions_must_agree():
    with pytest.raises(ParseError):
        parse("solve d[0] + d[0,0]")


# rejected scripts


def test_mixing_variable_families():
    with pytest.raises(ParseError) as exc:
        parse("roots z1*x1")
    assert "do not mix" in str(exc.value)


def test_reserved_names():
    for script in ("solve = 3\nroots z", "z3 = 5\nroots z", "i = 2\nroots z"):
        with pytest.raises(ParseError):
            parse(script)


def test_undefined_name():
    with pytest.raises(ParseError) as exc:
        parse("solve nu")
    assert "undefined" in str(exc.value)


def test_chained_powers_need_parentheses():
    with pytest.raises(ParseError) as exc:
        parse("roots z^2^3")
    assert "parentheses" in str(exc.value)


def test_polynomials_reject_negative_powers():
    with pytest.raises(ParseError):
        parse("apply-derivation x^-1 d[0] 1")


def test_laurent_negative_power_needs_monomial():
    with pytest.raises(ParseError):
        parse("roots (z+1)^-1")


def test_command_must_be_last():
    with pytest.raises(ParseError) as exc:
        parse("solve d[0]\nmu = d[0]")
    assert "command line" in str(exc.value)
    assert exc.value.line == 2


def test_script_needs_a_command():
    with pytest.raises(ParseError):
        parse("mu = d[0]")


def test_vectors_do_not_combine():
    with pytest.raises(ParseError):
        parse("roots (1,2)+1")


def test_ideals_do_not_combine():
    with pytest.raises(ParseError):
        parse("member ideal(z-1)*2 z-1")


def test_unknown_suite_name():
    with pytest.raises(CommandError):
        parse("verify no-such-suite")


def test_demo_rank_validation():
    with pytest.raises(CommandError):
        parse("demo-rank 0")
    with pytest.raises(ParseError):
        parse("demo-rank x")


def test_error_position_reporting():
    with pytest.raises(ParseError) as exc:
        parse("mu = d[0]\nsolve d[")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


# canonical formatting: text that reparses to an equal Command (given the
# same dimension)


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


# canonical formatting, frozen


def test_format_measure():
    mu = Measure(1, {(-2,): gr(1), (-1,): gr(-3), (0,): gr(2)})
    assert format_measure(mu) == "(1)*d[-2] + (-3)*d[-1] + (2)*d[0]"
    assert format_measure(Measure(2, {})) == "(0)*d[0,0]"


def test_format_laurent():
    assert format_laurent((Z - 1) ** 2) == "(1) + (-2)*z1 + (1)*z1^2"
    assert format_laurent(Z**-2) == "(1)*z1^-2"
    assert format_laurent(LaurentPoly.constant(1, 0)) == "(0)"


def test_format_polynomial():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert format_polynomial(x1 * x2 * 3 + 1) == "(1) + (3)*x1*x2"


def test_format_exponential():
    c = Exponential((gr(1), GaussianRational(Fraction(1, 2), Fraction(1, 2))))
    assert format_exponential(c) == "(1, 1/2+1/2i)"


def test_format_command_frozen():
    cmd = parse(FIB_SCRIPT)
    text = format_command(cmd)
    assert text == "solve (1)*d[-2] + (-3)*d[-1] + (2)*d[0]"
    assert parse(text, dim=cmd.dim) == cmd


# round-trip property


@st.composite
def commands(draw):
    d = draw(dims)
    verb = draw(
        st.sampled_from(
            ["solve", "roots", "member", "root-order", "dual-space", "apply-derivation"]
        )
    )
    if verb == "solve":
        args = tuple(
            draw(measures(d)) for _ in range(draw(st.integers(1, 2)))
        )
    elif verb == "roots":
        gens = [draw(laurents(d)) for _ in range(draw(st.integers(1, 2)))]
        args = (IdealHandle(gens),)
    elif verb == "member":
        args = (IdealHandle([draw(laurents(d))]), draw(laurents(d)))
    elif verb in ("root-order", "dual-space"):
        args = (IdealHandle([draw(laurents(d))]), draw(exponentials(d)))
    else:
        args = (draw(polynomials(d)), draw(measures(d)), draw(exponentials(d)))
    return Command(verb=verb, args=args, dim=d)


@settings(deadline=None, max_examples=200)
@given(commands())
def test_round_trip(cmd):
    text = format_command(cmd)
    assert parse(text, dim=cmd.dim) == cmd


@settings(deadline=None, max_examples=50)
@given(st.sampled_from(["verify rank-growth", "demo-rank 3", "verify lefranc product-rule"]))
def test_plain_verb_round_trip(text):
    cmd = parse(text)
    assert format_command(cmd) == text
    assert parse(format_command(cmd), dim=cmd.dim) == cmd
