import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from copulaboot import ParseError
from copulaboot.exprlang import (
    Binary,
    Call,
    Num,
    Unary,
    Var,
    eval_expression,
    free_variables,
    parse_expression,
)


class TestParse:
    def test_product(self):
        assert parse_expression("x1*x2") == Binary("*", Var("x1"), Var("x2"))

    def test_rogan_gladen_expression(self):
        ast = parse_expression("(prev+spec-1)/(sens+spec-1)")
        assert free_variables(ast) == ["prev", "spec", "sens"]
        assert isinstance(ast, Binary) and ast.op == "/"

    def test_power_right_associative(self):
        ast = parse_expression("2^3^2")
        assert eval_expression(ast, {}) == 512.0

    def test_unary_minus(self):
        assert eval_expression(parse_expression("-2^2"), {}) == -4.0
        assert eval_expression(parse_expression("(-2)^2"), {}) == 4.0

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("x1 * + x2 $")
        assert exc.value.position >= 0

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_expression("tan(x)")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_expression("min(x)")
        with pytest.raises(ParseError):
            parse_expression("sqrt(x, y)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("x1 x2")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_expression("")

    @pytest.mark.parametrize(
        "text,tree",
        [
            pytest.param(text, tree, id=text)
            for text, tree in [
                ("x1*x2", Binary("*", Var("x1"), Var("x2"))),
                (
                    "(prev+spec-1)/(sens+spec-1)",
                    Binary(
                        "/",
                        Binary("-", Binary("+", Var("prev"), Var("spec")), Num(1.0)),
                        Binary("-", Binary("+", Var("sens"), Var("spec")), Num(1.0)),
                    ),
                ),
                ("2^3^2", Binary("^", Num(2.0), Binary("^", Num(3.0), Num(2.0)))),
                ("-x + y", Binary("+", Unary("-", Var("x")), Var("y"))),
                (
                    "min(max(a, 0), 1)",
                    Call("min", (Call("max", (Var("a"), Num(0.0))), Num(1.0))),
                ),
                ("log(exp(x))", Call("log", (Call("exp", (Var("x"),)),))),
                (
                    "sqrt(x)/2 + 1e-3",
                    Binary(
                        "+",
                        Binary("/", Call("sqrt", (Var("x"),)), Num(2.0)),
                        Num(1e-3),
                    ),
                ),
                ("a+b*a", Binary("+", Var("a"), Binary("*", Var("b"), Var("a")))),
                ("3.5", Num(3.5)),
                ("a - b - c", Binary("-", Binary("-", Var("a"), Var("b")), Var("c"))),
                ("a / b / c", Binary("/", Binary("/", Var("a"), Var("b")), Var("c"))),
                ("-(a + b)", Unary("-", Binary("+", Var("a"), Var("b")))),
            ]
        ],
    )
    def test_parses_to_tree(self, text, tree):
        assert parse_expression(text) == tree


def _parenthesized(sub):
    # one node over (text, tree) pairs: the node's text puts every operand
    # in parentheses, so the tree it must parse to is known without a parser
    def binary(op, left, right):
        return f"({left[0]}{op}{right[0]})", Binary(op, left[1], right[1])

    def call(func, *args):
        text = ",".join(a[0] for a in args)
        return f"{func}({text})", Call(func, tuple(a[1] for a in args))

    return (
        sub.map(lambda a: (f"(-{a[0]})", Unary("-", a[1])))
        | st.builds(binary, st.sampled_from("+-*/^"), sub, sub)
        | st.builds(call, st.sampled_from(["log", "exp", "sqrt"]), sub)
        | st.builds(call, st.sampled_from(["min", "max"]), sub, sub)
    )


# (text, tree) pairs the parser must agree with: literals are finite and
# non-negative (a minus sign parses as Unary), and calls have their
# function's arity
_TEXTS_AND_TREES = st.recursive(
    st.floats(min_value=0.0, allow_infinity=False).map(lambda v: (repr(v), Num(v)))
    | st.from_regex(r"[a-zA-Z][a-zA-Z0-9_]{0,4}", fullmatch=True).map(
        lambda name: (name, Var(name))
    ),
    _parenthesized,
    max_leaves=12,
)


@given(_TEXTS_AND_TREES)
def test_generated_text_parses_to_its_tree(pair):
    text, tree = pair
    assert parse_expression(text) == tree


# each fixture pairs a bare expression with its fully parenthesized oracle
PRECEDENCE_FIXTURES = [
    ("1+2*3", "1+(2*3)"),
    ("2*3+1", "(2*3)+1"),
    ("1-2-3", "(1-2)-3"),
    ("8/4/2", "(8/4)/2"),
    ("2^3^2", "2^(3^2)"),
    ("2*3^2", "2*(3^2)"),
    ("-2^2", "-(2^2)"),
    ("-2*3", "(-2)*3"),
    ("1+2-3", "(1+2)-3"),
    ("1-2+3", "(1-2)+3"),
    ("2+3*4^2", "2+(3*(4^2))"),
    ("6/2*3", "(6/2)*3"),
    ("2^2*3", "(2^2)*3"),
    ("1+2/4", "1+(2/4)"),
    ("-1+2", "(-1)+2"),
    ("2^-1", "2^(-1)"),
    ("5-2*2^2", "5-(2*(2^2))"),
    ("4/2^2", "4/(2^2)"),
    ("1*2+3*4", "(1*2)+(3*4)"),
    ("2*2-6/3", "(2*2)-(6/3)"),
]


@pytest.mark.parametrize("bare,oracle", PRECEDENCE_FIXTURES)
def test_precedence_fixtures(bare, oracle):
    assert eval_expression(parse_expression(bare), {}) == eval_expression(
        parse_expression(oracle), {}
    )


class TestEval:
    def test_product_point_estimates(self):
        # 3.5% * 4.5% = 0.1575%
        v = eval_expression(parse_expression("x1*x2"), {"x1": 0.035, "x2": 0.045})
        assert v == pytest.approx(0.001575, abs=1e-15)

    def test_min_truncation(self):
        assert eval_expression(parse_expression("min(x,1)"), {"x": 2.5}) == 1.0

    def test_array_eval_elementwise(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([4.0, 5.0, 6.0])
        out = eval_expression(parse_expression("x*y + 1"), {"x": x, "y": y})
        assert np.array_equal(out, x * y + 1)

    def test_array_eval_keeps_nonfinite(self):
        # arrays pass through IEEE semantics; the engine surfaces them
        x = np.array([1.0, 0.0])
        out = eval_expression(parse_expression("1/x"), {"x": x})
        assert out[0] == 1.0 and np.isinf(out[1])


class TestFreeVariables:
    def test_two(self):
        assert free_variables(parse_expression("x1*x2")) == ["x1", "x2"]

    def test_dedup_first_appearance(self):
        assert free_variables(parse_expression("a+b*a")) == ["a", "b"]

    def test_constant(self):
        assert free_variables(parse_expression("3.5")) == []

    def test_below_unary_minus(self):
        assert free_variables(parse_expression("-x2*x1")) == ["x2", "x1"]


def test_parser_fuzz_never_crashes():
    # random token soup must either parse or raise a positioned ParseError
    tokens = ["x", "y1", "1", "2.5", "+", "-", "*", "/", "^", "(", ")", ",",
              "log", "min", "$", " "]
    rng = random.Random(1234)
    parsed = 0
    for _ in range(2000):
        text = "".join(rng.choice(tokens) for _ in range(rng.randint(1, 12)))
        try:
            parse_expression(text)
            parsed += 1
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)
    assert parsed > 0  # the fuzzer does hit valid expressions sometimes


def test_evaluator_matches_builtin_product():
    from copulaboot import Combiner

    expr_comb = Combiner.from_expression("x1*x2", names=["x1", "x2"])
    prod_comb = Combiner.product(2)
    x = np.random.default_rng(0).random((10_000, 2))
    assert np.array_equal(expr_comb(x), prod_comb(x))
