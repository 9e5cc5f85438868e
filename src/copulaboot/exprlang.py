"""A small arithmetic expression language for combination functions.

Grammar: real literals, named variables, unary minus, binary + - * / ^,
the functions log, exp, sqrt, min, max, and parentheses. Precedence is
^ > unary minus > * / > + -, everything left-associative except ^ (right).

Parsed trees are immutable and evaluation is pure; evaluation works
elementwise on numpy arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import ParseError

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "parse_expression",
    "eval_expression",
    "free_variables",
]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "-"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Unary, Binary, Call]

_FUNCTIONS = {"log": 1, "exp": 1, "sqrt": 1, "min": 2, "max": 2}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[a-zA-Z][a-zA-Z0-9_]*)
  | (?P<op>\*|/|\+|-|\^|\(|\)|,)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# binding powers for the Pratt parser; ^ is right-associative so its right
# binding power is one below its left
_INFIX_BP = {"+": (10, 11), "-": (10, 11), "*": (20, 21), "/": (20, 21), "^": (41, 40)}
_UNARY_BP = 30


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.peek()
        if text != value:
            raise ParseError(
                f"expected {value!r}, found {text or 'end of input'!r}", pos
            )
        return self.advance()

    def parse(self) -> Expr:
        expr = self.expression(0)
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return expr

    def expression(self, min_bp: int) -> Expr:
        left = self.prefix()
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or text not in _INFIX_BP:
                break
            lbp, rbp = _INFIX_BP[text]
            if lbp < min_bp:
                break
            self.advance()
            left = Binary(text, left, self.expression(rbp))
        return left

    def prefix(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "number":
            return Num(float(text))
        if kind == "name":
            if self.peek()[1] == "(":
                return self.call(text, pos)
            return Var(text)
        if text == "-":
            return Unary("-", self.expression(_UNARY_BP))
        if text == "(":
            inner = self.expression(0)
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {text or 'end of input'!r}", pos)

    def call(self, func: str, pos: int) -> Expr:
        if func not in _FUNCTIONS:
            known = ", ".join(sorted(_FUNCTIONS))
            raise ParseError(
                f"unknown function {func!r}; known functions: {known}", pos
            )
        self.expect("(")
        args = [self.expression(0)]
        while self.peek()[1] == ",":
            self.advance()
            args.append(self.expression(0))
        self.expect(")")
        arity = _FUNCTIONS[func]
        if len(args) != arity:
            raise ParseError(
                f"{func} takes {arity} argument(s), got {len(args)}", pos
            )
        return Call(func, tuple(args))


def parse_expression(text: str) -> Expr:
    """Parse expression text into an immutable syntax tree."""
    return _Parser(text).parse()


def free_variables(ast: Expr) -> list[str]:
    """Variable names in order of first appearance, deduplicated."""
    seen: dict[str, None] = {}

    def walk(node: Expr):
        if isinstance(node, Var):
            seen.setdefault(node.name)
        elif isinstance(node, Unary):
            walk(node.operand)
        elif isinstance(node, Binary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Call):
            for a in node.args:
                walk(a)

    walk(ast)
    return list(seen)


_FUNC_IMPL = {
    "log": np.log,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "min": np.minimum,
    "max": np.maximum,
}


def eval_expression(ast: Expr, bindings: Mapping[str, object]):
    """Evaluate a tree under variable bindings, which must bind every variable.

    Arrays are evaluated elementwise under IEEE semantics and returned as-is
    (division by zero gives inf, log of a negative number NaN); callers
    decide how to surface non-finite elements.
    """
    with np.errstate(all="ignore"):
        return _eval(ast, bindings)


def _eval(node: Expr, bindings: Mapping[str, object]):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return bindings[node.name]
    if isinstance(node, Unary):
        return -_eval(node.operand, bindings)
    if isinstance(node, Binary):
        left = _eval(node.left, bindings)
        right = _eval(node.right, bindings)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return np.divide(left, right)
        return np.power(left, right)
    if isinstance(node, Call):
        args = [_eval(a, bindings) for a in node.args]
        return _FUNC_IMPL[node.func](*args)
    raise TypeError(f"not an expression node: {node!r}")
