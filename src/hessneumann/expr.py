"""Minimal arithmetic expression grammar for problem-file fields.

Grammar (EBNF):

    expr   := term { ("+" | "-") term }
    term   := factor { ("*" | "/") factor }
    factor := ["+" | "-"] power
    power  := atom ["^" factor]
    atom   := NUMBER | VAR | FUNC "(" expr ")" | "(" expr ")"
    VAR    := "x1" | "x2" | "x3"
    FUNC   := "sin" | "cos" | "exp" | "abs"

"^" is right-associative and binds tighter than unary minus.  Parsing is by
operator precedence, without recursion, so an expression may have any length or
depth.  Parse errors carry the 0-based character position of the offending token.
"""

from __future__ import annotations

import functools
import operator
import re

import numpy as np

__all__ = ["ExpressionError", "compile_expression"]

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_VARS = ("x1", "x2", "x3")

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class ExpressionError(ValueError):
    """Malformed expression; ``position`` is the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            if not stripped:
                break
            raise ExpressionError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# precedence and function of each binary operator; prefix "-" has precedence 3
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub), "*": (2, operator.mul),
           "/": (2, operator.truediv), "^": (4, operator.pow)}


def _postfix(tokens):
    """Shunting-yard: tokens to postfix (arity, item) steps; a "(" waits at precedence 0 with its call."""
    program, pending = [], []
    depth, want_operand = 0, True
    tokens = iter(tokens)
    for kind, val, pos in tokens:
        if want_operand:
            if kind == "num" or val in _VARS:
                program.append((0, val))
                want_operand = False
            elif val in _FUNCS:
                _, paren, pos = next(tokens)
                if paren != "(":
                    raise ExpressionError("expected '('", pos)
                pending.append((0, [(1, _FUNCS[val])]))
                depth += 1
            elif val == "(":
                pending.append((0, []))
                depth += 1
            elif val == "-":
                pending.append((3, [(1, operator.neg)]))
            elif kind == "name":
                raise ExpressionError(f"unknown name {val!r}", pos)
            elif val != "+":
                raise ExpressionError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)
        elif val in _BINARY:
            prec, fn = _BINARY[val]
            # "^" binds tightest and is right-associative, so it pops nothing
            while val != "^" and pending and pending[-1][0] >= prec:
                program += pending.pop()[1]
            pending.append((prec, [(2, fn)]))
            want_operand = True
        elif val == ")" and depth:
            while pending[-1][0]:
                program += pending.pop()[1]
            program += pending.pop()[1]
            depth -= 1
        elif depth or kind != "end":
            raise ExpressionError("expected ')'" if depth else f"unexpected trailing input {val!r}", pos)
    return program + [step for _, steps in reversed(pending) for step in steps]


def _evaluate(program, env):
    stack = []
    for arity, item in program:
        if arity:
            stack[-arity:] = [item(*stack[-arity:])]
        else:  # a constant or a variable's name
            stack.append(env[item] if item in _VARS else item)
    return stack[0]


def compile_expression(text: str):
    """Compile to (evaluator, used variable names).

    The evaluator maps a dict {"x1": array, ...} to the elementwise value.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression", 0)
    program = _postfix(_tokenize(text))
    used = sorted(set(_VARS).intersection(item for arity, item in program if not arity))
    return functools.partial(_evaluate, program), used
