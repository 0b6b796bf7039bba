"""Safe arithmetic expression language for dependent parameter ranges.

Lustre parameter bounds frequently depend on other parameters or on hardware
facts — e.g. ``max_read_ahead_per_file_mb`` may be at most half of
``max_read_ahead_mb``, which itself is capped at half of client memory.  The
paper instructs the extraction LLM to emit such bounds using a *dependent
expression* syntax evaluated against live system values during tuning.

Grammar: numbers, identifiers (parameter basenames or system facts such as
``system_memory_mb`` / ``n_ost``), ``+ - * / //``, unary minus, parentheses,
and ``min(...)`` / ``max(...)``.  Implemented by whitelisting Python ``ast``
nodes — anything outside the grammar raises :class:`ExpressionError`.

Expressions are compiled once per distinct source string: :func:`compile_expression`
parses the AST a single time and returns a closure tree, so the hot tuning
path (every ``PfsConfig.bounds`` call) pays only dict lookups and float
arithmetic, never ``ast.parse``.  Parse-time errors (syntax, disallowed
constructs) surface at compile time; value-dependent errors (unknown
identifiers, division by zero) surface at evaluation time, exactly as the
uncompiled evaluator raised them.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from typing import Callable, Mapping


class ExpressionError(ValueError):
    """Raised for syntax errors, unknown names, or disallowed constructs."""


_ALLOWED_CALLS = {"min": min, "max": max}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
}


def evaluate(expression: str, env: Mapping[str, float]) -> float:
    """Evaluate ``expression`` against ``env``; returns a float.

    ``env`` maps identifiers to numeric values.  Identifiers may be dotted
    parameter names (``osc.max_rpcs_in_flight``) — written in expressions with
    dots replaced by nothing special; both the full dotted name and the
    basename are accepted lookups.
    """
    return compile_expression(expression)(env)


@lru_cache(maxsize=None)
def compile_expression(expression: str) -> Callable[[Mapping[str, float]], float]:
    """Parse ``expression`` once and return a reusable evaluator closure.

    The cache is keyed by the source string, so every caller sharing a range
    expression (all :class:`~repro.pfs.config.PfsConfig` instances) shares one
    compiled form.  Compilation raises :class:`ExpressionError` for syntax
    errors and disallowed constructs; the returned closure raises it for
    unknown identifiers and division by zero, matching the one-shot evaluator.
    """
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"bad expression {expression!r}: {exc}") from None
    return _compile_node(tree.body, expression)


def _compile_node(
    node: ast.AST, expression: str
) -> Callable[[Mapping[str, float]], float]:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            value = float(node.value)
            return lambda env: value
        raise ExpressionError(f"non-numeric constant in {expression!r}")
    if isinstance(node, ast.Name):
        name = node.id
        return lambda env: _lookup(name, env, expression)
    if isinstance(node, ast.Attribute):
        dotted = _dotted_name(node, expression)
        return lambda env: _lookup(dotted, env, expression)
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise ExpressionError(f"operator not allowed in {expression!r}")
        left = _compile_node(node.left, expression)
        right = _compile_node(node.right, expression)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):

            def divide(env: Mapping[str, float]) -> float:
                denominator = right(env)
                if denominator == 0:
                    raise ExpressionError(f"division by zero in {expression!r}")
                return float(op(left(env), denominator))

            return divide
        return lambda env: float(op(left(env), right(env)))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _compile_node(node.operand, expression)
        return lambda env: -operand(env)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
            raise ExpressionError(f"only min()/max() calls allowed in {expression!r}")
        if node.keywords:
            raise ExpressionError(f"keyword arguments not allowed in {expression!r}")
        if not node.args:
            raise ExpressionError(f"empty call in {expression!r}")
        call = _ALLOWED_CALLS[node.func.id]
        args = [_compile_node(a, expression) for a in node.args]
        return lambda env: float(call(*(a(env) for a in args)))
    raise ExpressionError(
        f"disallowed syntax {type(node).__name__} in {expression!r}"
    )


def _dotted_name(node: ast.Attribute, expression: str) -> str:
    parts: list[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        raise ExpressionError(f"unsupported attribute base in {expression!r}")
    parts.append(current.id)
    return ".".join(reversed(parts))


def _lookup(name: str, env: Mapping[str, float], expression: str) -> float:
    if name in env:
        return float(env[name])
    # Allow basename lookups for dotted env keys.
    for key, value in env.items():
        if key.rsplit(".", 1)[-1] == name:
            return float(value)
    raise ExpressionError(f"unknown identifier {name!r} in {expression!r}")
