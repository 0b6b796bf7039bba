"""Restricted Python executor for the Analysis Agent.

Executes model-generated analysis code against the parsed Darshan frames
with a captured stdout and a restricted import surface (numpy, math,
statistics only).  Dangerous builtins are removed; errors are surfaced as
:class:`SandboxError` so the agent can report execution failures back to the
model.

Output capture binds a buffer-backed ``print`` into the sandbox builtins
rather than redirecting ``sys.stdout``: redirection swaps a *process-global*,
so analysis code running on concurrent threads would interleave captures
(and can strand ``sys.stdout`` on a dead buffer when scopes unwind out of
order).  The sandbox blocks ``sys`` imports, so the injected ``print`` is
the only way generated code can emit output.
"""

from __future__ import annotations

import builtins
import functools
import io
import math
import statistics
from functools import lru_cache

import numpy

_ALLOWED_IMPORTS = {"numpy": numpy, "math": math, "statistics": statistics, "np": numpy}

_BLOCKED_BUILTINS = {
    "open",
    "exec",
    "eval",
    "compile",
    "input",
    "breakpoint",
    "exit",
    "quit",
    "globals",
    "locals",
    "vars",
    "memoryview",
    "__import__",
}


class SandboxError(RuntimeError):
    """Raised when generated code fails or violates the sandbox policy."""


def _restricted_import(name, globals=None, locals=None, fromlist=(), level=0):
    root = name.split(".")[0]
    if root not in _ALLOWED_IMPORTS:
        raise SandboxError(f"import of {name!r} is not allowed in the sandbox")
    return _ALLOWED_IMPORTS[root]


def _safe_builtins() -> dict:
    # Copied per execution (each sandbox owns its builtins dict) from a
    # template computed once at import.
    safe = dict(_SAFE_BUILTINS_TEMPLATE)
    safe["__import__"] = _restricted_import
    return safe


_SAFE_BUILTINS_TEMPLATE = {
    name: getattr(builtins, name)
    for name in dir(builtins)
    if not name.startswith("_") and name not in _BLOCKED_BUILTINS
}


@lru_cache(maxsize=256)
def _compile_analysis(code: str):
    """Code objects are immutable — reuse them across identical snippets
    (the codegen emits the same analysis programs for every session)."""
    return compile(code, "<analysis>", "exec")


def run_in_sandbox(code: str, namespace: dict | None = None, max_output: int = 20_000) -> str:
    """Execute ``code``; returns captured stdout (truncated to ``max_output``)."""
    safe = _safe_builtins()
    buffer = io.StringIO()
    safe["print"] = functools.partial(print, file=buffer)
    scope: dict = {"__builtins__": safe}
    if namespace:
        scope.update(namespace)
    try:
        exec(_compile_analysis(code), scope)  # noqa: S102
    except SandboxError:
        raise
    except Exception as exc:  # surface model-code bugs to the agent
        raise SandboxError(f"{type(exc).__name__}: {exc}") from exc
    output = buffer.getvalue()
    if len(output) > max_output:
        output = output[:max_output] + "\n...[truncated]"
    return output
