"""``error-taxonomy`` — library failures speak :mod:`repro.errors`.

The taxonomy exists so callers can assert on the *precise guarantee* that
was violated (``CacheMissError`` vs ``BankConflictError`` vs a generic
crash).  A bare ``raise ValueError(...)`` erodes that: the caller can no
longer distinguish "my parameter was bad" from "the library is broken".
This rule flags ``raise`` statements whose exception is a builtin from the
banned set; the sanctioned replacements subclass both the taxonomy and the
original builtin (``ValidationError(ConfigurationError, ValueError)``), so
seed-era ``except ValueError`` callers keep working.

Allowed escapes: ``NotImplementedError`` (abstract-method convention),
``OSError`` and friends (genuine environment failures), bare ``raise``
(re-raise), and raising a caught exception object.  A deliberate builtin
contract uses the inline disable comment next to a justification.

Scope: the library packages with taxonomy contracts — ``sim``, ``switch``,
``traffic``, ``runner``, ``obs``, ``workloads``, ``bench``, ``faults``,
``lint``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.diagnostics import Finding
from repro.lint.engine import Rule, SourceFile

#: Builtins that taxonomy code must not raise directly.
BANNED = frozenset({
    "ValueError", "TypeError", "KeyError", "IndexError", "RuntimeError",
    "ArithmeticError", "ZeroDivisionError", "OverflowError",
    "AttributeError", "LookupError", "AssertionError", "Exception",
    "BaseException",
})


class ErrorTaxonomyRule(Rule):
    name = "error-taxonomy"
    summary = "library code raises only repro.errors taxonomy exceptions"
    contract = (
        "Library failures raise ReproError subclasses from repro.errors "
        "(ValidationError, ConfigurationError, ...), never bare builtins, "
        "so callers can assert on the precise violated guarantee.")
    scope = frozenset({"sim", "switch", "traffic", "runner", "obs",
                       "workloads", "bench", "faults", "lint"})

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in BANNED:
                yield self.finding(
                    file, node,
                    f"raise {name} leaves the repro.errors taxonomy; use a "
                    "ReproError subclass (e.g. ValidationError for bad "
                    "parameter values)",
                    name)
