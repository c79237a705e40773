"""The inline escape hatch: ``# repro-lint: disable=RULE[,RULE...]``.

A disable comment on a statement's *first* line silences the named rules
for findings anchored to that line only; ``disable-file=`` (anywhere in the
file, conventionally in the module docstring header area) silences them for
the whole file.  ``disable=all`` silences every rule.  The escape hatch is
for *deliberate* contract exceptions — the comment should sit next to a
justification, e.g.::

    raise KeyError(arrival)  # repro-lint: disable=error-taxonomy

Suppression counts are reported (``suppressed`` in the JSON document) so an
escape hatch can never silently hide coverage.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Set

#: Matches the magic comment; group 1 is the directive, group 2 the rules.
_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*"
    r"([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)")

#: Rule list value that matches every rule.
ALL = "all"


@dataclass
class Suppressions:
    """Per-file suppression state parsed from the source's comments."""

    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    whole_file: Set[str] = field(default_factory=set)

    def silences(self, rule: str, line: int) -> bool:
        """True when ``rule``'s finding at ``line`` is disabled."""
        for scope in (self.whole_file, self.by_line.get(line, ())):
            if rule in scope or ALL in scope:
                return True
        return False


def parse_suppressions(source: str) -> Suppressions:
    """Scan ``source`` for disable comments.

    Tokenizing (rather than regexing raw lines) means a ``disable=`` inside
    a string literal is never honoured.  An untokenizable file yields no
    suppressions — the rules will already be reporting on it or the parse
    error will have surfaced first.
    """
    suppressions = Suppressions()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE.search(token.string)
            if match is None:
                continue
            rules = {name.strip() for name in match.group(2).split(",")
                     if name.strip()}
            if match.group(1) == "disable-file":
                suppressions.whole_file.update(rules)
            else:
                line = token.start[0]
                suppressions.by_line.setdefault(line, set()).update(rules)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return suppressions
