"""Identifier safety + deterministic constraint naming.

The reference's SQL-string builders are unnecessary here (manifest edits
replace DDL), but their *identifier-safety* ideas carry over
(SURVEY.md §2.1 S8): strict identifier validation (analogue of backtick
quoting, the reference's ``delta_engine/utils.py:10-32``) and
BLAKE2b-truncated constraint names
(/root/reference/src/delta_engine/constraints/naming.py:32-61).
"""

from __future__ import annotations

import hashlib
import re

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: identifier budget (Delta/UC-style 255 is the reference's ceiling; keep a
#: conservative filesystem-safe budget since identifiers become paths here)
MAX_IDENTIFIER_LEN = 128


def validate_identifier(name: str) -> str:
    """Reject names that could escape a path or need quoting. Identifiers
    become directory names in the lake, so the rules are stricter than
    SQL-with-quoting: word characters only, length-bounded."""
    if not name or len(name) > MAX_IDENTIFIER_LEN or not _IDENT_RE.match(name):
        raise ValueError(f"invalid identifier: {name!r}")
    return name


def constraint_name(prefix: str, table: str, columns: tuple[str, ...], max_len: int = 63) -> str:
    """Deterministic, length-bounded constraint name: readable prefix +
    BLAKE2b-8 digest of the full identity (naming.py:32-61 semantics —
    stable across runs, collision-resistant under truncation)."""
    identity = f"{table}:{','.join(columns)}"
    digest = hashlib.blake2b(identity.encode(), digest_size=8).hexdigest()
    base = f"{prefix}_{table}_{'_'.join(columns)}"
    if len(base) + 17 > max_len:
        base = base[: max_len - 17]
    return f"{base}_{digest}"

