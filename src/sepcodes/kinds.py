"""Kind taxonomy for separation sets and domination-based codes.

Separation kinds: L (locating), O (open-separating), I (closed-separating),
F (full-separating).  Domination kinds: D, TD.  Code kinds combine one
separation kind with one domination kind; bare D and TD are also exposed.
"""

from __future__ import annotations

SEPARATION_KINDS = ("L", "O", "I", "F")
DOMINATION_KINDS = ("D", "TD")
CODE_KINDS = ("LD", "LTD", "OD", "OTD", "ID", "ITD", "FD", "FTD")
ALL_KINDS = SEPARATION_KINDS + DOMINATION_KINDS + CODE_KINDS


def split_code_kind(kind: str) -> tuple[str | None, str | None]:
    """Split a kind into (separation, domination) parts, either may be None."""
    if kind in SEPARATION_KINDS:
        return kind, None
    if kind in DOMINATION_KINDS:
        return None, kind
    if kind in CODE_KINDS:
        if kind.endswith("TD"):
            return kind[:-2], "TD"
        return kind[:-1], "D"
    raise ValueError("unknown kind %r" % kind)

