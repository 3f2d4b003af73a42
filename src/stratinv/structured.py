"""Structured key=value micro-format for synthetic inputs.

A structured text is a run of space-separated ``key=value`` tokens followed by
an optional free-text tail, e.g. ``"ctx=male s=nurse topic=1 loves the ward"``.
Reserved keys are ``ctx`` (the context), ``s`` (the stratum) and ``u1..uk``
(exogenous features); any other key is allowed. Token order is declaration
order and is preserved verbatim, so canonical texts (single spaces between
tokens) round-trip byte-identically through ``parse_structured`` and
``render_tokens`` of the parsed pairs and tail.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

CTX_KEY = "ctx"
STRATUM_KEY = "s"
PAD_KEY = "pad"

# The key=value head: tokens each followed by one space or the end of the
# text. A token may end in one newline, which is not part of its value.
_HEAD_RE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_]*=\S*\n?(?: |\Z))*")
_PAIR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)=(\S*)")


@dataclass(frozen=True)
class StructuredText:
    """Parsed form: ordered (key, value) pairs plus a verbatim tail."""

    pairs: tuple[tuple[str, str], ...]
    tail: str = ""

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.pairs:
            if k == key:
                return v
        return default


def render_tokens(tokens: list[str], tail: str) -> str:
    """``key=value`` tokens joined by single spaces, then the tail."""
    head = " ".join(tokens)
    if head and tail:
        return head + " " + tail
    return head or tail


def parse_structured(text: str) -> StructuredText:
    """Split leading key=value tokens from the free-text tail.

    The first token that does not look like ``key=value`` starts the tail,
    which is kept verbatim (including any internal spacing).
    """
    end = _HEAD_RE.match(text).end()
    return StructuredText(tuple(_PAIR_RE.findall(text, 0, end)), text[end:])
