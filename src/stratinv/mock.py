"""Deterministic offline chat service over the structured micro-format.

MockStructuredLm plays the remote model for tests and demos.  It recognizes the
pipeline's prompt roles by their opening phrases and implements each one exactly
on ``key=value`` token inputs: obfuscation drops the ``ctx`` token, addition
inserts ``ctx=<z>`` at the front, label prediction runs a small rule table over
the tokens, and stratum prediction reads one configured token.  Every response
is a pure function of the request, so identical requests always produce
identical texts and the client is safe to share across threads.

The inserted context value is the earliest standalone mention of a known
value on the instruction's first line; the single-pass rewrite takes the
mention that starts last, since its instruction lists every value before the
one to insert. Where two values start at one place the longer wins ("unknown
or undisclosed" over "unknown"). A mention is standalone when no ASCII letter,
digit or underscore touches it on either side.

Caveats for fixture authors: context values must not collide with instruction
wording (single letters like "a" will; tokens like "male" or "z0" will not),
and the context description must not contain any context value as a
standalone word. A value whose standalone mentions can overlap each other, as
"a--a" does in "a--a--a", is refused, since which of them starts last would
depend on how the line is scanned.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Mapping, Sequence

from .chat import ChatClient, ChatTurnRequest
from .errors import ServiceError, UnrecognizedRole
from .ooc import (
    ADD_MARKER,
    LABEL_MARKER,
    OBFUSCATE_MARKER,
    REWRITE_MARKER,
    STRATIFIER_MARKER,
    TEXT_SECTION,
    _LABEL_RULE_FIELDS,
    TaskConfig,
)
from .structured import CTX_KEY, PAD_KEY, STRATUM_KEY, parse_structured, render_tokens

_NO_ANSWER = "unknown"
_OPTIONS_SECTION = "\n\n" + LABEL_MARKER
_WORD_CHARS = frozenset(string.ascii_letters + string.digits + "_")


def _overlaps_itself(z: str) -> bool:
    """Whether two standalone mentions of ``z`` can overlap: some proper
    prefix of ``z`` is also its suffix, and no word character touches that
    border inside ``z``, so the shared part can end one mention and start the
    next ("a--a" in "a--a--a")."""
    return any(
        z[:k] == z[-k:] and z[k] not in _WORD_CHARS and z[-k - 1] not in _WORD_CHARS
        for k in range(1, len(z))
    )


@dataclass(frozen=True)
class LabelRule:
    """One row of the mock's decision table; first matching row wins.

    ``when`` lists token equalities that must all hold for the row to apply.
    A matching row answers with the constant ``label`` when set, otherwise with
    the value of the ``read`` token mapped through ``map`` (identity when no
    map is given) and falling back to ``default`` for missing or unmapped
    values.
    """

    when: tuple[tuple[str, str], ...] = ()
    read: str | None = None
    map: tuple[tuple[str, str], ...] = ()
    label: str | None = None
    default: str | None = None

    @classmethod
    def from_dict(cls, doc: Mapping) -> "LabelRule":
        _LABEL_RULE_FIELDS.check(doc)
        return cls(
            when=tuple(doc.get("if", {}).items()),
            read=doc.get("read"),
            map=tuple(doc.get("map", {}).items()),
            label=doc.get("label"),
            default=doc.get("default"),
        )

    def matches(self, tokens: Mapping[str, str]) -> bool:
        return all(tokens.get(key) == value for key, value in self.when)

    def answer(self, tokens: Mapping[str, str]) -> str:
        if self.label is not None:
            return self.label
        fallback = self.default if self.default is not None else _NO_ANSWER
        if self.read is None:
            return fallback
        value = tokens.get(self.read)
        if value is None:
            return fallback
        if self.map:
            return dict(self.map).get(value, fallback)
        return value


class MockStructuredLm(ChatClient):
    """Offline stand-in for a chat-completion service; see module docstring."""

    def __init__(
        self,
        contexts: Sequence[str],
        label_rules: Sequence[Mapping | LabelRule] = (),
        stratum_key: str = STRATUM_KEY,
        default_stratum: str | None = None,
    ):
        if not contexts:
            raise ValueError("mock needs at least one known context value")
        self._contexts = tuple(str(z) for z in contexts)
        for z in self._contexts:
            if _overlaps_itself(z):
                raise ValueError(
                    f"context value {z!r} can overlap its own mention in a line"
                )
        self._rules = tuple(
            rule if isinstance(rule, LabelRule) else LabelRule.from_dict(rule)
            for rule in label_rules
        )
        self._stratum_key = stratum_key
        self._default_stratum = default_stratum
        # One standalone mention of any value; longest value first, so that
        # "unknown or undisclosed" beats "unknown" where both start. Each value
        # checks the character before it after matching, so the scan can skip
        # ahead to the values' first characters.
        values = "|".join(
            f"{z}(?<![A-Za-z0-9_]{z})"
            for z in map(re.escape, sorted(self._contexts, key=len, reverse=True))
        )
        mention = rf"({values})(?![A-Za-z0-9_])"
        self._first_mention = re.compile(mention).search
        # A greedy lead backs off from the end: the last mention's start.
        self._last_mention = re.compile(r"(?s:.*)" + mention).match

    @classmethod
    def for_task(cls, cfg: TaskConfig) -> "MockStructuredLm":
        """Build from a task's context list and ``mock`` section, whose keys
        (checked when the task was made) are this constructor's keywords."""
        return cls(cfg.contexts, **(cfg.mock or {}))

    # -- dispatch ----------------------------------------------------------

    def complete(self, request: ChatTurnRequest) -> str:
        text = request.text()
        if OBFUSCATE_MARKER in text:
            return self._obfuscate(text, request)
        if ADD_MARKER in text:
            return self._add(text, request)
        if REWRITE_MARKER in text:
            return self._rewrite(text, request)
        if STRATIFIER_MARKER in text:
            return self._stratum(text)
        if LABEL_MARKER in text:
            return self._label(text)
        head = text.splitlines()[0][:60] if text else ""
        raise UnrecognizedRole(f"no role marker in request starting {head!r}")

    # -- payload handling --------------------------------------------------

    @staticmethod
    def _payload(text: str, *, upto_options: bool) -> str:
        _before, sep, payload = text.partition(TEXT_SECTION)
        if not sep:
            raise ServiceError("mock request lacks a '## Text' section")
        if upto_options:
            payload = payload.split(_OPTIONS_SECTION, 1)[0]
        return payload

    @staticmethod
    def _kept_tokens(
        pairs: tuple[tuple[str, str], ...], request: ChatTurnRequest
    ) -> tuple[list[str], bool]:
        """The tokens without ``ctx``, and whether any token changed.

        At positive temperature a seeded draw rewrites the first ``pad``
        token's value, and nothing else.
        """
        pad = None
        if request.temperature > 0 and request.seed is not None:
            pad = f"r{request.seed % 97}"
        tokens, changed = [], False
        for key, value in pairs:
            if key == CTX_KEY:
                changed = True
            elif key == PAD_KEY and pad is not None:
                tokens.append(f"{PAD_KEY}={pad}")
                pad, changed = None, True
            else:
                tokens.append(f"{key}={value}")
        return tokens, changed

    def _instruction_context(self, text: str, *, last: bool = False):
        """The context value named in the rewrite instruction (first line).

        The earliest standalone mention wins, or with ``last`` the one that
        starts last: the single-pass rewrite instruction lists every context
        value before naming the one to insert.  Where two values start at one
        place, the longer wins.
        """
        end = text.find("\n")
        find = self._last_mention if last else self._first_mention
        found = find(text, 0, len(text) if end < 0 else end)
        if found is None:
            raise ServiceError(
                f"mock found no context value among {list(self._contexts)} "
                "in the rewrite instruction"
            )
        return found.group(1)

    # -- role behaviors ----------------------------------------------------

    def _obfuscate(self, text: str, request: ChatTurnRequest) -> str:
        payload = self._payload(text, upto_options=False)
        st = parse_structured(payload)
        tokens, changed = self._kept_tokens(st.pairs, request)
        return render_tokens(tokens, st.tail) if changed else payload

    def _add(
        self, text: str, request: ChatTurnRequest, *, last_context: bool = False
    ) -> str:
        z_plus = self._instruction_context(text, last=last_context)
        st = parse_structured(self._payload(text, upto_options=False))
        tokens, _changed = self._kept_tokens(st.pairs, request)
        return render_tokens([f"{CTX_KEY}={z_plus}", *tokens], st.tail)

    def _rewrite(self, text: str, request: ChatTurnRequest) -> str:
        # Single-pass ablation: removal and addition in one request.
        return self._add(text, request, last_context=True)

    def _first_values(self, text: str) -> dict[str, str]:
        """The first value of each key in the payload's leading tokens."""
        payload = self._payload(text, upto_options=True)
        return dict(reversed(parse_structured(payload).pairs))

    def _stratum(self, text: str) -> str:
        value = self._first_values(text).get(self._stratum_key, self._default_stratum)
        return value if value is not None else _NO_ANSWER

    def _label(self, text: str) -> str:
        tokens = self._first_values(text)
        for rule in self._rules:
            if rule.matches(tokens):
                return rule.answer(tokens)
        return _NO_ANSWER
