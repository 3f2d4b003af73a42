"""Exception taxonomy shared across the package.

Every error raised on a contract violation derives from StratinvError so
callers (and the CLI) can tell usage errors from genuine bugs. ``json_input``
reads an input file so that its faults name the file, and a ``FieldTable``
checks the keys and JSON types of each object in it; ``text_output`` is the
one way the package writes an artifact.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from typing import Iterable, Mapping

_JSON_TYPES = {
    dict: "object", list: "array", str: "string", int: "number",
    float: "number", bool: "boolean", type(None): "null",
}

# The JSON types a field table names: the Python types json.load gives for
# each, with the types their elements take (None: any), and its message name.
_SCALARS = (str, int, float, bool, type(None))
_FIELD_KINDS = {
    "object": ({dict: None}, "an object"), "list": ({list: None}, "a list"),
    "string": ({str: None}, "a string"), "integer": ({int: None}, "an integer"),
    "number": ({int: None, float: None}, "a number"), "null": ({type(None): None}, "null"),
    "list of strings": ({list: (str,)}, "a list of strings"),
    "list of scalars": ({list: _SCALARS}, "a list of scalars"),
    "object of strings": ({dict: (str,)}, "an object of strings"),
    "object of scalars": ({dict: _SCALARS}, "an object of scalars"),
}


class FieldTable:
    """The keys one kind of JSON object may hold, each with its JSON type: a
    name in ``_FIELD_KINDS``, or several joined by " or ". ``what`` names a
    key in messages ("task config key")."""

    def __init__(self, what: str, types: Mapping[str, str], required: Iterable[str] = ()):
        self.what, self.types, self.required = what, dict(types), tuple(required)
        self._required = frozenset(self.required)
        self._kinds = {
            key: {k: v for kind in spec.split(" or ") for k, v in _FIELD_KINDS[kind][0].items()}
            for key, spec in self.types.items()
        }

    def check(self, doc) -> dict:
        """``doc``, if it is an object of listed keys, each value and typed
        element of a type its key takes as json.load gives it (a bool is no
        number), with every required key; else a ValueError naming the first fault."""
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object of {self.what}s, got {doc!r}")
        kinds = self._kinds
        for key, value in doc.items():
            kind = kinds.get(key)
            if kind is None:
                raise ValueError(f"unknown {self.what} {key!r}")
            elements = kind.get(value.__class__, False)
            if elements is False or elements and any(
                    item.__class__ not in elements
                    for item in (value.values() if value.__class__ is dict else value)):
                named = " or ".join(_FIELD_KINDS[k][1] for k in self.types[key].split(" or "))
                raise ValueError(f"{self.what} {key!r} must be {named}, got {value!r}")
        if not doc.keys() >= self._required:
            missing = [key for key in self.required if key not in doc]
            plural = "s" if len(missing) > 1 else ""
            raise ValueError(f"missing {self.what}{plural} {', '.join(map(repr, missing))}")
        return doc


def _distinct_keys(pairs: list) -> dict:
    """A JSON object, refused when it repeats a key (which ``json`` would
    otherwise settle silently by keeping the last value)."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _value in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return doc


@contextmanager
def json_input(path, kind: type = dict):
    """Yield the JSON document in the file at ``path``, which must be a
    ``kind``. Malformed JSON (an object that repeats a key included), a
    document of another type, and a ValueError or TypeError raised while it
    is read (a key or value that a ``FieldTable`` refuses, a probability of
    the wrong JSON type) become a ValueError naming the file. A StratinvError raised while it is
    read (a structural fault, such as a graph cycle or a missing table
    entry) names the file and keeps its class."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_distinct_keys)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(doc, kind):
        raise ValueError(
            f"{path}: expected a JSON {_JSON_TYPES[kind]}, "
            f"got {_JSON_TYPES[type(doc)]}"
        )
    try:
        yield doc
    except StratinvError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: a value has the wrong JSON type: {exc}") from None


@contextmanager
def text_output(path, newline: str | None = None):
    """Yield a UTF-8 text file that overwrites the file at ``path`` in place.

    On every exit, normal or by exception, a regular file is cut at the
    position reached, so it holds exactly the text written and no tail of a
    longer old file. ``newline`` is ``open``'s (the csv module needs ``""``).
    """
    # Overwriting, then truncating to the new length, spares a rerun into a
    # used directory the disk flush that ext4 starts on closing a file
    # truncated to zero (auto_da_alloc). Like a plain open(path, "w"), this
    # is neither atomic nor durable.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        finally:
            # Like O_TRUNC, cut only a regular file, not /dev/null or a pipe.
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


class StratinvError(Exception):
    """Base class for all package-specific errors."""


# --- finite models ----------------------------------------------------------


class EnumerationTooLarge(StratinvError):
    """World enumeration would exceed the configured cap."""


class DomainMismatch(StratinvError):
    """A value does not belong to the declared finite domain."""


class InconsistentEvidence(StratinvError):
    """No positive-mass world is consistent with the given evidence."""


# --- graphs -----------------------------------------------------------------


class GraphError(StratinvError):
    """Structurally invalid graph (cycles, duplicate nodes, bad marks)."""


class UnknownNode(StratinvError):
    """A query referenced a node that is not in the graph."""


# --- metrics ----------------------------------------------------------------


class EmptyCell(StratinvError):
    """A required (stratum, context) cell has no records."""


class ZeroMassStratum(StratinvError):
    """Conditioning on a stratum with zero probability mass."""


class MissingCell(StratinvError):
    """A potential-prediction grid is missing a (context, profile) entry."""


class MissingLabels(StratinvError):
    """Records lack the true label or the prediction a metric needs."""


class BalanceError(StratinvError):
    """A balanced subsample cannot be formed at the requested size."""


class MissingBaseline(StratinvError):
    """A comparison table lacks the baseline method it must subtract from."""


# --- augmentation -----------------------------------------------------------


class AmbiguousContext(StratinvError):
    """The context recoverer could not pin down a unique context."""


class SamplerFailure(StratinvError):
    """The conditional input sampler failed to produce a draw."""


# --- chat / prompting -------------------------------------------------------


class ServiceError(StratinvError):
    """The chat completion service failed after retries."""


class TemplateError(StratinvError):
    """A prompt template was rendered with unresolved placeholders."""


class UnparsableAnswer(StratinvError):
    """A completion could not be mapped to any label, even after retry."""


class UnrecognizedRole(StratinvError):
    """The mock model received a prompt with no recognized role marker."""


class OocFailed(StratinvError):
    """Every replicate of a context-randomized prediction failed."""
