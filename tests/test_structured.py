"""Parsing and round-trip behavior of the key=value micro-format."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from stratinv.structured import StructuredText, parse_structured, render_tokens

KEY_RE = r"\A[A-Za-z_][A-Za-z0-9_]{0,5}\Z"


def render(st_text):
    """The text of a parsed structured text: its pairs, then its tail."""
    return render_tokens([f"{k}={v}" for k, v in st_text.pairs], st_text.tail)


def test_parse_basic():
    st_text = parse_structured("ctx=za u1=0 pad=0")
    assert st_text.pairs == (("ctx", "za"), ("u1", "0"), ("pad", "0"))
    assert st_text.tail == ""
    assert st_text.get("ctx") == "za"
    assert st_text.get("missing") is None
    assert st_text.get("missing", "d") == "d"


def test_tail_starts_at_first_non_kv_token():
    st_text = parse_structured("ctx=za routine note u2=1")
    assert st_text.pairs == (("ctx", "za"),)
    # everything from the first non-kv word on is verbatim tail
    assert st_text.tail == "routine note u2=1"
    assert render(st_text) == "ctx=za routine note u2=1"


def test_value_may_contain_equals():
    st_text = parse_structured("k=a=b x=1")
    assert st_text.get("k") == "a=b"
    assert parse_structured(render(st_text)) == st_text


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.from_regex(KEY_RE),
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Ll", "Lu", "Nd"),
                    whitelist_characters="-_=.",
                ),
                max_size=6,
            ),
        ),
        max_size=5,
    ),
    tail=st.sampled_from(["", "routine note", "- free text", "29 degrees"]),
)
def test_render_parse_round_trip(pairs, tail):
    original = StructuredText(pairs=tuple(pairs), tail=tail)
    again = parse_structured(render(original))
    assert again.pairs == original.pairs
    assert again.tail == original.tail


# --- the token-by-token parser, kept as the oracle ---------------------------

_ORACLE_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(\S*)$")


def reference_parse(text):
    """Split off one space-delimited token at a time until one is not
    key=value; the rest is the tail."""
    pairs = []
    rest = text
    while rest:
        token, _sep, remainder = rest.partition(" ")
        m = _ORACLE_TOKEN_RE.match(token)
        if m is None:
            break
        pairs.append((m.group(1), m.group(2)))
        rest = remainder
    return StructuredText(tuple(pairs), rest)


_PIECES = st.sampled_from(
    ["a=1", "k=a=b", "u1=", "ctx=za", "_x=\t", "b=2\n", "=1", "1a=2", "word",
     " ", "  ", "\n", "\t", "\r", "=", "a", "\xa0"]
)


@settings(max_examples=600, deadline=None)
@given(
    text=st.one_of(
        st.lists(_PIECES, max_size=8).map("".join),
        st.lists(_PIECES, max_size=6).map(" ".join),
        st.text(alphabet="ab_1= \n\t", max_size=14),
    )
)
def test_parse_matches_the_token_by_token_oracle(text):
    assert parse_structured(text) == reference_parse(text)


def test_parse_boundary_cases_match_the_oracle():
    for text in ["", " ", "a=1 ", "a=1  b=2", "a=1\n", "a=\n b=1", "a=1\nb=2",
                 "a=1\n\n", "a=1\t b=2", "k=a=b c=", "a=1 \n", " a=1", "a=1 b"]:
        assert parse_structured(text) == reference_parse(text), repr(text)
