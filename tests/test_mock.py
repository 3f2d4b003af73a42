"""The offline mock service: role dispatch and exact per-role behavior."""

import re
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stratinv.chat import ChatTurnRequest
from stratinv.errors import ServiceError, UnrecognizedRole
from stratinv.mock import LabelRule, MockStructuredLm
from stratinv.ooc import (
    ADD_MARKER,
    LABEL_MARKER,
    OBFUSCATE_MARKER,
    REWRITE_MARKER,
    STRATIFIER_MARKER,
    TEXT_SECTION,
    builtin_task,
)
from stratinv.structured import (
    CTX_KEY,
    PAD_KEY,
    StructuredText,
    parse_structured,
    render_tokens,
)


def turn(text, temperature=0.0, seed=None):
    return ChatTurnRequest(
        messages=(("user", text),), temperature=temperature, seed=seed
    )


def obf_request(payload, **kw):
    return turn(f"{OBFUSCATE_MARKER}, please.\n{TEXT_SECTION}{payload}", **kw)


def add_request(instruction_tail, payload, **kw):
    return turn(f"{ADD_MARKER}. {instruction_tail}\n{TEXT_SECTION}{payload}", **kw)


def label_request(payload, options="0, 1"):
    return turn(
        f"Classify.\n\n{TEXT_SECTION}{payload}\n\n{LABEL_MARKER} {options}. "
        "Answer with the option only."
    )


def mock(**kw):
    kw.setdefault("contexts", ("male", "female"))
    return MockStructuredLm(**kw)


def test_unrecognized_role():
    with pytest.raises(UnrecognizedRole, match="hello world"):
        mock().complete(turn("hello world\nmore text"))


def test_missing_text_section():
    with pytest.raises(ServiceError, match="## Text"):
        mock().complete(turn(f"{OBFUSCATE_MARKER} but no payload"))


def test_obfuscate_drops_context_token():
    assert mock().complete(obf_request("ctx=male topic=1 some tail")) == (
        "topic=1 some tail"
    )


def test_obfuscate_passes_other_text_verbatim():
    # nothing to change: the raw payload comes back, odd spacing included
    payload = "topic=1   double  spaced tail "
    assert mock().complete(obf_request(payload)) == payload


def test_add_inserts_named_context_at_front():
    out = mock().complete(add_request("Set the marker to female.", "topic=1 tail"))
    assert out == "ctx=female topic=1 tail"


def test_add_replaces_existing_context():
    out = mock().complete(
        add_request("Set the marker to female.", "ctx=male topic=1")
    )
    assert out == "ctx=female topic=1"


def test_add_takes_first_context_mention():
    out = mock().complete(
        add_request("Replace male, female mentions; use female.", "topic=1")
    )
    assert out == "ctx=male topic=1"


def test_rewrite_takes_last_context_mention():
    # the single-pass instruction lists every context before the target one
    req = turn(
        f"{REWRITE_MARKER}. Replace male, female mentions; use female.\n"
        f"{TEXT_SECTION}ctx=male topic=1"
    )
    assert mock().complete(req) == "ctx=female topic=1"


def test_add_without_context_mention_fails():
    with pytest.raises(ServiceError, match="no context value"):
        mock().complete(add_request("Set the marker, please.", "topic=1"))


def test_longest_context_value_wins():
    client = mock(contexts=("unknown", "unknown or undisclosed"))
    long_hit = client.complete(
        add_request("Set it to unknown or undisclosed.", "topic=1")
    )
    assert long_hit == "ctx=unknown or undisclosed topic=1"
    short_hit = client.complete(add_request("Set it to unknown.", "topic=1"))
    assert short_hit == "ctx=unknown topic=1"


def test_pad_varies_with_seed_at_positive_temperature():
    client = mock()
    payload = "ctx=male pad=0 tail"
    assert client.complete(obf_request(payload)) == "pad=0 tail"
    assert client.complete(obf_request(payload, temperature=0.7)) == "pad=0 tail"
    hot = client.complete(obf_request(payload, temperature=0.7, seed=42))
    assert hot == "pad=r42 tail"
    re_added = client.complete(
        add_request("Set the marker to male.", "pad=0 tail", temperature=0.7, seed=5)
    )
    assert re_added == "ctx=male pad=r5 tail"


def test_label_rules_first_match_wins():
    client = mock(
        label_rules=[
            {"if": {"kind": "amb"}, "label": "1"},
            {"read": "topic", "map": {"0": "no", "1": "yes"}, "default": "dunno"},
        ]
    )
    assert client.complete(label_request("kind=amb topic=0")) == "1"
    assert client.complete(label_request("kind=clear topic=0")) == "no"
    assert client.complete(label_request("kind=clear topic=1")) == "yes"
    assert client.complete(label_request("kind=clear topic=9")) == "dunno"
    assert client.complete(label_request("kind=clear")) == "dunno"


def test_label_read_without_map_is_identity():
    client = mock(label_rules=[{"read": "topic"}])
    assert client.complete(label_request("topic=1")) == "1"
    assert client.complete(label_request("other=2")) == "unknown"


def test_label_no_matching_rule():
    client = mock(label_rules=[{"if": {"kind": "amb"}, "label": "1"}])
    assert client.complete(label_request("kind=clear topic=1")) == "unknown"
    assert mock().complete(label_request("topic=1")) == "unknown"


def test_label_rule_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown label rule key 'iff'"):
        LabelRule.from_dict({"iff": {"kind": "amb"}, "label": "1"})


def strat_request(payload):
    return turn(
        f"{STRATIFIER_MARKER}. Which kind?\n\n{TEXT_SECTION}{payload}\n\n"
        f"{LABEL_MARKER} amb, clear. Answer with the option only."
    )


def test_stratifier_reads_configured_token():
    assert mock().complete(strat_request("s=clear1 topic=1")) == "clear1"
    keyed = mock(stratum_key="kind")
    assert keyed.complete(strat_request("kind=amb s=x")) == "amb"


def test_stratifier_default_and_fallback():
    assert mock(default_stratum="clear").complete(strat_request("topic=1")) == "clear"
    assert mock().complete(strat_request("topic=1")) == "unknown"


def test_for_task_wiring():
    cfg = builtin_task(
        "bios", mock={"label_rules": [{"read": "job"}], "stratum_key": "s"}
    )
    client = MockStructuredLm.for_task(cfg)
    assert client.complete(label_request("job=surgeon")) == "surgeon"
    bare = MockStructuredLm.for_task(builtin_task("bios"))
    assert bare.complete(label_request("job=surgeon")) == "unknown"
    with pytest.raises(ValueError, match="unknown mock config key 'rules'"):
        MockStructuredLm.for_task(builtin_task("bios", mock={"rules": []}))


@pytest.mark.parametrize(
    "section, message",
    [
        ({"label_rules": [{"label": 5}]}, "label rule key 'label' must be a string or null, got 5"),
        ({"label_rules": [{"default": ["x"]}]},
         "label rule key 'default' must be a string or null, got ['x']"),
        ({"label_rules": [{"if": {"kind": "amb"}, "lable": "1"}]}, "unknown label rule key 'lable'"),
        ({"label_rules": ({"read": "job"},)}, "mock config key 'label_rules' must be a list"),
        ({"stratum_key": None}, "mock config key 'stratum_key' must be a string, got None"),
        ({"default_stratum": 0}, "mock config key 'default_stratum' must be a string or null"),
        ({"bogus": 1}, "unknown mock config key 'bogus'"),
    ],
    ids=["label-number", "default-list", "rule-key-typo", "rules-tuple", "stratum-key-null",
         "default-stratum-number", "section-key-typo"],
)
def test_every_path_to_a_mock_reads_one_section_table(section, message):
    """A task made in code checks its mock section as a task file does, and
    the mock checks the label rules it is given against the same table."""
    with pytest.raises(ValueError, match=re.escape(message)):
        builtin_task("bios", mock=section)
    rules = section.get("label_rules")
    if isinstance(rules, list):
        with pytest.raises(ValueError, match=re.escape(message)):
            mock(label_rules=rules)


def test_mock_requires_contexts():
    with pytest.raises(ValueError, match="at least one"):
        MockStructuredLm(contexts=())


# --- one pass against the per-step oracle ------------------------------------


def _has(st, key):
    return any(k == key for k, _ in st.pairs)


def _without(st, key):
    """Drop every token with the given key."""
    return StructuredText(tuple((k, v) for k, v in st.pairs if k != key), st.tail)


def _with_front(st, key, value):
    """Insert a token at the canonical front position."""
    return StructuredText(((key, value),) + st.pairs, st.tail)


def _render(st):
    """The text of a parsed structured text: its pairs, then its tail."""
    return render_tokens([f"{k}={v}" for k, v in st.pairs], st.tail)


def _replace_value(st, key, value):
    """Rewrite the value of the first token with the given key."""
    keys = [k for k, _ in st.pairs]
    i = keys.index(key)
    return StructuredText(st.pairs[:i] + ((key, value),) + st.pairs[i + 1:], st.tail)


class StepwiseMock(MockStructuredLm):
    """The roles as written before the one-pass rewrite, kept as the oracle: a
    parsed ``StructuredText`` per step, and one pattern per context value."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self._context_res = tuple(
            (z, re.compile(rf"(?<![A-Za-z0-9_]){re.escape(z)}(?![A-Za-z0-9_])"))
            for z in sorted(self._contexts, key=len, reverse=True)
        )

    def _vary_pad(self, st, request):
        if request.temperature > 0 and request.seed is not None and _has(st, PAD_KEY):
            return _replace_value(st, PAD_KEY, f"r{request.seed % 97}"), True
        return st, False

    def _instruction_context(self, text, *, last=False):
        line = text.split("\n", 1)[0]
        best = None
        for value, pattern in self._context_res:
            for m in pattern.finditer(line):
                better = best is None or (
                    m.start() > best[0] if last else m.start() < best[0]
                )
                if better:
                    best = (m.start(), value)
        if best is None:
            raise ServiceError(
                f"mock found no context value among {list(self._contexts)} "
                "in the rewrite instruction"
            )
        return best[1]

    def _obfuscate(self, text, request):
        payload = self._payload(text, upto_options=False)
        st = parse_structured(payload)
        changed = _has(st, CTX_KEY)
        if changed:
            st = _without(st, CTX_KEY)
        st, varied = self._vary_pad(st, request)
        if not (changed or varied):
            return payload
        return _render(st)

    def _add(self, text, request, *, last_context=False):
        z_plus = self._instruction_context(text, last=last_context)
        payload = self._payload(text, upto_options=False)
        st = parse_structured(payload)
        if _has(st, CTX_KEY):
            st = _without(st, CTX_KEY)
        st = _with_front(st, CTX_KEY, z_plus)
        st, _varied = self._vary_pad(st, request)
        return _render(st)

    def _stratum(self, text):
        payload = self._payload(text, upto_options=True)
        st = parse_structured(payload)
        value = st.get(self._stratum_key, self._default_stratum)
        return value if value is not None else "unknown"

    def _label(self, text):
        payload = self._payload(text, upto_options=True)
        st = parse_structured(payload)
        for rule in self._rules:
            if rule.matches(st):
                return rule.answer(st)
        return "unknown"


_CONTEXT_SETS = (
    ("male", "female"),
    ("a b", "b"),  # one value inside another
    ("unknown or undisclosed", "unknown"),  # one value a prefix of another
    ("employed", "unemployed", "unknown or undisclosed", "removed"),
    ("20:30", "60:100"),
    ("unknown", "removed"),
)
_RULES = (
    {"if": {"ctx": "a", "kind": "amb"}, "label": "1"},
    {"if": {"kind": "amb"}, "label": "0"},
    {"read": "topic", "map": {"0": "no", "1": "yes"}, "default": "dunno"},
    {"read": "u1"},
)


def _payloads(contexts):
    token = st.tuples(
        st.sampled_from(["ctx", "pad", "s", "kind", "topic"]),
        st.sampled_from(["a", "b", "0", "1", "amb", "", "k=v", *contexts]),
    ).map("=".join)
    # Mostly single spaces, so that a head of several tokens is common.
    gap = st.sampled_from([" "] * 6 + ["  ", "\n ", " \n", "\t", "\n"])
    tail = st.sampled_from(
        ["", "tail", " spaced  tail ", "k=v late", "\n", "\u00e9t\u00e9 note"]
    ) | st.text(max_size=6)
    return st.tuples(st.lists(st.tuples(token, gap), max_size=8), tail).map(
        lambda parts: "".join(t + g for t, g in parts[0]) + parts[1]
    )


def _instruction(contexts):
    word = st.sampled_from(["Set", "the", "to", " ", ",", ".", "-", "_", "x", ";"])
    return st.lists(st.sampled_from(contexts) | word, max_size=10).map("".join)


_ROLES = {
    "obfuscate": f"{OBFUSCATE_MARKER}. {{line}}\n{TEXT_SECTION}{{payload}}",
    "add": f"{ADD_MARKER}. {{line}}\n\n{TEXT_SECTION}{{payload}}",
    "rewrite": f"{REWRITE_MARKER}. {{line}}\n{TEXT_SECTION}{{payload}}",
    "label": f"Classify.\n\n{TEXT_SECTION}{{payload}}\n\n{LABEL_MARKER} 0, 1.",
    "stratum": (
        f"{STRATIFIER_MARKER}. {{line}}\n\n{TEXT_SECTION}{{payload}}"
        f"\n\n{LABEL_MARKER} a, b."
    ),
}


def _answer(client, request):
    try:
        return client.complete(request)
    except ServiceError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("role", list(_ROLES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_pass_roles_answer_as_the_stepwise_oracle(role, data):
    contexts = data.draw(st.sampled_from(_CONTEXT_SETS))
    text = _ROLES[role].format(
        line=data.draw(_instruction(contexts)), payload=data.draw(_payloads(contexts))
    )
    request = turn(
        text,
        temperature=data.draw(st.sampled_from([0.0, 0.7])),
        seed=data.draw(st.none() | st.integers(0, 2**31 - 1)),
    )
    kw = dict(
        contexts=contexts,
        label_rules=_RULES,
        stratum_key=data.draw(st.sampled_from(["s", "kind"])),
        default_stratum=data.draw(st.sampled_from([None, "dflt"])),
    )
    assert _answer(mock(**kw), request) == _answer(StepwiseMock(**kw), request)


_DRAWN_ALPHABET = "ab -:_\u00e9"


@pytest.mark.parametrize(
    "marker", [ADD_MARKER, REWRITE_MARKER], ids=["add", "rewrite"]
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_context_mention_is_the_oracle_s_for_any_accepted_values(marker, data):
    # Add takes the first mention and rewrite the last; a set of values the
    # mock accepts gets the oracle's answer in both.
    value = st.text(alphabet=_DRAWN_ALPHABET, min_size=1, max_size=5)
    contexts = data.draw(st.lists(value, min_size=1, max_size=3, unique=True))
    try:
        client = mock(contexts=contexts)
    except ValueError:
        assume(False)
    # Loose characters between the values let mentions overlap.
    piece = st.sampled_from(contexts) | st.text(alphabet=_DRAWN_ALPHABET, max_size=2)
    line = data.draw(st.lists(piece, max_size=10).map("".join))
    request = turn(f"{marker}: {line}\n{TEXT_SECTION}ctx=a pad=0 tail")
    assert _answer(client, request) == _answer(
        StepwiseMock(contexts=contexts), request
    )


def _last_mention(client, line):
    try:
        return client._instruction_context(line, last=True)
    except ServiceError:
        return None


def test_accepted_values_give_the_oracle_s_last_mention_on_every_short_line():
    # Every set of one or two values of up to four characters from "a-" (a
    # word character and one that is not), on every line of up to seven: where
    # the mock accepts the values, its last mention is the oracle's.
    values = ["".join(p) for n in range(1, 5) for p in product("a-", repeat=n)]
    lines = ["".join(p) for n in range(8) for p in product("a-", repeat=n)]
    accepted = 0
    for contexts in [(v,) for v in values] + list(combinations(values, 2)):
        try:
            client = mock(contexts=contexts)
        except ValueError:
            continue
        accepted += 1
        oracle = StepwiseMock(contexts=contexts)
        for line in lines:
            want = _last_mention(oracle, line)
            assert _last_mention(client, line) == want, (contexts, line)
    assert accepted > 100


def test_a_context_value_that_overlaps_itself_is_refused():
    # In "x a--a--a ." two standalone mentions of "a--a" overlap, and the
    # oracle's loop, which finds each value's mentions without overlap,
    # answers "a-" where the mention that starts last is "a--a".
    with pytest.raises(ValueError, match="'a--a' can overlap its own mention"):
        mock(contexts=("a--a", "a-"))
    with pytest.raises(ValueError, match="overlap"):
        mock(contexts=("male", "a a"))
    # A shared border that a word character touches cannot end one
    # standalone mention and start the next.
    for value in ("aa", "abab", "a-ba", "z0"):
        assert mock(contexts=(value,)).complete(
            add_request(f"use {value}", "t")
        ) == f"ctx={value} t"
