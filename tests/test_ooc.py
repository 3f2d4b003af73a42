"""Prompt rendering, answer parsing, and the replicate pipeline on the mock."""

import json
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests_support

from stratinv.chat import ChatClient
from stratinv.errors import (
    OocFailed,
    ServiceError,
    TemplateError,
    UnparsableAnswer,
)
from stratinv.mock import MockStructuredLm
from stratinv import ooc
from stratinv.ooc import (
    ADD_PROMPTS,
    ADD_TEMPLATE,
    LABEL_TEMPLATE,
    OBFUSCATE_PROMPTS,
    OBFUSCATE_TEMPLATE,
    PROXY_CAVEAT,
    REWRITE_PROMPTS,
    REWRITE_TEMPLATE,
    SAFETY_PROMPTS,
    STRATIFIER_TEMPLATE,
    TaskConfig,
    _choose,
    _draw_instruction,
    _normalize_options,
    builtin_task,
    builtin_task_names,
    load_task,
    ooc_predict,
    ooc_predict_many,
    predict_label,
    render_template,
    render_transform_prompt,
    task_from_dict,
)

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def toy_task(**kw):
    kw.setdefault("name", "toy")
    kw.setdefault("contexts", ("male", "female"))
    kw.setdefault("z_description", "The channel marker token at the front of the note")
    kw.setdefault("s_description", "A synthetic note")
    kw.setdefault("labels", ("0", "1"))
    kw.setdefault("standard_prompt", "Classify the topic bit of the note.")
    kw.setdefault("transform_temperature", 0.0)
    kw.setdefault("mock", {"label_rules": [{"read": "topic"}]})
    return TaskConfig(**kw)


# --- rendering ---------------------------------------------------------------


def test_obfuscate_prompt_matches_golden_bytes():
    x = (
        "He completed his residency at a teaching hospital and now leads the "
        "cardiac surgery unit."
    )
    rendered = render_transform_prompt(
        OBFUSCATE_TEMPLATE, OBFUSCATE_PROMPTS[0], builtin_task("bios"), x,
        stratum="surgeon",
    )
    assert rendered == (GOLDEN / "obfuscate_bios.txt").read_text(encoding="utf-8")


def test_add_prompt_matches_golden_bytes():
    x = (
        "This person completed a residency at a teaching hospital and now "
        "leads the cardiac surgery unit."
    )
    rendered = render_transform_prompt(
        ADD_TEMPLATE, ADD_PROMPTS[0], builtin_task("bios"), x,
        stratum="surgeon", z_plus="female",
    )
    assert rendered == (GOLDEN / "add_bios.txt").read_text(encoding="utf-8")


def test_stratified_render_requires_stratum():
    with pytest.raises(TemplateError, match="S_lm"):
        render_transform_prompt(
            OBFUSCATE_TEMPLATE, OBFUSCATE_PROMPTS[0], builtin_task("bios"), "x"
        )


def test_add_render_requires_context_value():
    with pytest.raises(TemplateError, match="random_Z"):
        render_transform_prompt(
            ADD_TEMPLATE, ADD_PROMPTS[0], builtin_task("amazon"), "x"
        )


def test_unknown_braces_survive_and_values_are_literal():
    assert render_template("{weird} {X}", {"X": "ok"}) == "{weird} ok"
    # a value containing a known placeholder is never re-scanned
    assert render_template("A {X} B", {"X": "{S_lm}"}) == "A {S_lm} B"
    with pytest.raises(TemplateError, match="unresolved"):
        render_template("{X}", {})


# --- prompt frames against render_template ------------------------------------


def _oracle_transform_prompt(body, instruction, cfg, x, stratum=None, z_plus=None):
    """One request rendered as three ``render_template`` calls, frame-free."""
    values = {"Z_description": cfg.z_description, "Z_list": ", ".join(cfg.contexts)}
    if z_plus is not None:
        values["random_Z"] = str(z_plus)
    if stratum is not None:
        values["S_lm"] = str(stratum)
    rendered_instruction = render_template(instruction, values)
    secret = render_template(cfg.s_description, values)
    values.update({"prompt": rendered_instruction, "S_description": secret, "X": x})
    return render_template(body, values)


def _outcome(render, *args):
    """The rendered text, or the error's type and message."""
    try:
        return render(*args)
    except TemplateError as exc:
        return type(exc), str(exc)


_FRAME_TASKS = (
    *(builtin_task(name) for name in builtin_task_names()),
    builtin_task("bios", safety_prompt="precog"),
    builtin_task("clinical", safety_prompt="ignore"),
    load_task(CONFIGS / "demo_task.json"),
    toy_task(
        z_description="the {X} marker, {S_lm} and {weird} braces",
        s_description="A {S_lm} note with {weird} braces",
        strata=("s{X}", "\u00e9t\u00e9"),
    ),
    toy_task(s_description="A note about {prompt}", strata=("a",)),
)
_BODY_NAMES = {
    OBFUSCATE_TEMPLATE: "obfuscate", ADD_TEMPLATE: "add", REWRITE_TEMPLATE: "rewrite",
}
_POOLED = (
    (OBFUSCATE_TEMPLATE, OBFUSCATE_PROMPTS, False),
    (ADD_TEMPLATE, ADD_PROMPTS, True),
    (REWRITE_TEMPLATE, REWRITE_PROMPTS, True),
)
_POOL_INSTRUCTIONS = [
    (body, instruction, writes)
    for body, pool, writes in _POOLED
    for instruction in pool
]
_INSTRUCTIONS = _POOL_INSTRUCTIONS + [
    (body, instruction, writes)
    for body, _pool, writes in _POOLED
    for instruction in (
        "Drop {X} from {Z_list}", "Mind {weird} {Z_description} and {{S_lm}}",
        "Set it to {random_Z}\nfor a {S_lm}", "Use {alternatives}", "{prompt}",
    )
]
_TEXT = st.lists(
    st.sampled_from([
        "{X}", "{S_lm}", "{prompt}", "{random_Z}", "{weird}", "{", "}", "{{X}}",
        "\n", "\n\n", "## Text\n> ", "\u00e9", "\u65e5\u672c", " ", "ctx=a",
    ]) | st.text(max_size=4),
    max_size=8,
).map("".join)


def _ids(cases):
    return [f"{_BODY_NAMES[body]}-{k}" for k, (body, *_rest) in enumerate(cases)]


@pytest.mark.parametrize(
    "body, instruction, writes_context", _INSTRUCTIONS, ids=_ids(_INSTRUCTIONS)
)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), x=_TEXT)
def test_a_filled_frame_is_the_render_template_bytes(
    body, instruction, writes_context, data, x
):
    cfg = data.draw(st.sampled_from(_FRAME_TASKS))
    stratum = data.draw(st.none() | st.sampled_from(cfg.strata or ("a",)) | _TEXT)
    z_plus = None
    if writes_context:
        z_plus = data.draw(st.none() | st.sampled_from(cfg.contexts) | _TEXT)
    want = _outcome(
        _oracle_transform_prompt, body, instruction, cfg, x, stratum, z_plus
    )
    assert _outcome(
        render_transform_prompt, body, instruction, cfg, x, stratum, z_plus
    ) == want
    key = (instruction, None if stratum is None else str(stratum), z_plus)
    assert _outcome(
        lambda: x.join(ooc._transform_frame(cfg, body, *key))
    ) == want


@pytest.mark.parametrize(
    "body, instruction, _writes", _POOL_INSTRUCTIONS, ids=_ids(_POOL_INSTRUCTIONS)
)
def test_a_stratified_frame_without_its_stratum_fails_as_render_template_does(
    body, instruction, _writes
):
    cfg = builtin_task("bios")
    want = _outcome(
        _oracle_transform_prompt, body, instruction, cfg, "x", None, "male"
    )
    assert want == (TemplateError, "unresolved placeholder {S_lm}")
    assert _outcome(
        render_transform_prompt, body, instruction, cfg, "x", None, "male"
    ) == want
    assert _outcome(
        lambda: "x".join(ooc._transform_frame(cfg, body, instruction, None, "male"))
    ) == want


@settings(max_examples=200, deadline=None)
@given(data=st.data(), x=_TEXT)
def test_a_filled_question_is_the_render_template_bytes(data, x):
    cfg = data.draw(st.sampled_from(_FRAME_TASKS))
    label = ooc._label_question(cfg)
    assert x.join(label.frame) == render_template(LABEL_TEMPLATE, {
        "prompt": cfg.effective_prompt(), "X": x,
        "alternatives": ", ".join(cfg.labels),
    })
    assert label.options == cfg.labels
    if cfg.strata:
        stratifier = ooc._stratifier_question(cfg)
        assert x.join(stratifier.frame) == render_template(STRATIFIER_TEMPLATE, {
            "prompt": cfg.stratifier_question, "X": x,
            "alternatives": ", ".join(cfg.strata),
        })
    else:
        with pytest.raises(TemplateError, match="declares no stratum values"):
            ooc._stratifier_question(cfg)


def test_prompt_pool_uniform_draws():
    pool = ("p0", "p1", "p2")
    cfg = toy_task()
    rng = np.random.default_rng(0)
    n = 10_000
    counts = {p: 0 for p in pool}
    for _ in range(n):
        instruction, seed = _draw_instruction(cfg, pool, rng)
        counts[instruction] += 1
        assert seed is None  # no request seed at temperature 0
    sigma = (2 / 9 / n) ** 0.5
    for c in counts.values():
        assert abs(c / n - 1 / 3) <= 3 * sigma


# --- answer parsing ----------------------------------------------------------


def parse_choice(answer, options):
    """The predict stages' parser, on options normalized as a stage does."""
    return _choose(answer, _normalize_options(options))


def test_parse_choice():
    options = ("toxic", "non-toxic")
    assert parse_choice("Toxic.", options) == "toxic"
    # exact normalized equality wins before any substring scan
    assert parse_choice("non-toxic", options) == "non-toxic"
    assert parse_choice("NON TOXIC", options) == "non-toxic"
    assert parse_choice("I think it is toxic", options) == "toxic"
    assert parse_choice("looks non toxic to me", ("non-toxic", "toxic")) == "non-toxic"
    # a mention inside a longer option's mention is not a second match
    assert parse_choice("the answer is non-toxic", options) == "non-toxic"
    assert parse_choice("The comment is non-toxic.", options) == "non-toxic"
    # answers naming two options are ambiguous; bare answers never match
    assert parse_choice("toxic, not non-toxic", options) is None
    assert parse_choice("I would say no, not yes", ("yes", "no")) is None
    assert parse_choice("no idea", options) is None
    # typographic quotes are punctuation, as ASCII ones are
    assert parse_choice("\u201ctoxic\u201d", options) == "toxic"
    assert parse_choice("\u2018toxic\u2019", options) == "toxic"
    assert parse_choice("toxic\u2019", options) == "toxic"


def test_a_negated_option_does_not_parse():
    assert parse_choice("Not toxic.", ("toxic", "non-toxic")) is None
    assert parse_choice("I would not say yes", ("yes", "no")) is None
    assert parse_choice("It is not positive.", ("positive", "negative")) is None
    assert parse_choice("It isn't toxic", ("toxic", "non-toxic")) is None
    # an n't contraction written with a typographic apostrophe negates too
    assert parse_choice("It isn\u2019t toxic.", ("toxic", "non-toxic")) is None
    assert parse_choice("I don\u2019t think it is toxic", ("toxic", "non-toxic")) is None
    assert parse_choice("No, surgeon", ("nurse", "surgeon")) is None
    # a negator after the mention, or inside an option, does not count
    assert parse_choice("Toxic, no doubt", ("toxic", "non-toxic")) == "toxic"
    assert parse_choice("It is not toxic", ("not toxic", "toxic")) == "not toxic"
    # "no" is no negator where it is an option, and an exact match wins first
    assert parse_choice("No.", ("yes", "no")) == "no"
    assert parse_choice("I would say no", ("yes", "no")) == "no"


def test_a_negated_reminder_answer_is_unparsable():
    client = ScriptedClient(["Not a nurse.", "not a surgeon"])
    with pytest.raises(UnparsableAnswer, match="could not parse 'not a surgeon'"):
        predict_label(builtin_task("bios"), client, "text")
    assert len(client.requests) == 2


class ScriptedClient(ChatClient):
    def __init__(self, answers):
        self.answers = list(answers)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.answers.pop(0)


def test_predict_label_first_try():
    client = ScriptedClient(["It is a surgeon"])
    assert predict_label(builtin_task("bios"), client, "text") == "surgeon"
    assert len(client.requests) == 1


def test_predict_label_retries_with_reminder():
    client = ScriptedClient(["I would rather not say.", "surgeon"])
    assert predict_label(builtin_task("bios"), client, "text") == "surgeon"
    assert len(client.requests) == 2
    roles = [r for r, _c in client.requests[1].messages]
    assert roles == ["user", "assistant", "user"]
    assert client.requests[1].messages[1][1] == "I would rather not say."
    assert "nurse, surgeon" in client.requests[1].messages[2][1]


def test_predict_label_gives_up():
    client = ScriptedClient(["??", "???"])
    with pytest.raises(UnparsableAnswer, match="could not parse"):
        predict_label(builtin_task("bios"), client, "text")


# --- transforms against the mock --------------------------------------------


def test_mock_round_trip_is_byte_exact_at_zero_temperature():
    cfg = toy_task(m=4)
    client = MockStructuredLm.for_task(cfg)
    x = "ctx=male topic=1 pad=0 routine note"
    out = ooc_predict(cfg, client, x, rng=np.random.default_rng(3))
    for r in out.replicates:
        assert r.x_minus == "topic=1 pad=0 routine note"
        assert r.x_plus == x.replace("ctx=male", f"ctx={r.z_plus}")
    # the round trip back to the original context restores x byte for byte
    assert any(r.z_plus == "male" and r.x_plus == x for r in out.replicates)


def test_pad_varies_only_at_positive_temperature():
    x = "ctx=male topic=1 pad=0 routine note"
    cold = ooc_predict(
        toy_task(m=1), MockStructuredLm.for_task(toy_task()), x,
        rng=np.random.default_rng(1),
    ).replicates[0]
    assert "pad=0" in cold.x_minus
    hot_cfg = toy_task(m=1, transform_temperature=0.7)
    client = MockStructuredLm.for_task(hot_cfg)
    hot = ooc_predict(hot_cfg, client, x, rng=np.random.default_rng(1)).replicates[0]
    again = ooc_predict(hot_cfg, client, x, rng=np.random.default_rng(1)).replicates[0]
    assert "pad=0" not in hot.x_minus and " pad=r" in f" {hot.x_minus}"
    assert hot.x_minus == again.x_minus


# --- the replicate pipeline --------------------------------------------------


def test_ooc_predict_pipeline_and_replay():
    cfg = toy_task(m=3)
    client = MockStructuredLm.for_task(cfg)
    x = "ctx=male topic=1 pad=0 routine note"
    out = ooc_predict(cfg, client, x, rng=np.random.default_rng(5))
    assert out.label == "1"
    assert out.stratum is None and out.stratum_source == "none"
    assert out.failures == 0 and out.notes == ()
    assert [r.j for r in out.replicates] == [0, 1, 2]
    for r in out.replicates:
        assert r.obfuscate_instruction in OBFUSCATE_PROMPTS
        assert r.add_instruction in ADD_PROMPTS
        assert r.z_plus in cfg.contexts
        assert "ctx=" not in r.x_minus
        assert r.x_plus.startswith(f"ctx={r.z_plus} ")
        assert r.label == "1"
    again = ooc_predict(cfg, client, x, rng=np.random.default_rng(5))
    assert again == out


class FlakyClient(ChatClient):
    def __init__(self, inner, fail_calls):
        self.inner = inner
        self.fail_calls = set(fail_calls)
        self.n = 0

    def complete(self, request):
        self.n += 1
        if self.n in self.fail_calls:
            raise ServiceError("scripted outage")
        return self.inner.complete(request)


def test_ooc_predict_drops_failed_replicates():
    # seeded replicates send distinct requests, so each stage batch holds
    # one call per replicate: obfuscate is calls 1-3, add 4-6, label 7-9,
    # and killing call 5 loses replicate 1 only
    cfg = toy_task(m=3, transform_temperature=0.7)
    client = FlakyClient(MockStructuredLm.for_task(cfg), {5})
    out = ooc_predict(
        cfg, client, "ctx=male topic=0 pad=0", rng=np.random.default_rng(0)
    )
    assert out.failures == 1
    assert [r.j for r in out.replicates] == [0, 2]
    assert out.label == "0"


def test_ooc_predict_all_failures():
    cfg = toy_task(m=2)
    client = FlakyClient(MockStructuredLm.for_task(cfg), range(1, 100))
    with pytest.raises(OocFailed, match="all 2 replicates failed"):
        ooc_predict(cfg, client, "ctx=male topic=0", rng=np.random.default_rng(0))


def stratified_task(**kw):
    kw.setdefault("s_description", "A synthetic note of kind {S_lm}")
    kw.setdefault("strata", ("amb", "clear"))
    kw.setdefault(
        "mock", {"label_rules": [{"read": "topic"}], "stratum_key": "kind"}
    )
    return toy_task(**kw)


def test_ooc_predict_stratum_sources():
    cfg = stratified_task(m=1)
    client = MockStructuredLm.for_task(cfg)
    x = "ctx=male kind=amb topic=1 pad=0"
    given = ooc_predict(cfg, client, x, s="clear", rng=np.random.default_rng(1))
    assert given.stratum == "clear" and given.stratum_source == "given"
    assert given.notes == ()
    predicted = ooc_predict(cfg, client, x, rng=np.random.default_rng(1))
    assert predicted.stratum == "amb" and predicted.stratum_source == "predicted"
    assert PROXY_CAVEAT in predicted.notes


def test_predict_stratifier_paths():
    cfg = stratified_task()
    client = MockStructuredLm.for_task(cfg)
    rng = np.random.default_rng(0)
    assert ooc_predict(cfg, client, "kind=clear topic=0", rng=rng).stratum == "clear"
    assert ooc_predict(toy_task(), client, "topic=0", rng=rng).stratum is None
    missing = stratified_task(strata=())
    with pytest.raises(TemplateError, match="no stratum values"):
        ooc_predict(missing, client, "kind=clear", rng=np.random.default_rng(0))


def test_single_call_variant():
    cfg = toy_task(m=2)
    client = MockStructuredLm.for_task(cfg)
    out = ooc_predict(
        cfg, client, "ctx=male topic=1 pad=0", rng=np.random.default_rng(2),
        single_call=True,
    )
    assert out.label == "1"
    for r in out.replicates:
        assert r.obfuscate_instruction == r.add_instruction == REWRITE_PROMPTS[0]
        assert r.x_minus == r.x_plus
        assert r.x_plus.startswith(f"ctx={r.z_plus} ")


# --- task catalog and serialization ------------------------------------------


def test_builtin_catalog():
    names = builtin_task_names()
    assert len(names) == 9
    assert names == tuple(sorted(names))
    bios = builtin_task("bios")
    assert bios.contexts == ("male", "female")
    assert bios.labels == ("nurse", "surgeon")
    assert bios.requires_stratum and bios.strata == ("nurse", "surgeon")
    assert not builtin_task("amazon").requires_stratum
    assert builtin_task("discrimination_age").contexts == ("20:30", "60:100")
    assert builtin_task("toxic_race").contexts == ("black", "white", "unknown")
    assert "unknown or undisclosed" in builtin_task("clinical").contexts
    assert builtin_task("bios", m=7).m == 7
    with pytest.raises(ValueError, match="unknown task"):
        builtin_task("nope")


def demo_task_doc():
    return json.loads((CONFIGS / "demo_task.json").read_text(encoding="utf-8"))


def test_task_round_trip(tmp_path):
    doc = {**demo_task_doc(), "m": 5, "safety_prompt": "unbiased"}
    cfg = task_from_dict(doc)
    assert len(doc) == len(vars(cfg)) == 15  # every field, each under one key
    assert cfg.contexts == ("unknown", "removed")
    assert cfg.z_description == doc["Z_description"]
    assert cfg.s_description == doc["S_description"]
    assert (cfg.m, cfg.safety_prompt) == (5, "unbiased")
    path = tmp_path / "task.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert vars(load_task(path)) == vars(cfg)
    with pytest.raises(ValueError, match="bogus"):
        task_from_dict({**doc, "bogus": 1})


# A fault inside the mock section names the section's key or the rule's.
_MOCK_SECTION_FAULTS = {
    '{"label_rules": 5}': "mock config key 'label_rules' must be a list, got 5",
    '{"label_rules": [5]}': "expected a JSON object of label rule keys, got 5",
    '{"label_rules": [{"if": 5}]}': "label rule key 'if' must be an object of strings, got 5",
    '{"label_rules": [{"read": "topic", "map": ["a"]}]}':
        "label rule key 'map' must be an object of strings, got ['a']",
}


@pytest.mark.parametrize(
    "key, value",
    [
        ("labels", "yes"),
        ("sampled_contexts", "male"),
        ("m", "3"),
        ("m", True),
        ("m", 2.0),
        ("max_in_flight", "4"),
        ("transform_temperature", "0.7"),
        ("predict_temperature", False),
        ("predict_temperature", None),
        ("mock", [1]),
        ("mock", "rows"),
        ("mock", {"label_rules": 5}),
        ("mock", {"label_rules": [5]}),
        ("mock", {"label_rules": [{"if": 5}]}),
        ("mock", {"label_rules": [{"read": "topic", "map": ["a"]}]}),
        ("name", 5),
        ("Z_description", 5),
        ("S_description", ["a"]),
        ("standard_prompt", 5),
        ("stratifier_question", None),
        ("model", 5),
        ("safety_prompt", 5),
        ("safety_prompt", True),
    ],
)
def test_task_rejects_a_field_of_the_wrong_type(key, value):
    doc = {**demo_task_doc(), key: value}
    message = _MOCK_SECTION_FAULTS.get(json.dumps(value), f"task config key '{key}' must be")
    with pytest.raises(ValueError, match=re.escape(message)):
        task_from_dict(doc)


def test_safety_prompt_placement():
    appended = builtin_task("discrimination_race", safety_prompt="unbiased")
    text, _ = SAFETY_PROMPTS["unbiased"]
    assert appended.effective_prompt() == f"{appended.standard_prompt} {text}"
    prepended = builtin_task("discrimination_race", safety_prompt="really4x")
    text4, _ = SAFETY_PROMPTS["really4x"]
    assert prepended.effective_prompt() == f"{text4} {prepended.standard_prompt}"
    with pytest.raises(ValueError, match="unknown safety prompt"):
        builtin_task("discrimination_race", safety_prompt="zen")


# --- staged dispatch ---------------------------------------------------------


class BatchLog(ChatClient):
    """Forwards to ``inner`` and keeps every batch it was handed."""

    def __init__(self, inner, fail=lambda request: False):
        self.inner = inner
        self.fail = fail
        self.batches = []

    def complete(self, request):
        if self.fail(request):
            raise ServiceError("scripted outage")
        return self.inner.complete(request)

    def complete_many(self, requests):
        self.batches.append(list(requests))
        return super().complete_many(requests)


def test_duplicate_requests_in_a_stage_reach_the_client_once():
    cfg = toy_task(m=3)  # zero temperature: replicates repeat requests
    client = BatchLog(MockStructuredLm.for_task(cfg))
    x = "ctx=male topic=1 pad=0 routine note"
    inputs = [(x, None, np.random.default_rng(0)), (x, None, np.random.default_rng(0))]
    outcomes = ooc_predict_many(cfg, client, inputs, standard=True)
    for batch in client.batches:
        assert len(batch) == len(set(batch))
    # 20 logical calls: standard, then obfuscate/add/label per stage; the
    # inputs repeat each other and replicates 1 and 2 repeat each other
    assert [len(b) for b in client.batches] == [1, 2, 2, 2]
    (std_a, res_a), (std_b, res_b) = outcomes
    assert std_a == std_b == "1"
    assert res_a == res_b == ooc_predict(cfg, MockStructuredLm.for_task(cfg), x,
                                         rng=np.random.default_rng(0))


def test_batch_matches_one_input_at_a_time():
    cfg = stratified_task(m=3, transform_temperature=0.7)
    mock = MockStructuredLm.for_task(cfg)
    texts = [f"ctx={z} kind={k} topic={t} pad=0 n{i}"
             for i, (z, k, t) in enumerate([("male", "amb", 1), ("female", "clear", 0),
                                           ("male", "clear", 1), ("female", "amb", 0)])]
    strata = ["amb", None, "clear", None]
    batch = ooc_predict_many(
        cfg, mock,
        [(x, s, np.random.default_rng([4, i])) for i, (x, s) in enumerate(zip(texts, strata))],
        standard=True,
    )
    for i, (x, s) in enumerate(zip(texts, strata)):
        assert batch[i][0] == predict_label(cfg, mock, x)
        assert batch[i][1] == ooc_predict(cfg, mock, x, s=s, rng=np.random.default_rng([4, i]))


def test_failed_replicate_leaves_later_draws_unchanged():
    cfg = toy_task(m=3, transform_temperature=0.7)
    x = "ctx=male topic=1 pad=0 routine note"
    clean = BatchLog(MockStructuredLm.for_task(cfg))
    base = ooc_predict(cfg, clean, x, rng=np.random.default_rng(11))
    first_obfuscate = clean.batches[0][0]
    flaky = BatchLog(MockStructuredLm.for_task(cfg), lambda r: r == first_obfuscate)
    out = ooc_predict(cfg, flaky, x, rng=np.random.default_rng(11))
    assert out.failures == 1
    assert [r.j for r in out.replicates] == [1, 2]
    # same instruction, context and (through the seeded pad) seed as before
    assert out.replicates == base.replicates[1:]
    assert [r.seed for r in flaky.batches[2]] == [r.seed for r in clean.batches[2][1:]]


class ReminderOutage(ChatClient):
    """Answers ``target`` with text that names no option, fails its format
    reminder, and forwards every other request to ``inner``."""

    def __init__(self, inner, target):
        self.inner = inner
        self.target = target

    def complete(self, request):
        if request == self.target:
            return "I would rather not say."
        if len(request.messages) == 3 and request.messages[:1] == self.target.messages:
            raise ServiceError("scripted reminder outage")
        return self.inner.complete(request)


@pytest.mark.parametrize("stage", [0, 3], ids=["standard-label", "replicate-label"])
def test_a_reminder_that_fails_drops_its_label_with_the_service_error(stage):
    """Record 0's first label request (its standard label, or its one
    replicate's label) gets an unparsable answer, and the reminder a
    ServiceError: that label is dropped with the error, and every other
    output is as in a clean run."""
    cfg = toy_task(m=1, transform_temperature=0.7)

    def inputs():
        return [(f"ctx={z} topic={t} pad=0 note {i}", None, np.random.default_rng([7, i]))
                for i, (z, t) in enumerate([("male", 1), ("female", 0), ("male", 0)])]

    clean = BatchLog(MockStructuredLm.for_task(cfg))
    base = ooc_predict_many(cfg, clean, inputs(), standard=True)
    # a clean run's batches: standard labels, obfuscate, add, replicate labels
    assert len(clean.batches) == 4
    target = clean.batches[stage][0]
    client = BatchLog(ReminderOutage(MockStructuredLm.for_task(cfg), target))
    out = ooc_predict_many(cfg, client, inputs(), standard=True)
    reminders = [b for b in client.batches if len(b[0].messages) == 3]
    assert [len(b) for b in reminders] == [1]
    (std, result), rest = out[0], out[1:]
    if stage == 0:
        assert isinstance(std, ServiceError) and str(std) == "scripted reminder outage"
        assert result == base[0][1]
    else:
        assert std == base[0][0]
        assert isinstance(result, OocFailed)
        assert str(result) == "all 1 replicates failed; last error: scripted reminder outage"
        assert isinstance(result.__cause__, ServiceError)
    assert rest == base[1:]


def test_stratum_prediction_failure_fails_the_record_only():
    cfg = stratified_task(m=1)
    client = MockStructuredLm.for_task(cfg)
    outcomes = ooc_predict_many(
        cfg, client,
        [("ctx=male topic=1 pad=0", None, np.random.default_rng(0)),  # no kind
         ("ctx=male kind=amb topic=1 pad=0", None, np.random.default_rng(0))],
        standard=True,
    )
    (std0, res0), (std1, res1) = outcomes
    assert std0 == std1 == "1"
    assert isinstance(res0, OocFailed) and "stratum prediction failed" in str(res0)
    assert isinstance(res0.__cause__, UnparsableAnswer)
    assert res1.stratum == "amb" and res1.stratum_source == "predicted"
    with pytest.raises(OocFailed, match="stratum prediction failed"):
        ooc_predict(cfg, client, "ctx=male topic=1", rng=np.random.default_rng(0))


def test_single_call_plan_order():
    # single-call draws the context first, then the instruction and seed
    cfg = toy_task(m=1, transform_temperature=0.7)
    client = BatchLog(MockStructuredLm.for_task(cfg))
    out = ooc_predict(cfg, client, "ctx=male topic=1", rng=np.random.default_rng(3),
                      single_call=True)
    rng = np.random.default_rng(3)
    z_plus = cfg.contexts[int(rng.integers(2))]
    rng.integers(1)
    seed = int(rng.integers(1 << 31))
    assert out.replicates[0].z_plus == z_plus
    assert client.batches[0][0].seed == seed  # stage 1 is empty here


# --- answer parsing properties -----------------------------------------------

_WORDS = st.text(alphabet="abcdefgh", min_size=2, max_size=6)
_FILLER = st.lists(st.sampled_from(["so", "well", "i", "think", "the", "it", "is"]),
                   max_size=4)


@st.composite
def nested_options(draw):
    """Options where one is a word-prefix or suffix of another, plus others."""
    base = draw(_WORDS)
    extra = draw(st.lists(_WORDS, min_size=1, max_size=2))
    longer = " ".join([base, "or", *extra]) if draw(st.booleans()) else " ".join([*extra, base])
    others = draw(st.lists(_WORDS, max_size=2))
    options = list(dict.fromkeys([base, longer, *others]))
    return draw(st.permutations(options))


@given(options=nested_options(), before=_FILLER, after=_FILLER, data=st.data())
def test_parse_choice_one_mention_never_flips(options, before, after, data):
    choice = data.draw(st.sampled_from(options))
    tokens = set(" ".join(options).split())
    if tokens & set(before + after):
        return
    answer = " ".join(before + [choice.upper() if data.draw(st.booleans()) else choice]
                      + after) + data.draw(st.sampled_from(["", ".", "!"]))
    assert parse_choice(answer, options) == choice


@given(options=nested_options(), data=st.data())
def test_parse_choice_two_mentions_are_ambiguous(options, data):
    a, b = data.draw(st.permutations(options))[:2]
    answer = f"{a}, not {b}"
    assert parse_choice(answer, options) is None


def _option_sets():
    tasks = [builtin_task(name) for name in builtin_task_names()]
    tasks.append(load_task(CONFIGS / "demo_task.json"))
    sets = {options for t in tasks for options in (t.labels, t.strata) if options}
    return sorted(sets) + [("positive", "negative"), ("not toxic", "toxic")]


_FILLER_WORDS = ("i", "would", "say", "it", "is", "the", "answer", "a", "really", "think")
_NEGATOR_WORDS = (
    "not", "never", "cannot", "isn't", "don't", "can't", "wouldn't",
    "isn\u2019t", "don\u2019t", "can\u2019t",
)


def _cased(draw, word):
    return draw(st.sampled_from([word, word.upper(), word.title()]))


def _joined(draw, words):
    joints = st.text(alphabet=string.punctuation + " ", min_size=1, max_size=3)
    out = _cased(draw, words[0])
    for word in words[1:]:
        out += draw(joints) + _cased(draw, word)
    return out + draw(st.sampled_from(["", ".", "!", "?"]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_an_answer_without_a_negator_parses_as_before(data):
    options = data.draw(st.sampled_from(_option_sets()))
    vocabulary = _FILLER_WORDS + tuple(
        w for opt in options for w in opt.replace("-", " ").split()
    ) + ("no", "yes", "non", "toxic")
    words = data.draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=6))
    answer = _joined(data.draw, words)
    normalized = _normalize_options(options)
    negators = {"not", "never", "cannot", "t"} | ({"no"} - set(options))
    if negators & set(ooc._normalize(answer)):
        return
    assert _choose(answer, normalized) == tests_support._choose(answer, normalized)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_negated_option_never_parses_to_itself(data):
    options = data.draw(st.sampled_from(_option_sets()))
    option = data.draw(st.sampled_from(options))
    negator = data.draw(st.sampled_from(
        _NEGATOR_WORDS + (() if "no" in options else ("no",))
    ))
    filler = data.draw(st.lists(st.sampled_from(_FILLER_WORDS), max_size=3))
    answer = _joined(data.draw, [negator, *filler, option])
    assert parse_choice(answer, options) != option
