"""Exact enumeration, recovery and conditional sampling on tiny hand models."""

import functools
import gc
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratinv import scm as scm_mod
from stratinv.augment import (
    AugmentedPredictor,
    augmented_kernel,
    exact_augmented_distribution,
)
from stratinv.errors import (
    AmbiguousContext,
    DomainMismatch,
    EnumerationTooLarge,
    InconsistentEvidence,
    ZeroMassStratum,
)
from stratinv.fixtures import ctx_reader, fixture_suite, random_fixture_scm
from stratinv.metrics import exact_prediction_law
from stratinv.scm import (
    AMBIGUOUS,
    ExactConditionalSampler,
    ExactRecoverer,
    FiniteDomain,
    World,
    dump_scm,
    enumerate_joint,
    load_scm,
    observed,
    potential,
    sample_world,
    sample_world_conditional,
    scm_from_tables,
    stratum_values,
)
from tests_support import blind as _blind, closure_twin, tabulate


def conditional_table(scm, x, s, z_plus):
    """Support and probabilities of X(z+) given the evidence (x, s): the
    pair's law in the model's ``WorldIndex.conditional_laws``."""
    index = scm.index
    c = index.recover(x, s)
    law = index.conditional_laws(scm.z_domain.values.index(z_plus))
    a, b = law.start[c], law.start[c + 1]
    return tuple(index.codes.inputs[i] for i in law.item[a:b].tolist()), law.prob[a:b]


def tiny_scm():
    """One binary factor driving z: joint masses 0.125/0.125/0.15/0.6."""
    return tabulate(
        (FiniteDomain("u1", (0, 1)),),
        FiniteDomain("z", ("za", "zb")),
        {(0,): 0.25, (1,): 0.75},
        ("u1",),
        {
            (0,): {"za": 0.5, "zb": 0.5},
            (1,): {"za": 0.2, "zb": 0.8},
        },
        lambda z, u: (f"ctx={z} u1={u[0]}", u[0], "all"),
        y_values=(0, 1),
        s_values=("all",),
    )


def test_enumerate_joint_masses():
    joint = {(w.u, w.z): m for w, m in enumerate_joint(tiny_scm())}
    assert joint[((0,), "za")] == pytest.approx(0.125)
    assert joint[((0,), "zb")] == pytest.approx(0.125)
    assert joint[((1,), "za")] == pytest.approx(0.15)
    assert joint[((1,), "zb")] == pytest.approx(0.6)
    assert sum(joint.values()) == pytest.approx(1.0)


def test_potential_vs_observed():
    scm = tiny_scm()
    w = World(u=(1,), z="za")
    assert observed(scm, w) == ("ctx=za u1=1", 1, "all")
    # intervening on z changes the rendered context but not the label
    assert potential(scm, w, "zb") == ("ctx=zb u1=1", 1, "all")


def test_domain_validation():
    with pytest.raises(DomainMismatch):
        FiniteDomain("d", ("a", "a"))
    with pytest.raises(DomainMismatch):
        FiniteDomain("d", ())
    scm = tiny_scm()
    with pytest.raises(DomainMismatch):
        potential(scm, World(u=(2,), z="za"), "za")


def test_bad_probability_row_rejected():
    with pytest.raises(DomainMismatch):
        tabulate(
            (FiniteDomain("u1", (0, 1)),),
            FiniteDomain("z", ("za", "zb")),
            {(0,): 0.6, (1,): 0.6},  # sums to 1.2
            (),
            {(): {"za": 0.5, "zb": 0.5}},
            lambda z, u: ("x", 0, None),
        )


@pytest.mark.parametrize("p_u, p_z, message", [
    ({(0,): 1.0}, {(0,): {"za": 0.5, "zb": 0.5}, (1,): {"za": 1.0, "zb": 0.0}},
     "p_u missing entries, e.g. (1,)"),
    ({(0,): 0.25, (1,): 0.75}, {(0,): {"za": 0.5, "zb": 0.5}},
     "p_z_given_parents missing row for (1,)"),
    ({(0,): 0.25, (1,): 0.75}, {(0,): {"za": 1.0}, (1,): {"za": 0.2, "zb": 0.8}},
     "p_z_given_parents row (0,) missing contexts {'zb'}"),
], ids=["p-u-entry", "p-z-row", "p-z-context"])
def test_a_missing_probability_is_refused_by_the_constructor(p_u, p_z, message):
    """A model file's nested arrays hold every entry, so only a model built
    in code can lack one."""
    with pytest.raises(DomainMismatch) as got:
        tabulate(
            (FiniteDomain("u1", (0, 1)),), FiniteDomain("z", ("za", "zb")), p_u, ("u1",), p_z,
            lambda z, u: ("x", 0, None),
        )
    assert str(got.value) == message


def test_sample_world_frequencies():
    scm = tiny_scm()
    rng = np.random.default_rng(3)
    n = 8000
    hits = sum(
        1 for _ in range(n)
        if (lambda w: w.u == (1,) and w.z == "zb")(sample_world(scm, rng))
    )
    # binomial(8000, 0.6): 3 sigma is about 0.016
    assert abs(hits / n - 0.6) < 0.02


def test_sample_world_conditional_respects_evidence():
    scm = tiny_scm()
    rng = np.random.default_rng(4)
    for _ in range(50):
        w = sample_world_conditional(scm, rng, stratum="all", z="za")
        assert w.z == "za"
    with pytest.raises(ZeroMassStratum):
        sample_world_conditional(scm, rng, stratum="missing", z="za")


def test_exact_recoverer():
    scm = tiny_scm()
    rec = ExactRecoverer(scm)
    assert rec.recover("ctx=zb u1=1", "all") == "zb"

    # drop the ctx token and both contexts become consistent
    blind = tabulate(
        scm.u_domains,
        scm.z_domain,
        scm.p_u,
        scm.z_parents,
        scm.p_z_given_parents,
        lambda z, u: (f"u1={u[0]}", *potential(scm, World(u=u, z=z), z)[1:]),
        y_values=scm.y_values,
        s_values=scm.s_values,
    )
    assert ExactRecoverer(blind).recover("u1=1", "all") is AMBIGUOUS


def test_conditional_sampler_posterior():
    # Two factors, x reveals u1 only under za. Conditioning on the potential
    # event {X(za)="ctx=za r=0", S="all"} pins u1=0, leaves u2 fair, so
    # X(zb) = "ctx=zb r=<u2>" should be 50/50.
    x_table = {}
    y_table = {}
    for z in ("za", "zb"):
        for u1 in (0, 1):
            for u2 in (0, 1):
                r = u1 if z == "za" else u2
                x_table[f"{z}|{u1}|{u2}"] = f"ctx={z} r={r}"
                y_table[f"{z}|{u1}|{u2}"] = u1
    scm = scm_from_tables(
        (FiniteDomain("u1", (0, 1)), FiniteDomain("u2", (0, 1))),
        FiniteDomain("z", ("za", "zb")),
        {(a, b): 0.25 for a in (0, 1) for b in (0, 1)},
        (),
        {(): {"za": 0.5, "zb": 0.5}},
        x_table,
        y_table,
        None,
        y_values=(0, 1),
    )
    values, probs = conditional_table(scm, "ctx=za r=0", None, "zb")
    law = dict(zip(values, probs))
    assert law == {
        "ctx=zb r=0": pytest.approx(0.5),
        "ctx=zb r=1": pytest.approx(0.5),
    }
    # same event, resampled to za: degenerate at the original input
    values, probs = conditional_table(scm, "ctx=za r=0", None, "za")
    assert dict(zip(values, probs)) == {"ctx=za r=0": pytest.approx(1.0)}

    with pytest.raises(InconsistentEvidence):
        ExactConditionalSampler(scm).draw(
            "ctx=za r=7", None, "zb", np.random.default_rng(0)
        )


def test_conditional_sampler_ambiguous_context():
    scm = tiny_scm()
    blind_tables = {
        f"{z}|{u}": f"u1={u}" for z in ("za", "zb") for u in (0, 1)
    }
    y = {f"{z}|{u}": u for z in ("za", "zb") for u in (0, 1)}
    blind = scm_from_tables(
        scm.u_domains, scm.z_domain, scm.p_u, scm.z_parents,
        scm.p_z_given_parents, blind_tables, y, None,
    )
    with pytest.raises(AmbiguousContext):
        ExactConditionalSampler(blind).draw("u1=1", None, "za", np.random.default_rng(0))


def test_scm_json_round_trip(tmp_path):
    scm = random_fixture_scm(seed=5, n_contexts=2, n_factors=2, s_mode="u1")
    path = tmp_path / "scm.json"
    path.write_text(json.dumps(dump_scm(scm)))
    again = load_scm(path)
    original = {(w.u, w.z): m for w, m in enumerate_joint(scm)}
    loaded = {(w.u, w.z): m for w, m in enumerate_joint(again)}
    assert set(original) == set(loaded)
    for key in original:
        assert original[key] == pytest.approx(loaded[key])
        w = World(u=key[0], z=key[1])
        assert observed(scm, w) == observed(again, w)
    assert stratum_values(scm) == stratum_values(again)


def test_missing_table_entry_named(tmp_path):
    doc = dump_scm(
        scm_from_tables(
            (FiniteDomain("u1", (0, 1)),),
            FiniteDomain("z", ("za", "zb")),
            {(0,): 0.5, (1,): 0.5},
            (),
            {(): {"za": 0.5, "zb": 0.5}},
            {f"{z}|{u}": f"ctx={z}" for z in ("za", "zb") for u in (0, 1)},
            {f"{z}|{u}": u for z in ("za", "zb") for u in (0, 1)},
            None,
        )
    )
    del doc["y_table"]["zb|1"]
    with pytest.raises(DomainMismatch, match="y_table.*zb|1"):
        load_scm(doc)


def _two_cell_tables(u_values, z_values=("za", "zb")):
    """A one-factor model's arguments to ``scm_from_tables``."""
    cells = [f"{z}|{u}" for z in z_values for u in u_values]
    return (
        (FiniteDomain("u1", u_values),), FiniteDomain("z", z_values),
        {(u,): 1 / len(u_values) for u in u_values}, (),
        {(): {z: 1 / len(z_values) for z in z_values}},
        {key: f"x={key}" for key in cells}, {key: "0" for key in cells},
    )


@pytest.mark.parametrize(
    "u_values, z_values, message",
    [
        ((1, "1"), ("za", "zb"), "domain 'u1' values 1 and '1' both read '1'"),
        ((0, 1), ("za", 2, "2"), "domain 'z' values 2 and '2' both read '2'"),
        ((0, True, "True"), ("za", "zb"), "domain 'u1' values True and 'True' both read 'True'"),
        ((0, "a|b"), ("za", "zb"), "value 'a|b' may not contain '|'"),
        ((0, 1), ("z|a", "zb"), "value 'z|a' may not contain '|'"),
    ],
    ids=["int-and-string", "context-int-and-string", "bool-and-string", "bar-in-factor",
         "bar-in-context"],
)
def test_a_domain_value_must_read_as_its_own_table_key_part(
    tmp_path, u_values, z_values, message
):
    """Two values that print alike would read one table entry for two cells,
    and dump_scm would write one entry for both; each is refused once, on
    load and on dump alike, naming both values."""
    with pytest.raises(DomainMismatch) as got:
        scm_from_tables(*_two_cell_tables(u_values, z_values))
    assert str(got.value) == message
    clean = scm_from_tables(*_two_cell_tables(
        tuple(range(len(u_values))), tuple(f"z{k}" for k in range(len(z_values)))
    ))
    doc = dump_scm(clean)
    doc["u_domains"][0]["values"], doc["z_domain"]["values"] = list(u_values), list(z_values)
    with pytest.raises(DomainMismatch, match=re.escape(message)):
        load_scm(doc)
    direct = scm_mod.DiscreteScm(
        (FiniteDomain("u1", u_values),), FiniteDomain("z", z_values),
        dict(zip([(u,) for u in u_values], clean.p_u.values())), (),
        {(): dict(zip(z_values, clean.p_z_given_parents[()].values()))},
        dict(zip([(u,) for u in u_values], clean.cells.values())),
    )
    with pytest.raises(DomainMismatch, match=re.escape(message)):
        dump_scm(direct)


def test_enumeration_cap_is_read_at_call_time(monkeypatch):
    scm = random_fixture_scm(seed=7, n_contexts=3, n_factors=2, s_mode="y")
    monkeypatch.setattr(scm_mod, "ENUMERATION_CAP", scm.n_worlds() - 1)
    with pytest.raises(EnumerationTooLarge, match=f"{scm.n_worlds()} worlds"):
        enumerate_joint(scm)
    # sampling needs no enumeration, so it still works beyond the cap
    assert sample_world(scm, np.random.default_rng(0)).z in scm.z_domain
    monkeypatch.setattr(scm_mod, "ENUMERATION_CAP", scm.n_worlds())
    assert len(enumerate_joint(scm)) == scm.n_worlds()


def test_exact_consumers_do_not_keep_models_alive():
    scm = random_fixture_scm(seed=8, n_contexts=2, n_factors=2, s_mode="u1")
    rng = np.random.default_rng(0)
    w, _mass = enumerate_joint(scm)[0]
    x, _y, s = observed(scm, w)
    sample_world(scm, rng)
    sample_world_conditional(scm, rng, stratum=s, z=w.z)
    assert ExactRecoverer(scm).recover(x, s) == w.z
    ExactConditionalSampler(scm).draw(x, s, w.z, rng)
    exact_prediction_law(scm, lambda x, s: ctx_reader(x))
    ref = weakref.ref(scm)
    del scm
    gc.collect()
    assert ref() is None


def reference_recoverer(scm):
    """The set-based recovery index the model's enumeration index replaced."""
    index = {}
    for w, _mass in enumerate_joint(scm):
        s_obs = observed(scm, w)[2]
        for z in scm.z_domain.values:
            index.setdefault((potential(scm, w, z)[0], s_obs), set()).add(z)

    def recover(x, s):
        candidates = index.get((x, s), set())
        return next(iter(candidates)) if len(candidates) == 1 else AMBIGUOUS

    return recover


def _shown(z):
    return "<AMBIGUOUS>" if z is AMBIGUOUS else repr(z)


def test_recoverer_matches_the_set_index_reference():
    outcomes = set()
    for fx in fixture_suite(24):
        for scm in (fx.scm, _blind(fx.scm)):
            inputs = {
                potential(scm, w, z)[0] for w, _ in enumerate_joint(scm)
                for z in scm.z_domain.values
            }
            reference, recoverer = reference_recoverer(scm), ExactRecoverer(scm)
            # every pair, including inconsistent ones that recover to nothing
            for x in sorted(inputs):
                for s in stratum_values(scm):
                    got = _shown(recoverer.recover(x, s))
                    assert got == _shown(reference(x, s)), (fx.name, x, s)
                    outcomes.add((scm is fx.scm, got == "<AMBIGUOUS>"))
    # recovered and ambiguous pairs occur both with and without the ctx token
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


# --- one evidence pass per pair: the per-context walk as the oracle ----------


@functools.lru_cache(maxsize=1)
def evidence_walk(scm):
    """(x at z, observed s, z) -> the mass and potential inputs at every
    context of each world showing it, in world order: a walk over the
    worlds that shares nothing with the model's index."""
    zs = scm.z_domain.values
    out = {}
    for w, m in enumerate_joint(scm):
        xs = [potential(scm, w, z)[0] for z in zs]
        s_obs = observed(scm, w)[2]
        for z, x in zip(zs, xs):
            out.setdefault((x, s_obs, z), []).append((m, xs))
    return out


def per_context_table(scm, x, s, z_plus):
    """One context's conditional table from its own walk over the evidence
    pair's worlds, as the sampler computed each table before it built every
    context's table of a pair in one pass."""
    if z_plus not in scm.z_domain:
        raise DomainMismatch(f"context {z_plus!r} outside the domain")
    evidence = evidence_walk(scm)
    found = [z for z in scm.z_domain.values if (x, s, z) in evidence]
    if not found:
        raise InconsistentEvidence(f"no world consistent with x={x!r}, s={s!r}")
    if len(found) > 1:
        raise AmbiguousContext(
            f"contexts {found!r} all consistent with x={x!r}, s={s!r}"
        )
    k = scm.z_domain.values.index(z_plus)
    mass, total = {}, 0.0
    for m, xs in evidence[(x, s, found[0])]:
        mass[xs[k]] = mass.get(xs[k], 0.0) + m
        total += m
    values = tuple(mass)
    return values, np.array([mass[v] for v in values], dtype=float) / total


def per_context_kernel(scm, base, contexts):
    """The augmented kernel over per-context tables, uniform fresh context."""
    weights = [1.0 / len(contexts)] * len(contexts)
    labels = {}

    def kernel(x, s):
        law = {}
        for z_plus, w in zip(contexts, weights):
            values, probs = per_context_table(scm, x, s, z_plus)
            for xp, p in zip(values, probs):
                if xp not in labels:
                    labels[xp] = base(xp)
                law[labels[xp]] = law.get(labels[xp], 0.0) + w * float(p)
        return law

    return kernel


def _hexed(table):
    values, probs = table
    return values, [float(p).hex() for p in probs]


def _hexed_law(law):
    return [(key, [(y, p.hex()) for y, p in row.items()]) for key, row in law.items()]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (AmbiguousContext, InconsistentEvidence) as exc:
        return type(exc).__name__


def _one_pass_models():
    for fx in fixture_suite(24):
        yield fx.name, fx.scm
        yield fx.name + "-blind", _blind(fx.scm)  # ambiguous evidence too
    # the benchmark's certify models: three contexts, 4 to 10 binary factors
    for i, k in enumerate(range(4, 11)):
        yield f"bench-k{k}", random_fixture_scm([1, 59, i], n_contexts=3, n_factors=k)


def test_one_pass_tables_match_the_per_context_walk():
    for name, scm in _one_pass_models():
        zs = scm.z_domain.values
        sampler = ExactConditionalSampler(scm)
        pairs = list(dict.fromkeys((x, s) for x, s, _z in evidence_walk(scm)))
        rng_new, rng_old = np.random.default_rng(3), np.random.default_rng(3)
        for x, s in pairs:
            for z_plus in zs:
                want = _outcome(per_context_table, scm, x, s, z_plus)
                if isinstance(want, str):
                    assert _outcome(conditional_table, scm, x, s, z_plus) == want
                    assert _outcome(sampler.draw, x, s, z_plus, rng_new) == want
                    continue
                got = conditional_table(scm, x, s, z_plus)
                assert _hexed(got) == _hexed(want), (name, x, s, z_plus)
                values, probs = want
                assert sampler.draw(x, s, z_plus, rng_new) == values[
                    rng_old.choice(len(values), p=probs)
                ], (name, x, s, z_plus)
        # the exact augmented law, over the domain and a reordered subset of it
        for contexts in (zs, (zs[-1], zs[0])):
            ap = AugmentedPredictor(
                recoverer=ExactRecoverer(scm), sampler=ExactConditionalSampler(scm),
                base=ctx_reader, contexts=contexts,
            )
            want = _outcome(
                exact_prediction_law, scm, per_context_kernel(scm, ctx_reader, contexts)
            )
            got = _outcome(exact_augmented_distribution, scm, ap)
            if isinstance(want, str):
                assert got == want, (name, contexts)
            else:
                assert _hexed_law(got) == _hexed_law(want), (name, contexts)


def test_one_pass_tables_refuse_a_context_outside_the_domain():
    scm = random_fixture_scm([1, 59, 0], n_contexts=3, n_factors=4)
    x, s, _z = next(iter(evidence_walk(scm)))
    sampler = ExactConditionalSampler(scm)
    with pytest.raises(DomainMismatch, match="'zq' outside the domain"):
        sampler.draw(x, s, "zq", np.random.default_rng(0))
    ap = AugmentedPredictor(
        recoverer=ExactRecoverer(scm), sampler=sampler, base=ctx_reader,
        contexts=("zb", "zq"),
    )
    with pytest.raises(DomainMismatch, match="'zq' outside the domain"):
        augmented_kernel(ap)(x, s)
    with pytest.raises(DomainMismatch, match="'zq' outside the domain"):
        exact_augmented_distribution(scm, ap)


# --- the cells against mechanism closures over the tables --------------------


def _same(got, want, what):
    """Equal NamedTuples of arrays, tuples and dicts: dtypes, values, floats
    bit for bit, and the order of every tuple and dict."""
    for name, a, b in zip(type(want)._fields, got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, (what, name)
            a, b = a.tolist(), b.tolist()
            if b and isinstance(b[0], float):
                a, b = [v.hex() for v in a], [v.hex() for v in b]
        elif isinstance(b, dict):
            a, b = list(a.items()), list(b.items())
        assert a == b, (what, name)


def test_the_cells_give_the_codes_and_laws_of_the_closure_path():
    for seed in range(150):
        model = random_fixture_scm(seed)
        for scm in (model, _blind(model)):
            twin = closure_twin(scm)
            _same(scm.index.codes, twin.index.codes, (seed, "codes"))
            zs = scm.z_domain.values
            for k in range(len(zs)):
                _same(
                    scm.index.conditional_laws(k), twin.index.conditional_laws(k),
                    (seed, "laws", k),
                )
            for contexts in (zs, zs[::-1]):
                got, want = (
                    _outcome(exact_augmented_distribution, m, AugmentedPredictor(
                        recoverer=ExactRecoverer(m), sampler=ExactConditionalSampler(m),
                        base=ctx_reader, contexts=contexts,
                    ))
                    for m in (scm, twin)
                )
                if isinstance(want, str):
                    assert got == want, (seed, contexts)
                else:
                    assert _hexed_law(got) == _hexed_law(want), (seed, contexts)


# --- the coded index: built on first use, once per model ---------------------


def test_the_coded_index_is_built_on_first_use_and_once(tmp_path, monkeypatch):
    builds = []
    build = scm_mod.WorldIndex.codes.func

    def counted(index):
        builds.append(index)
        return build(index)

    codes = functools.cached_property(counted)
    codes.__set_name__(scm_mod.WorldIndex, "codes")
    monkeypatch.setattr(scm_mod.WorldIndex, "codes", codes)

    path = tmp_path / "model.json"
    model = random_fixture_scm([1, 59, 2], n_contexts=3, n_factors=6)
    path.write_text(json.dumps(dump_scm(model)))
    model = load_scm(path)
    enumerate_joint(model)
    recoverer, sampler = ExactRecoverer(model), ExactConditionalSampler(model)
    assert builds == []
    ap = AugmentedPredictor(
        recoverer=recoverer, sampler=sampler, base=ctx_reader,
        contexts=tuple(model.z_domain.values),
    )
    first = exact_augmented_distribution(model, ap)
    exact_prediction_law(model, lambda x, s: ctx_reader(x))
    assert exact_augmented_distribution(model, ap) == first
    assert builds == [model.index]


def test_conditional_laws_are_built_at_most_once_per_context(monkeypatch):
    builds = []
    build = scm_mod.WorldIndex._conditional_laws

    def counted(index, k):
        builds.append((index, k))
        return build(index, k)

    monkeypatch.setattr(scm_mod.WorldIndex, "_conditional_laws", counted)
    model = random_fixture_scm([1, 59, 2], n_contexts=3, n_factors=6)
    zs = model.z_domain.values
    w, _mass = enumerate_joint(model)[0]
    x, _y, s = observed(model, w)
    samplers = [ExactConditionalSampler(model), ExactConditionalSampler(model)]
    assert builds == []
    rng = np.random.default_rng(0)
    for sampler in samplers:
        for _ in range(5):
            sampler.draw(x, s, zs[1], rng)
    assert builds == [(model.index, 1)]
    for sampler in samplers:
        for z_plus in (*zs, zs[0]):
            sampler.draw(x, s, z_plus, rng)
        ap = AugmentedPredictor(
            recoverer=ExactRecoverer(model), sampler=sampler, base=ctx_reader,
            contexts=tuple(reversed(zs)),
        )
        exact_augmented_distribution(model, ap)
        augmented_kernel(ap)(x, s)
    assert builds == [(model.index, 1), (model.index, 0), (model.index, 2)]


# --- the grouping kernel against a per-row dict loop -------------------------


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.integers(0, 5), st.integers(0, 3),
            st.floats(0, 1e3, allow_nan=False, allow_infinity=False),
        ),
        max_size=40,
    ),
    spare_rows=st.integers(0, 3),
)
@example(entries=[], spare_rows=2)
@example(entries=[(2, 1, 0.1), (0, 3, 0.2), (2, 0, 0.3), (2, 1, 0.7)], spare_rows=1)
def test_group_laws_matches_a_per_row_dict_loop(entries, spare_rows):
    """Each row's sums, added in entry order, with its items in first-seen
    order; rows no entry names, below the largest row and above it, are
    empty."""
    n_rows = max((r for r, _i, _w in entries), default=-1) + 1 + spare_rows
    want = [{} for _ in range(n_rows)]
    for r, i, w in entries:
        want[r][i] = want[r].get(i, 0.0) + w
    row = np.array([r for r, _i, _w in entries], dtype=np.intp)
    item = np.array([i for _r, i, _w in entries], dtype=np.intp)
    weight = np.array([w for _r, _i, w in entries], dtype=float)
    got = scm_mod.group_laws(row, item, 4, weight, n_rows)
    assert got.start.tolist() == np.cumsum([0] + [len(law) for law in want]).tolist()
    assert got.item.tolist() == [i for law in want for i in law]
    assert [p.hex() for p in got.prob.tolist()] == [
        p.hex() for law in want for p in law.values()
    ]
