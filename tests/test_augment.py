"""Augmented-predictor behavior: traces, aggregation, exact vs sampled laws."""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from stratinv.augment import (
    Aggregator,
    AugmentedPredictor,
    IdentitySampler,
    augment_once,
    augment_predict,
    augmented_kernel,
    exact_augmented_distribution,
    hoeffding_envelope,
    max_context_deviation,
)
from stratinv.errors import (
    AmbiguousContext,
    DomainMismatch,
    InconsistentEvidence,
    SamplerFailure,
)
from stratinv.fixtures import (
    S_MODES,
    chain_fixture,
    ctx_reader,
    fixture_suite,
    metric_predictor,
    parity_reader,
    r_reader,
    random_fixture_scm,
    u1_reader,
)
from stratinv.metrics import exact_prediction_law
from stratinv.scm import (
    AMBIGUOUS,
    ExactConditionalSampler,
    ExactRecoverer,
    FiniteDomain,
    enumerate_joint,
    observed,
    potential,
)
from tests_support import blind, tabulate, tiny_confounded


def exact_ap(scm, base, **kw):
    return AugmentedPredictor(
        recoverer=ExactRecoverer(scm),
        sampler=ExactConditionalSampler(scm),
        base=base,
        contexts=tuple(scm.z_domain.values),
        **kw,
    )


def test_augment_once_trace_fields():
    scm = tiny_confounded()
    ap = exact_ap(scm, u1_reader)
    trace = augment_once(ap, "ctx=za u1=0", "all", np.random.default_rng(0), j=3)
    assert trace.j == 3
    assert trace.z_recovered == "za"
    assert trace.z_plus in ("za", "zb")
    # single factor: evidence pins u1, so the counterfactual is deterministic
    assert trace.x_plus == f"ctx={trace.z_plus} u1=0"
    assert trace.label == "0"


def test_augment_predict_replays_exactly():
    scm = chain_fixture(0)
    ap = exact_ap(scm, r_reader, m=5)
    a = augment_predict(ap, "ctx=za r=1", "all", np.random.default_rng(42))
    b = augment_predict(ap, "ctx=za r=1", "all", np.random.default_rng(42))
    assert a == b
    assert len(a.traces) == 5
    assert [t.j for t in a.traces] == [0, 1, 2, 3, 4]


def test_identity_sampler_passes_input_through():
    scm = tiny_confounded()
    ap = AugmentedPredictor(
        recoverer=ExactRecoverer(scm),
        sampler=IdentitySampler(),
        base=ctx_reader,
        contexts=("za", "zb"),
    )
    trace = augment_once(ap, "ctx=za u1=1", "all", np.random.default_rng(1))
    assert trace.x_plus == "ctx=za u1=1"
    assert trace.label == "za"


def test_aggregator_majority_and_tie_break():
    agg = Aggregator(label_order=("a", "b", "c"))
    assert agg.combine(["b", "b", "a"]) == "b"
    assert agg.combine(["b", "a"]) == "a"          # tie -> earliest in order
    assert agg.combine(["c", "b", "b", "c"]) == "b"
    # labels outside the declared order rank after it, first seen first
    assert Aggregator().combine(["x", "y"]) == "x"
    assert Aggregator(label_order=("y",)).combine(["x", "y"]) == "y"


def test_aggregator_rejects_no_labels():
    with pytest.raises(ValueError):
        Aggregator().combine([])


def test_augmented_kernel_hand_computed():
    # chain model, evidence "ctx=za r=0": z+=za replays r=0; z+=zb reveals
    # the second bit, which the evidence leaves uniform
    scm = chain_fixture(0)
    kernel = augmented_kernel(exact_ap(scm, r_reader))
    law = kernel("ctx=za r=0", "all")
    assert law["0"] == pytest.approx(0.75)
    assert law["1"] == pytest.approx(0.25)


def test_augmented_kernel_matches_sampled_frequencies():
    scm = chain_fixture(0)
    ap = exact_ap(scm, r_reader)
    rng = np.random.default_rng(123)
    n = 4000
    ones = sum(
        augment_once(ap, "ctx=za r=0", "all", rng).label == "1" for _ in range(n)
    )
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(ones / n - 0.25) <= 3 * sigma


def test_augmented_kernel_requires_exact_sampler():
    scm = tiny_confounded()
    ap = AugmentedPredictor(
        recoverer=ExactRecoverer(scm),
        sampler=IdentitySampler(),
        base=ctx_reader,
        contexts=("za", "zb"),
    )
    with pytest.raises(ValueError, match="the exact sampler"):
        augmented_kernel(ap)


def test_exact_distribution_constant_across_contexts():
    scm = chain_fixture(0)
    table = exact_augmented_distribution(scm, exact_ap(scm, r_reader))
    assert max_context_deviation(table) <= 1e-12
    for law in table.values():
        assert law["0"] == pytest.approx(0.5)
        assert law["1"] == pytest.approx(0.5)


def test_exact_distribution_even_for_context_reader():
    # the augmentation neutralizes a ctx copier: its per-replicate law is
    # the uniform fresh-context draw, in every stratum and world
    scm = tiny_confounded()
    table = exact_augmented_distribution(scm, exact_ap(scm, ctx_reader))
    assert max_context_deviation(table) <= 1e-12
    for law in table.values():
        assert law["za"] == pytest.approx(0.5)


def test_sampler_failures_drop_replicates():
    scm = tiny_confounded()
    inner = ExactConditionalSampler(scm)

    class Flaky:
        def draw(self, x, s, z_plus, rng):
            if z_plus == "zb":
                raise RuntimeError("refused")
            return inner.draw(x, s, z_plus, rng)

    ap = AugmentedPredictor(
        recoverer=ExactRecoverer(scm),
        sampler=Flaky(),
        base=u1_reader,
        contexts=("za", "zb"),
        m=12,
    )
    out = augment_predict(ap, "ctx=za u1=1", "all", np.random.default_rng(8))
    assert 0 < len(out.traces) < 12
    assert all(t.z_plus == "za" for t in out.traces)
    assert out.label == "1"


def test_all_failures_reraise():
    scm = tiny_confounded()

    class Broken:
        def draw(self, x, s, z_plus, rng):
            raise RuntimeError("down")

    ap = AugmentedPredictor(
        recoverer=ExactRecoverer(scm),
        sampler=Broken(),
        base=u1_reader,
        contexts=("za", "zb"),
        m=3,
    )
    with pytest.raises(SamplerFailure, match="down"):
        augment_predict(ap, "ctx=za u1=1", "all", np.random.default_rng(0))


def test_ambiguous_context_fails_the_call():
    class Blind:
        def recover(self, x, s):
            return AMBIGUOUS

    scm = tiny_confounded()
    ap = AugmentedPredictor(
        recoverer=Blind(),
        sampler=ExactConditionalSampler(scm),
        base=u1_reader,
        contexts=("za", "zb"),
    )
    with pytest.raises(AmbiguousContext):
        augment_predict(ap, "ctx=za u1=1", "all", np.random.default_rng(0))


def half_blind():
    """Three contexts; the input names zb only, so za and zc show the same
    pairs and zb's pairs recover."""
    return tabulate(
        (FiniteDomain("u1", (0, 1)),),
        FiniteDomain("z", ("za", "zb", "zc")),
        {(0,): 0.5, (1,): 0.5},
        (),
        {(): {"za": 0.25, "zb": 0.5, "zc": 0.25}},
        lambda z, u: (
            f"ctx=zb u1={u[0]}" if z == "zb" else f"u1={u[0]}", u[0], "all"
        ),
    )


def test_recovery_errors_keep_their_text():
    model = half_blind()
    recoverer, sampler = ExactRecoverer(model), ExactConditionalSampler(model)
    ap = AugmentedPredictor(
        recoverer=recoverer, sampler=sampler, base=u1_reader,
        contexts=("za", "zb", "zc"),
    )
    ambiguous = "contexts ['za', 'zc'] all consistent with x='u1=1', s='all'"
    inconsistent = "no world consistent with x='u1=7', s='all'"
    rng = np.random.default_rng(0)
    for x, error, text in (
        ("u1=1", AmbiguousContext, ambiguous), ("u1=7", InconsistentEvidence, inconsistent)
    ):
        assert recoverer.recover(x, "all") is AMBIGUOUS
        with pytest.raises(AmbiguousContext) as got:
            augment_predict(ap, x, "all", rng)
        assert str(got.value) == f"context not recoverable from x={x!r}, s='all'"
        for call in (
            lambda: model.index.recover(x, "all"),
            lambda: sampler.draw(x, "all", "zc", rng),
            lambda: sampler.draw(x, "all", "zb", rng),
            lambda: augmented_kernel(ap)(x, "all"),
        ):
            with pytest.raises(error) as got:
                call()
            assert str(got.value) == text
    assert recoverer.recover("ctx=zb u1=1", "all") == "zb"
    zs, index = model.z_domain.values, model.index
    assert zs[index.codes.context[index.recover("ctx=zb u1=1", "all")]] == "zb"
    with pytest.raises(AmbiguousContext) as got:
        exact_augmented_distribution(model, ap)
    assert str(got.value) == "contexts ['za', 'zc'] all consistent with x='u1=0', s='all'"


def test_hoeffding_envelope_formula():
    assert hoeffding_envelope(100, 2, 3) == pytest.approx(
        3 * math.sqrt(math.log(24) / 100)
    )
    assert hoeffding_envelope(400, 2, 3) == pytest.approx(
        hoeffding_envelope(100, 2, 3) / 2
    )


# --- the per-(world, z) exact law, kept as the oracle -----------------------


def reference_prediction_law(model, predictor):
    """Calls the predictor for every world and intervention, in world order."""
    s_mass, by_stratum = {}, {}
    for w, m in enumerate_joint(model):
        s_obs = observed(model, w)[2]
        s_mass[s_obs] = s_mass.get(s_obs, 0.0) + m
        by_stratum.setdefault(s_obs, []).append((w, m))
    table = {}
    for z in model.z_domain.values:
        for s, members in by_stratum.items():
            law = {}
            for w, m in members:
                out = predictor(potential(model, w, z)[0], s)
                kernel = out if isinstance(out, dict) else {out: 1.0}
                for y, p in kernel.items():
                    law[y] = law.get(y, 0.0) + p * m / s_mass[s]
            table[(z, s)] = law
    return table


def reference_augmented_kernel(model, base):
    """Uniform fresh context, conditional tables from a scan of the worlds,
    and one base call per support point."""
    zs = model.z_domain.values
    worlds = [(w, m, observed(model, w)[2]) for w, m in enumerate_joint(model)]

    def table(x, s, z_plus):
        (z0,) = [
            z for z in zs
            if any(s_w == s and potential(model, w, z)[0] == x for w, _m, s_w in worlds)
        ]
        mass, total = {}, 0.0
        for w, m, s_w in worlds:
            if s_w == s and potential(model, w, z0)[0] == x:
                xp = potential(model, w, z_plus)[0]
                mass[xp] = mass.get(xp, 0.0) + m
                total += m
        return tuple(mass), np.array(list(mass.values()), dtype=float) / total

    def kernel(x, s):
        law = {}
        for z_plus in zs:
            values, probs = table(x, s, z_plus)
            for xp, p in zip(values, probs):
                y = base(xp)
                law[y] = law.get(y, 0.0) + (1.0 / len(zs)) * float(p)
        return law

    return kernel


def hex_table(table):
    return [
        (key, [(y, float.hex(p)) for y, p in law.items()])
        for key, law in table.items()
    ]


def mixed_kernel(x, s):
    return {f"{ctx_reader(x)}|{s}": 1.0 / 3.0, f"p{parity_reader(x)}": 2.0 / 3.0}


def test_exact_laws_match_the_per_world_loop_bit_for_bit():
    readers = (ctx_reader, u1_reader, parity_reader)
    for fx in fixture_suite(24):
        model = fx.scm
        for predictor in [*map(metric_predictor, readers), mixed_kernel]:
            assert hex_table(exact_prediction_law(model, predictor)) == hex_table(
                reference_prediction_law(model, predictor)
            ), fx.name
        for base in readers:
            got = exact_augmented_distribution(model, exact_ap(model, base))
            want = reference_prediction_law(
                model, reference_augmented_kernel(model, base)
            )
            assert hex_table(got) == hex_table(want), fx.name


def test_exact_law_calls_the_predictor_once_per_distinct_input():
    for fx in fixture_suite(24):
        model = fx.scm
        pairs = {
            (potential(model, w, z)[0], observed(model, w)[2])
            for w, _m in enumerate_joint(model)
            for z in model.z_domain.values
        }
        calls = Counter()

        def predictor(x, s):
            calls[(x, s)] += 1
            return u1_reader(x)

        exact_prediction_law(model, predictor)
        assert set(calls) == pairs and max(calls.values()) == 1, fx.name

        inputs = {x for x, _s in pairs}
        base_calls = Counter()

        def base(x):
            base_calls[x] += 1
            return ctx_reader(x)

        exact_augmented_distribution(model, exact_ap(model, base))
        assert set(base_calls) == inputs and max(base_calls.values()) == 1, fx.name


# --- the per-pair loops as the oracle, on many models ------------------------


def world_rows(model):
    """(mass, observed s, potential input at each context) per world."""
    return [
        (
            m, observed(model, w)[2],
            [potential(model, w, z)[0] for z in model.z_domain.values],
        )
        for w, m in enumerate_joint(model)
    ]


def loop_prediction_law(model, rows, predictor):
    """The law stratum by stratum, context by context, world by world,
    calling the predictor once per new input of the stratum."""
    zs = model.z_domain.values
    s_mass, by_stratum = {}, {}
    for m, s, xs in rows:
        s_mass[s] = s_mass.get(s, 0.0) + m
        by_stratum.setdefault(s, []).append((m, xs))
    laws = {}
    for s, members in by_stratum.items():
        kernels = {}
        for k, z in enumerate(zs):
            law = {}
            for m, xs in members:
                if xs[k] not in kernels:
                    out = predictor(xs[k], s)
                    kernels[xs[k]] = out if isinstance(out, dict) else {out: 1.0}
                for y, p in kernels[xs[k]].items():
                    law[y] = law.get(y, 0.0) + p * m / s_mass[s]
            laws[(z, s)] = law
    return {(z, s): laws[(z, s)] for z in zs for s in by_stratum}


def loop_augmented_kernel(model, rows, base, contexts):
    """Per pair: check the contexts, recover z0, build each fresh context's
    table from the evidence worlds, and add w * p per label."""
    zs = model.z_domain.values
    evidence = {}
    for m, s, xs in rows:
        for z, x in zip(zs, xs):
            evidence.setdefault((x, s, z), []).append((m, xs))

    def kernel(x, s):
        for z_plus in contexts:
            if z_plus not in model.z_domain:
                raise DomainMismatch(f"context {z_plus!r} outside the domain")
        found = [z for z in zs if (x, s, z) in evidence]
        if not found:
            raise InconsistentEvidence(f"no world consistent with x={x!r}, s={s!r}")
        if len(found) > 1:
            raise AmbiguousContext(
                f"contexts {found!r} all consistent with x={x!r}, s={s!r}"
            )
        law = {}
        for z_plus in contexts:
            k = zs.index(z_plus)
            mass, total = {}, 0.0
            for m, xs in evidence[(x, s, found[0])]:
                mass[xs[k]] = mass.get(xs[k], 0.0) + m
                total += m
            for xp, m in mass.items():
                y = base(xp)
                law[y] = law.get(y, 0.0) + (1.0 / len(contexts)) * (m / total)
        return law

    return kernel


def outcome(fn, *args):
    try:
        return hex_table(fn(*args))
    except (AmbiguousContext, DomainMismatch, InconsistentEvidence) as exc:
        return type(exc).__name__, str(exc)


def test_exact_laws_match_the_per_pair_loops_on_many_models():
    rng = np.random.default_rng(20_261_018)
    readers = (ctx_reader, u1_reader, parity_reader)
    seen = Counter()
    for i in range(208):
        shape = (2 + i % 3, 1 + (i // 3) % 6, S_MODES[(i // 18) % len(S_MODES)])
        plain = random_fixture_scm(
            [20_261_018, i], n_contexts=shape[0], n_factors=shape[1], s_mode=shape[2]
        )
        assert len(plain.z_domain) == shape[0]
        for model in (plain, blind(plain)):
            zs, rows = model.z_domain.values, world_rows(model)
            predictor = [*map(metric_predictor, readers), mixed_kernel][i % 4]
            assert outcome(exact_prediction_law, model, predictor) == outcome(
                loop_prediction_law, model, rows, predictor
            ), i
            base = readers[i % 3]
            subset = tuple(rng.permutation(zs)[: rng.integers(1, len(zs) + 1)].tolist())
            for contexts in (zs, subset, subset + ("zq",) if i % 16 == 0 else subset):
                ap = AugmentedPredictor(
                    recoverer=ExactRecoverer(model),
                    sampler=ExactConditionalSampler(model),
                    base=base, contexts=contexts,
                )
                want = outcome(
                    loop_prediction_law, model, rows,
                    loop_augmented_kernel(model, rows, base, contexts),
                )
                got = outcome(exact_augmented_distribution, model, ap)
                assert got == want, (i, model is plain, contexts)
                seen[(model is plain, got[0] if isinstance(got, tuple) else "law")] += 1
        seen[("shape",) + shape] += 1
    # recovered laws, ambiguous pairs and foreign contexts all occur
    assert seen[(True, "law")] and seen[(False, "law")]
    assert seen[(False, "AmbiguousContext")] and seen[(True, "DomainMismatch")]
    assert sum(1 for key in seen if key[0] == "shape") == 3 * 6 * 4


def test_a_sampler_of_another_model_answers_through_the_kernel():
    for fx in fixture_suite(8):
        twin = dataclasses.replace(fx.scm)
        ap = AugmentedPredictor(
            recoverer=ExactRecoverer(twin), sampler=ExactConditionalSampler(twin),
            base=parity_reader, contexts=tuple(twin.z_domain.values),
        )
        assert hex_table(exact_augmented_distribution(fx.scm, ap)) == hex_table(
            exact_augmented_distribution(twin, ap)
        ), fx.name


def scrambled_model():
    """Inputs at zb reappear out of world order: "B" is first seen in the
    first world, but the evidence "ctx=za g=1" shows "A" before "B"."""
    return tabulate(
        (FiniteDomain("u1", (0, 1, 2)),),
        FiniteDomain("z", ("za", "zb")),
        {(0,): 0.3, (1,): 0.3, (2,): 0.4},
        (),
        {(): {"za": 0.6, "zb": 0.4}},
        lambda z, u: (
            f"ctx=za g={min(u[0], 1)}" if z == "za" else "BAB"[u[0]], u[0], "all"
        ),
    )


def test_tables_keep_the_first_seen_support_order():
    model, rows = scrambled_model(), world_rows(scrambled_model())
    # with one label, za's term then A's then B's round to 1 - 2**-53, and
    # B's before A's to 1
    for base, contexts in itertools.product(
        (lambda x: x, lambda x: "y"), (("za", "zb"), ("zb", "za"), ("zb",))
    ):
        ap = AugmentedPredictor(
            recoverer=ExactRecoverer(model), sampler=ExactConditionalSampler(model),
            base=base, contexts=contexts,
        )
        loop_kernel = loop_augmented_kernel(model, rows, base, contexts)
        want = loop_prediction_law(model, rows, loop_kernel)
        assert hex_table(exact_augmented_distribution(model, ap)) == hex_table(want)
        evidence = ("ctx=za g=1", "all")
        assert hex_table({evidence: augmented_kernel(ap)(*evidence)}) == hex_table(
            {evidence: loop_kernel(*evidence)}
        )
    for contexts in (("za", "zb"), ("zb", "za"), ("zb",)):
        ap = AugmentedPredictor(
            recoverer=ExactRecoverer(model), sampler=ExactConditionalSampler(model),
            base=lambda x: x, contexts=contexts,
        )
        law = augmented_kernel(ap)("ctx=za g=1", "all")
        assert list(law) == list(want_kernel(contexts))
        assert law == pytest.approx(want_kernel(contexts))


def want_kernel(contexts):
    law = {}
    for z_plus in contexts:
        support = {"ctx=za g=1": 1.0} if z_plus == "za" else {"A": 3 / 7, "B": 4 / 7}
        for x, p in support.items():
            law[x] = law.get(x, 0.0) + p / len(contexts)
    return law
