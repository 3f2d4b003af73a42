"""Metric oracles: hand-computed rates, exact laws, calibration behavior."""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratinv.errors import BalanceError, EmptyCell, MissingLabels, NonBinaryLabel
from stratinv.metrics import (
    LabeledRecord,
    SiBiasReport,
    _bias_table,
    _random_tables,
    balanced_subsample,
    check_counterfactual_invariance_exact,
    check_positivity,
    check_stratified_invariance_exact,
    ci_permutation_test,
    ci_probability,
    dump_records,
    exact_prediction_law,
    load_records,
    macro_f1,
    max_context_deviation,
    potential_prediction_map,
    si_bias,
)


def rec(i, s, z, y_hat, y=None, x=""):
    return LabeledRecord(f"r{i}", x=x, s=s, z=z, y=y, y_hat=y_hat)


def block(start, s, z, y_hat, count, y=None):
    return [rec(start + i, s, z, y_hat, y=y) for i in range(count)]


def test_si_bias_hand_computed():
    # stratum s0: P(1|za)=3/4 vs P(1|zb)=1/2 -> gap 0.25
    # stratum s1: P(1|za)=1/2 vs P(1|zb)=1/2 -> gap 0
    records = (
        block(0, "s0", "za", "1", 3) + block(10, "s0", "za", "0", 1)
        + block(20, "s0", "zb", "1", 2) + block(30, "s0", "zb", "0", 2)
        + block(40, "s1", "za", "1", 2) + block(50, "s1", "za", "0", 2)
        + block(60, "s1", "zb", "1", 1) + block(70, "s1", "zb", "0", 1)
    )
    report = si_bias(records)
    assert report.value == pytest.approx(0.25)
    assert dict(report.per_stratum)["s0"] == pytest.approx(0.25)
    assert dict(report.per_stratum)["s1"] == pytest.approx(0.0)
    assert report.n == len(records)


def test_si_bias_constant_prediction_is_zero():
    records = block(0, "s0", "za", "1", 5) + block(10, "s0", "zb", "1", 5)
    assert si_bias(records).value == 0.0


def test_si_bias_single_context_is_zero():
    records = block(0, "s0", "za", "1", 3) + block(10, "s0", "za", "0", 2)
    assert si_bias(records).value == 0.0


def test_si_bias_empty_cell_named():
    records = block(0, "s0", "za", "1", 3) + block(10, "s1", "zb", "1", 3)
    with pytest.raises(EmptyCell, match="s0"):
        si_bias(records)


def test_si_bias_none_stratum_is_single_stratum():
    records = block(0, None, "za", "1", 4) + block(10, None, "zb", "1", 2) + block(
        20, None, "zb", "0", 2
    )
    report = si_bias(records)
    assert report.value == pytest.approx(0.5)


def test_si_bias_multiclass_and_strict_flag():
    records = (
        block(0, "s", "za", "a", 2) + block(10, "s", "za", "b", 1)
        + block(20, "s", "za", "c", 1)
        + block(30, "s", "zb", "a", 1) + block(40, "s", "zb", "b", 1)
        + block(50, "s", "zb", "c", 2)
    )
    # max over labels: P(a|za)=1/2 vs 1/4 -> 0.25; c likewise
    assert si_bias(records).value == pytest.approx(0.25)
    with pytest.raises(NonBinaryLabel):
        si_bias(records, strict_binary=True)


def test_macro_f1_hand_computed():
    # y:    1 1 1 0 0
    # yhat: 1 0 1 0 1
    records = [
        rec(0, "s", "z", "1", y="1"), rec(1, "s", "z", "0", y="1"),
        rec(2, "s", "z", "1", y="1"), rec(3, "s", "z", "0", y="0"),
        rec(4, "s", "z", "1", y="0"),
    ]
    # class 1: tp=2 fp=1 fn=1 -> 2/3; class 0: tp=1 fp=1 fn=1 -> 1/2
    assert macro_f1(records) == pytest.approx((2 / 3 + 1 / 2) / 2)


def test_macro_f1_absent_class_with_explicit_labels():
    records = [rec(0, "s", "z", "1", y="1")]
    assert macro_f1(records, labels=["1", "0"]) == pytest.approx(1.0)


def test_macro_f1_requires_labels():
    with pytest.raises(MissingLabels):
        macro_f1([rec(0, "s", "z", None, y="1")])
    with pytest.raises(MissingLabels):
        macro_f1([])


def test_balanced_subsample_counts_and_error():
    records = (
        block(0, "s0", "za", "1", 10) + block(100, "s0", "zb", "1", 10)
        + block(200, "s1", "za", "1", 10) + block(300, "s1", "zb", "1", 10)
    )
    out = balanced_subsample(records, 8, rng=0)
    assert len(out) == 8
    cells = {(r.s, r.z) for r in out}
    assert len(cells) == 4
    for s, z in cells:
        assert sum(1 for r in out if (r.s, r.z) == (s, z)) == 2
    with pytest.raises(BalanceError, match="s0"):
        balanced_subsample(records, 100, rng=0)


def test_balanced_subsample_refuses_no_records_and_a_zero_size():
    with pytest.raises(BalanceError, match="no records"):
        balanced_subsample([], 10, rng=0)
    records = block(0, "s0", "za", "1", 3) + block(100, "s0", "zb", "1", 3)
    with pytest.raises(BalanceError, match="empty per-cell quota"):
        balanced_subsample(records, 0, rng=0)


def test_balanced_subsample_is_seed_deterministic():
    records = block(0, "s0", "za", "1", 30) + block(100, "s0", "zb", "1", 30)
    a = balanced_subsample(records, 20, rng=5)
    b = balanced_subsample(records, 20, rng=5)
    c = balanced_subsample(records, 20, rng=6)
    assert [r.record_id for r in a] == [r.record_id for r in b]
    assert [r.record_id for r in a] != [r.record_id for r in c]


def test_records_jsonl_round_trip(tmp_path):
    records = [
        rec(0, "s0", "za", "1", y="0", x="ctx=za u=1"),
        LabeledRecord("r1", x="plain", s=None, z="zb"),
    ]
    path = tmp_path / "records.jsonl"
    dump_records(records, path)
    again = load_records(path)
    assert again == records


def test_records_stay_frozen_hashable_and_dump_the_same_bytes(tmp_path):
    a = rec(0, "s0", "za", "1", y="0", x="ctx=za u=1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.y_hat = "0"
    assert not hasattr(a, "__dict__")  # slots: no per-record attribute dict
    again = rec(0, "s0", "za", "1", y="0", x="ctx=za u=1")
    assert hash(a) == hash(again) and len({a, again}) == 1
    path = tmp_path / "records.jsonl"
    dump_records([a, LabeledRecord("r1", x={"k": [1, 2]}, s=None, z=3)], path)
    assert path.read_bytes() == (
        b'{"record_id": "r0", "s": "s0", "x": "ctx=za u=1", "y": "0", '
        b'"y_hat": "1", "z": "za"}\n'
        b'{"record_id": "r1", "s": null, "x": {"k": [1, 2]}, "y": null, '
        b'"y_hat": null, "z": 3}\n'
    )


def test_exact_prediction_law_tiny_model():
    from stratinv.fixtures import ctx_reader, metric_predictor
    from tests_support import tiny_confounded

    scm = tiny_confounded()
    table = exact_prediction_law(scm, metric_predictor(ctx_reader))
    # a ctx reader's potential law puts all mass on the intervened context,
    # in every stratum
    for (z, _s), law in table.items():
        assert law == {z: pytest.approx(1.0)}


def test_invariance_check_flags_context_reader():
    from stratinv.fixtures import ctx_reader, metric_predictor, u1_reader
    from tests_support import tiny_confounded

    scm = tiny_confounded()
    bad = check_stratified_invariance_exact(scm, metric_predictor(ctx_reader))
    assert not bad.invariant and bad.deviation == pytest.approx(1.0)
    good = check_stratified_invariance_exact(scm, metric_predictor(u1_reader))
    assert good.invariant and good.deviation == 0.0


def test_counterfactual_check_and_witness():
    from stratinv.fixtures import ctx_reader, metric_predictor, u1_reader
    from tests_support import tiny_confounded

    scm = tiny_confounded()
    good = check_counterfactual_invariance_exact(scm, metric_predictor(u1_reader))
    assert good.invariant and good.agreement_mass == pytest.approx(1.0)
    bad = check_counterfactual_invariance_exact(scm, metric_predictor(ctx_reader))
    assert not bad.invariant
    assert bad.witness is not None
    u, z1, z2, y1, y2 = bad.witness
    assert y1 != y2


def test_ci_probability_counts_agreeing_profiles():
    pred = {
        ("za", (0,)): "1", ("zb", (0,)): "1",   # agrees
        ("za", (1,)): "1", ("zb", (1,)): "0",   # disagrees
    }
    assert ci_probability(pred) == pytest.approx(0.5)


def test_potential_prediction_map_shares_streams_across_contexts():
    from tests_support import tiny_confounded

    scm = tiny_confounded()
    calls = []

    def randomized(x, s, rng):
        draw = float(rng.random())
        calls.append(draw)
        return "1" if draw < 0.5 else "0"

    pm = potential_prediction_map(scm, randomized, seed=13)
    # same u gets the same stream under both contexts, so a predictor that
    # ignores x is context-free by construction
    by_u = {}
    for (z, u), label in pm.items():
        by_u.setdefault(u, set()).add(label)
    assert all(len(labels) == 1 for labels in by_u.values())
    assert ci_probability(pm) == 1.0


def test_positivity_check():
    from stratinv.scm import DiscreteScm, FiniteDomain
    from tests_support import tiny_confounded

    assert check_positivity(tiny_confounded()).ok
    # degenerate context assignment: stratum "all" never sees zb
    rigged = DiscreteScm(
        u_domains=(FiniteDomain("u1", (0, 1)),),
        z_domain=FiniteDomain("z", ("za", "zb")),
        p_u={(0,): 0.5, (1,): 0.5},
        z_parents=("u1",),
        p_z_given_parents={
            (0,): {"za": 1.0, "zb": 0.0},
            (1,): {"za": 1.0, "zb": 0.0},
        },
        x_fn=lambda z, u: f"ctx={z}",
        y_fn=lambda z, u: u[0],
        s_fn=lambda z, u, y: "all",
    )
    bad = check_positivity(rigged)
    assert not bad.ok
    assert ("all", "zb", 0.0) in bad.witnesses


def test_permutation_test_rejects_context_copy():
    rng = np.random.default_rng(1)
    records = []
    for i in range(200):
        s = "s0" if rng.integers(2) else "s1"
        z = "za" if rng.integers(2) else "zb"
        records.append(rec(i, s, z, z))
    out = ci_permutation_test(records, permutations=199, rng=rng)
    assert out.statistic == pytest.approx(1.0)
    assert out.p_value <= 0.05


def test_permutation_test_p_value_bounds_and_determinism():
    rng = np.random.default_rng(2)
    records = []
    for i in range(80):
        s = "s0" if rng.integers(2) else "s1"
        z = "za" if rng.integers(2) else "zb"
        records.append(rec(i, s, z, str(rng.integers(2))))
    a = ci_permutation_test(records, permutations=99, rng=np.random.default_rng(9))
    b = ci_permutation_test(records, permutations=99, rng=np.random.default_rng(9))
    assert a.p_value == b.p_value
    assert 1 / 100 <= a.p_value <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    flips=st.lists(st.sampled_from(["0", "1"]), min_size=8, max_size=40),
)
def test_si_bias_bounded_and_symmetric(flips):
    records = [
        rec(i, "s", "za" if i % 2 else "zb", y_hat) for i, y_hat in enumerate(flips)
    ]
    value = si_bias(records).value
    assert 0.0 <= value <= 1.0
    mirrored = [
        LabeledRecord(r.record_id, r.x, r.s, "za" if r.z == "zb" else "zb",
                      y=r.y, y_hat=r.y_hat)
        for r in records
    ]
    assert si_bias(mirrored).value == pytest.approx(value)


# --- reference implementations -----------------------------------------------
#
# The loop versions the count-table engine replaced. The engine must agree with
# them exactly: same floats, same per-stratum order, same errors.


def reference_si_bias(records, *, strict_binary=False):
    if not records:
        raise MissingLabels("no records")
    for r in records:
        if r.y_hat is None:
            raise MissingLabels(f"record {r.record_id!r} has no prediction")
    counts = {}
    strata = list(dict.fromkeys(r.s for r in records))
    contexts = list(dict.fromkeys(r.z for r in records))
    labels = list(dict.fromkeys(r.y_hat for r in records))
    for r in records:
        key = (r.s, r.z, r.y_hat)
        counts[key] = counts.get(key, 0) + 1
    if strict_binary and len(labels) > 2:
        raise NonBinaryLabel(
            f"strict binary mode with labels {sorted(map(str, labels))}"
        )

    def total(s, z):
        return sum(counts.get((s, z, y), 0) for y in labels)

    for s in strata:
        for z in contexts:
            if total(s, z) == 0:
                raise EmptyCell(f"no records with stratum={s!r}, context={z!r}")
    per_stratum = []
    for s in strata:
        gap = 0.0
        for z1, z2 in itertools.combinations(contexts, 2):
            for y in labels:
                r1 = counts.get((s, z1, y), 0) / total(s, z1)
                r2 = counts.get((s, z2, y), 0) / total(s, z2)
                gap = max(gap, abs(r1 - r2))
        per_stratum.append((s, gap))
    value = max((g for _, g in per_stratum), default=0.0)
    return SiBiasReport(value, tuple(per_stratum), len(records))


def reference_macro_f1(records, labels=None):
    classes = (
        list(labels)
        if labels is not None
        else list(dict.fromkeys([r.y for r in records] + [r.y_hat for r in records]))
    )
    scores = []
    for c in classes:
        tp = sum(1 for r in records if r.y == c and r.y_hat == c)
        fp = sum(1 for r in records if r.y != c and r.y_hat == c)
        fn = sum(1 for r in records if r.y == c and r.y_hat != c)
        if tp + fp + fn == 0:
            scores.append(1.0)
        else:
            scores.append(2 * tp / (2 * tp + fp + fn))
    return float(np.mean(scores))


def reference_balanced_subsample(records, n, rng):
    """The per-cell scan: every record is visited once per (s, z) cell."""
    records = list(records)
    if not records:
        raise BalanceError(f"no records to draw a balanced subsample of {n} from")
    strata = list(dict.fromkeys(r.s for r in records))
    contexts = list(dict.fromkeys(r.z for r in records))
    per_cell = n // (len(strata) * len(contexts))
    if per_cell < 1:
        raise BalanceError(
            f"n={n} gives an empty per-cell quota for "
            f"{len(strata)}x{len(contexts)} cells"
        )
    out = []
    for s in strata:
        for z in contexts:
            cell = [r for r in records if r.s == s and r.z == z]
            if len(cell) < per_cell:
                raise BalanceError(
                    f"cell (s={s!r}, z={z!r}) has {len(cell)} records, "
                    f"needs {per_cell}"
                )
            picked = rng.choice(len(cell), size=per_cell, replace=False)
            out.extend(cell[i] for i in sorted(picked))
    return out


def reference_permuted_tables(records):
    """Exact law of each stratum's (context x label) table under the shuffle.

    Every permutation of a stratum's contexts is applied record by record and
    counted with one bincount, as the per-record permutation loop did.
    """
    strata = list(dict.fromkeys(r.s for r in records))
    contexts = list(dict.fromkeys(r.z for r in records))
    labels = list(dict.fromkeys(r.y_hat for r in records))
    laws = []
    for s in strata:
        zi = [contexts.index(r.z) for r in records if r.s == s]
        yi = np.array([labels.index(r.y_hat) for r in records if r.s == s])
        law = Counter()
        perms = list(itertools.permutations(zi))
        for perm in perms:
            flat = np.array(perm) * len(labels) + yi
            cell = np.bincount(flat, minlength=len(contexts) * len(labels))
            law[tuple(cell.tolist())] += 1 / len(perms)
        laws.append(law)
    return laws


def reference_max_context_deviation(table):
    """The pairwise loop over strata, context pairs and labels."""
    strata = {s for (_z, s) in table}
    zs = list(dict.fromkeys(z for (z, _s) in table))
    labels = {y for law in table.values() for y in law}
    dev = 0.0
    for s in strata:
        for i, z1 in enumerate(zs):
            for z2 in zs[i + 1 :]:
                for y in labels:
                    dev = max(
                        dev,
                        abs(
                            table[(z1, s)].get(y, 0.0)
                            - table[(z2, s)].get(y, 0.0)
                        ),
                    )
    return dev


_cells = st.lists(
    st.tuples(
        st.sampled_from([None, "s0", "s1", 2]),
        st.sampled_from(["za", "zb", "zc"]),
        st.sampled_from(["0", "1", "2", None]),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(cells=_cells, strict=st.booleans())
# 3/5 rounds differently from 3 * (1/5), so the rates must be divided alike
@example(cells=[("s", "za", "1")] * 3 + [("s", "za", "0")] * 2 + [("s", "zb", "0")],
         strict=False)
def test_si_bias_matches_the_loop_reference(cells, strict):
    records = [rec(i, s, z, y_hat) for i, (s, z, y_hat) in enumerate(cells)]
    try:
        expected = reference_si_bias(records, strict_binary=strict)
    except (MissingLabels, NonBinaryLabel, EmptyCell) as exc:
        with pytest.raises(type(exc)) as got:
            si_bias(records, strict_binary=strict)
        assert str(got.value) == str(exc)
        return
    report = si_bias(records, strict_binary=strict)
    assert repr(report.value) == repr(expected.value)
    assert repr(report.per_stratum) == repr(expected.per_stratum)
    assert report.n == expected.n


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "d"])),
        min_size=1, max_size=30,
    ),
    labels=st.none() | st.lists(st.sampled_from(["a", "b", "c", "d", "e"]),
                                min_size=1, max_size=5, unique=True),
)
def test_macro_f1_matches_the_loop_reference(pairs, labels):
    records = [rec(i, "s", "z", y_hat, y=y) for i, (y, y_hat) in enumerate(pairs)]
    assert repr(macro_f1(records, labels)) == repr(
        reference_macro_f1(records, labels)
    )


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(
        st.tuples(st.sampled_from([None, "s0", "s1", 2]), st.sampled_from(["za", "zb", 1])),
        max_size=40,
    ),
    n=st.integers(0, 24),
    seed=st.integers(0, 2**16),
)
def test_balanced_subsample_matches_the_loop_reference(cells, n, seed):
    records = [rec(i, s, z, "1") for i, (s, z) in enumerate(cells)]
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = reference_balanced_subsample(records, n, reference_rng)
    except BalanceError as exc:
        with pytest.raises(type(exc)) as got:
            balanced_subsample(records, n, rng)
        assert str(got.value) == str(exc)
        return
    out = balanced_subsample(records, n, rng)
    assert [r.record_id for r in out] == [r.record_id for r in expected]
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(n_s=st.integers(0, 3), n_z=st.integers(1, 4), data=st.data())
def test_max_context_deviation_matches_the_loop_reference(n_s, n_z, data):
    # ragged laws: each (z, s) names its own labels, the rest count as 0
    law = st.dictionaries(
        st.sampled_from(["0", "1", "2", 3]), st.floats(0.0, 1.0), max_size=4
    )
    table = {
        (z, s): data.draw(law)
        for s in ("s0", None, 2)[:n_s]
        for z in ("za", "zb", "zc", 0)[:n_z]
    }
    assert max_context_deviation(table).hex() == (
        reference_max_context_deviation(table).hex()
    )


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(
        st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)
    ),
    data=st.data(),
)
def test_random_tables_keep_every_stratum_margin(shape, data):
    n_s, n_z, n_y, size = shape
    flat = data.draw(st.lists(st.integers(0, 6), min_size=n_s * n_z * n_y,
                              max_size=n_s * n_z * n_y))
    counts = np.array(flat, dtype=np.int64).reshape(n_s, n_z, n_y)
    seed = data.draw(st.integers(0, 2**32 - 1))
    tables = _random_tables(
        counts.sum(axis=2), counts.sum(axis=1), size, np.random.default_rng(seed)
    )
    assert tables.shape == (size, n_s, n_z, n_y)
    assert (tables >= 0).all()
    assert (tables.sum(axis=3) == counts.sum(axis=2)).all()
    assert (tables.sum(axis=2) == counts.sum(axis=1)).all()


def test_random_tables_follow_the_exact_permutation_law():
    # two strata small enough to enumerate every within-stratum permutation
    records = [
        rec(i, "s0", z, y_hat)
        for i, (z, y_hat) in enumerate(
            zip(["za", "za", "za", "zb", "zb", "zc"], ["0", "0", "1", "1", "2", "2"])
        )
    ] + [
        rec(10 + i, "s1", z, y_hat)
        for i, (z, y_hat) in enumerate(
            zip(["za", "zb", "zb", "zc", "zc"], ["0", "1", "1", "1", "0"])
        )
    ]
    laws = reference_permuted_tables(records)
    counts, _report = _bias_table(records)
    draws = 20_000
    tables = _random_tables(
        counts.sum(axis=2), counts.sum(axis=1), draws, np.random.default_rng(20)
    )
    for k, law in enumerate(laws):
        seen = Counter(tuple(t.ravel().tolist()) for t in tables[:, k])
        assert set(seen) <= set(law)
        for table, p in law.items():
            se = np.sqrt(p * (1 - p) / draws)
            assert abs(seen[table] / draws - p) <= 5 * se, (k, table)
