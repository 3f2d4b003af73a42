"""Metric oracles: hand-computed rates, exact laws, calibration behavior."""

import dataclasses
import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tests_support
from stratinv import metrics
from stratinv.errors import BalanceError, EmptyCell, MissingLabels
from stratinv.metrics import (
    LabeledRecord,
    RecordTable,
    SiBiasReport,
    _bias_table,
    _context_gaps,
    _random_tables,
    balanced_subsample,
    check_stratified_invariance_exact,
    ci_permutation_test,
    ci_probability,
    dump_records,
    exact_prediction_law,
    load_record_table,
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


def test_si_bias_multiclass():
    records = (
        block(0, "s", "za", "a", 2) + block(10, "s", "za", "b", 1)
        + block(20, "s", "za", "c", 1)
        + block(30, "s", "zb", "a", 1) + block(40, "s", "zb", "b", 1)
        + block(50, "s", "zb", "c", 2)
    )
    # max over labels: P(a|za)=1/2 vs 1/4 -> 0.25; c likewise
    assert si_bias(records).value == pytest.approx(0.25)


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


def test_a_record_line_ignores_other_keys_and_keeps_a_repeated_keys_last_value(tmp_path):
    """A record file has no key table, so audit's scan stays one json call
    per line: an unknown key is read past and a repeated key keeps its last
    value, in the record list and the record table alike."""
    path = tmp_path / "records.jsonl"
    path.write_text('{"record_id": "r0", "x": "a", "z": "za", "note": [1], "z": "zb"}\n'
                    '{"record_id": "r1", "record_id": "r2", "x": "b", "y": "1", "y": "0"}\n')
    assert load_records(path) == [
        LabeledRecord("r0", "a", None, "zb"), LabeledRecord("r2", "b", None, None, "0"),
    ]
    table = load_record_table(path)
    assert table.record_ids == ["r0", "r2"]
    assert (table.z.values, table.y.values) == (["zb", None], [None, "0"])


def test_blank_lines_are_skipped_but_counted(tmp_path):
    path = tmp_path / "records.jsonl"
    lines = ['', '{"record_id": "r0", "x": "a"}', "  \t", "",
             '{"record_id": "r1", "x": "b", "z": "za"}', ""]
    path.write_text("\n".join(lines) + "\n")
    assert load_records(path) == [
        LabeledRecord("r0", "a", None, None), LabeledRecord("r1", "b", None, "za")
    ]
    path.write_text("\n".join(lines + ["{bad"]) + "\n")
    with pytest.raises(ValueError) as err:
        load_records(path)
    assert str(err.value).startswith(f"{path} line 7: malformed JSON")


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


# Scalars that compare equal across types (True == 1 == 1.0) or read alike
# ("1", "true"), so a load that merged equal values would change a type.
_field_values = st.one_of(
    st.sampled_from([None, True, False, 1, 0, 1.0, 0.0, "1", "true", "1.0", "s0", ""]),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(fields=st.lists(st.tuples(*[_field_values] * 4), max_size=12))
@example(fields=[(True, 1, 1.0, "1"), (1, 1.0, True, "true"), (1.0, True, 1, "true")])
def test_records_round_trip_keeping_types_and_sharing_equal_strings(
    tmp_path_factory, fields
):
    records = [
        LabeledRecord(f"r{i}", f"x{i}", s, z, y, y_hat)
        for i, (s, z, y, y_hat) in enumerate(fields)
    ]
    path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
    dump_records(records, path)
    again = load_records(path)
    assert len(again) == len(records)
    shared: dict[str, str] = {}
    for got, want in zip(again, records):
        for name in ("record_id", "x", "s", "z", "y", "y_hat"):
            value = getattr(got, name)
            assert value == getattr(want, name)
            assert type(value) is type(getattr(want, name))
            if name in ("s", "z", "y", "y_hat") and type(value) is str:
                assert shared.setdefault(value, value) is value


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(1, 3, 3, 4), seed=0)
@example(shape=(3, 1, 3, 4), seed=0)
def test_context_gaps_match_the_axis_reductions(shape, seed):
    # (Z, Y, batch, S), as the permutation test lays its null tables out
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=shape)
    counts[:, 0] += 1  # no empty (s, z) row
    # random floats, and rates from small counts, which tie often
    for rates in (rng.random(shape), counts / counts.sum(axis=1, keepdims=True)):
        expected = (rates.max(axis=0) - rates.min(axis=0)).max(axis=0)
        assert np.array_equal(_context_gaps(rates), expected)
        # the (..., S, Z, Y) slice loops it replaced
        old_layout = rates.transpose(2, 3, 0, 1)
        assert _context_gaps(rates).tobytes() == tests_support._context_gaps(
            old_layout
        ).tobytes()


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


def reference_si_bias(records):
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


def reference_macro_f1(records):
    classes = dict.fromkeys([r.y for r in records] + [r.y_hat for r in records])
    scores = []
    for c in classes:
        tp = sum(1 for r in records if r.y == c and r.y_hat == c)
        fp = sum(1 for r in records if r.y != c and r.y_hat == c)
        fn = sum(1 for r in records if r.y == c and r.y_hat != c)
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
@given(cells=_cells)
# 3/5 rounds differently from 3 * (1/5), so the rates must be divided alike
@example(cells=[("s", "za", "1")] * 3 + [("s", "za", "0")] * 2 + [("s", "zb", "0")])
def test_si_bias_matches_the_loop_reference(cells):
    records = [rec(i, s, z, y_hat) for i, (s, z, y_hat) in enumerate(cells)]
    try:
        expected = reference_si_bias(records)
    except (MissingLabels, EmptyCell) as exc:
        with pytest.raises(type(exc)) as got:
            si_bias(records)
        assert str(got.value) == str(exc)
        return
    report = si_bias(records)
    assert repr(report.value) == repr(expected.value)
    assert repr(report.per_stratum) == repr(expected.per_stratum)
    assert report.n == expected.n


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "d"])),
        min_size=1, max_size=30,
    ),
)
def test_macro_f1_matches_the_loop_reference(pairs):
    records = [rec(i, "s", "z", y_hat, y=y) for i, (y, y_hat) in enumerate(pairs)]
    assert repr(macro_f1(records)) == repr(reference_macro_f1(records))


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
    counts = np.array(flat, dtype=np.int64).reshape(n_z, n_y, n_s)
    seed = data.draw(st.integers(0, 2**32 - 1))
    tables = _random_tables(
        counts.sum(axis=1), counts.sum(axis=0), size, np.random.default_rng(seed)
    )
    assert tables.shape == (n_z, n_y, size, n_s)
    assert (tables >= 0).all()
    assert (tables.sum(axis=1) == counts.sum(axis=1)[:, None]).all()
    assert (tables.sum(axis=0) == counts.sum(axis=0)[:, None]).all()


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
        counts.sum(axis=1), counts.sum(axis=0), draws, np.random.default_rng(20)
    )
    for k, law in enumerate(laws):
        # stratum k's draws, each a (Z, Y) table
        seen = Counter(
            tuple(t.ravel().tolist()) for t in tables[..., k].transpose(2, 0, 1)
        )
        assert set(seen) <= set(law)
        for table, p in law.items():
            se = np.sqrt(p * (1 - p) / draws)
            assert abs(seen[table] / draws - p) <= 5 * se, (k, table)


def reference_permutation_test(records, permutations, seed):
    """The (batch, S, Z, Y) permutation test: its observed per-stratum gaps,
    each batch's (batch, S) null gaps, the statistic and the p-value."""
    strata = list(dict.fromkeys(r.s for r in records))
    contexts = list(dict.fromkeys(r.z for r in records))
    labels = list(dict.fromkeys(r.y_hat for r in records))
    counts = np.zeros((len(strata), len(contexts), len(labels)), dtype=np.int64)
    for r in records:
        counts[strata.index(r.s), contexts.index(r.z), labels.index(r.y_hat)] += 1
    observed = tests_support._context_gaps(tests_support._rates(counts))
    statistic = max(observed.tolist())
    rng = np.random.default_rng(seed)
    batch = max(1, metrics.PERMUTATION_BATCH_CELLS // counts.size)
    null, exceed = [], 0
    for done in range(0, permutations, batch):
        tables = tests_support._random_tables(
            counts.sum(axis=2), counts.sum(axis=1), min(batch, permutations - done), rng
        )
        null.append(tests_support._context_gaps(tests_support._rates(tables)))
        exceed += int(np.count_nonzero(null[-1].max(axis=1) >= statistic - 1e-12))
    return observed, null, statistic, (1 + exceed) / (1 + permutations)


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 4)),
    data=st.data(),
)
def test_the_permutation_test_matches_the_batch_major_kernel(shape, data):
    n_s, n_z, n_y = shape
    # (Z, Y, S) counts: a label may be missing from a stratum or from them all,
    # but every (s, z) row holds a record
    flat = data.draw(st.lists(st.integers(0, 4), min_size=n_s * n_z * n_y,
                              max_size=n_s * n_z * n_y))
    counts = np.array(flat, dtype=np.int64).reshape(n_z, n_y, n_s)
    counts[:, data.draw(st.integers(0, n_y - 1))] += counts.sum(axis=1) == 0
    context_totals, label_totals = counts.sum(axis=1), counts.sum(axis=0)
    sizes = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in sizes:
        tables = _random_tables(context_totals, label_totals, size, rng)
        expected = tests_support._random_tables(
            context_totals.T, label_totals.T, size, reference_rng
        )
        assert np.array_equal(tables.transpose(2, 3, 0, 1), expected)
    assert rng.bit_generator.state == reference_rng.bit_generator.state

    # the whole test, batch after batch, often with a partial last batch
    cells = [
        (s, z, y) for s in range(n_s) for z in range(n_z) for y in range(n_y)
        for _ in range(counts[z, y, s])
    ]
    records = [rec(i, f"s{s}", f"z{z}", f"y{y}") for i, (s, z, y) in enumerate(cells)]
    batch_cells = data.draw(st.sampled_from([metrics.PERMUTATION_BATCH_CELLS, 1])
                            | st.integers(2, 200))
    permutations = data.draw(st.integers(1, 120))
    gaps = []

    def context_gaps(rates):
        gaps.append(_context_gaps(rates))
        return gaps[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "PERMUTATION_BATCH_CELLS", batch_cells)
        patch.setattr(metrics, "_context_gaps", context_gaps)
        report = ci_permutation_test(records, permutations, seed)
        observed, null, statistic, p_value = reference_permutation_test(
            records, permutations, seed
        )
    # every stratum's gap in every permuted table, byte for byte
    assert gaps[0].tobytes() == observed.tobytes()
    assert [g.tobytes() for g in gaps[1:]] == [g.tobytes() for g in null]
    assert [g.max(axis=1).tobytes() for g in gaps[1:]] == [
        g.max(axis=1).tobytes() for g in null
    ]
    assert report.statistic.hex() == statistic.hex()
    assert report.p_value.hex() == p_value.hex()


def _synthetic_log(seed, n_strata, contexts, labels, n=600):
    """Records whose prediction leans a little on the context."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        s = int(rng.integers(n_strata))
        z = int(rng.integers(len(contexts)))
        weight = np.ones(len(labels)) + 0.15 * (np.arange(len(labels)) == z % len(labels))
        y_hat = int(rng.choice(len(labels), p=weight / weight.sum()))
        records.append(rec(i, f"s{s}", contexts[z], labels[y_hat]))
    return records


@pytest.mark.parametrize(
    "shape, seed, statistic, p_value",
    [
        # 20 strata of 2 x 2 cells: 80 cells, batches of 819 and 180 tables
        ((20, 2), 1, "0x1.35c81135c8114p-2", "0x1.d0e5604189375p-1"),
        ((20, 2), 2, "0x1.ad4ad4ad4ad4cp-2", "0x1.978d4fdf3b646p-2"),
        ((20, 2), 3, "0x1.97bf2197bf21ap-2", "0x1.1a1cac083126fp-1"),
        # 12 strata of 3 x 3 cells: 108 cells, batches of 606 and 393 tables
        ((12, 3), 1, "0x1.3777777777777p-1", "0x1.6872b020c49bap-5"),
        ((12, 3), 2, "0x1.16c16c16c16c1p-1", "0x1.95810624dd2f2p-4"),
        ((12, 3), 3, "0x1.7c57c57c57c58p-2", "0x1.cfdf3b645a1cbp-1"),
    ],
)
def test_the_p_value_stream_is_pinned(shape, seed, statistic, p_value):
    # A change to the draw order, the batch size or the arithmetic moves
    # these: the seed alone must keep fixing every p-value.
    n_strata, width = shape
    contexts, labels = ("za", "zb", "zc")[:width], ("0", "1", "2")[:width]
    records = _synthetic_log(seed, n_strata, contexts, labels)
    report = ci_permutation_test(records, 999, np.random.default_rng(seed))
    assert 1 / 1000 < report.p_value < 1
    assert (report.statistic.hex(), report.p_value.hex()) == (statistic, p_value)


# --- the table loader --------------------------------------------------------


def oracle_load_records(path):
    """The per-line ``json.loads`` loader the scanner fast path replaced."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                doc = json.loads(line)
                record_id, x = doc["record_id"], doc["x"]
                s, z, y, y_hat = doc.get("s"), doc.get("z"), doc.get("y"), doc.get("y_hat")
                hash((s, z, y, y_hat))
            except json.JSONDecodeError as exc:
                if not line.strip():
                    continue
                raise ValueError(
                    f"{path} line {lineno}: malformed JSON: {exc.msg} "
                    f"at column {exc.colno}"
                ) from None
            except KeyError as exc:
                raise ValueError(
                    f"{path} line {lineno}: missing field {exc.args[0]!r}"
                ) from None
            except TypeError:
                if not isinstance(doc, dict):
                    raise ValueError(
                        f"{path} line {lineno}: a record must be a JSON object, "
                        f"got {line.strip()[:40]}"
                    ) from None
                name = next(
                    f for f in ("s", "z", "y", "y_hat")
                    if isinstance(doc.get(f), (list, dict))
                )
                raise ValueError(
                    f"record {doc['record_id']!r}: field {name!r} must be a "
                    f"scalar, got {doc[name]!r}"
                ) from None
            out.append(LabeledRecord(record_id, x, s, z, y, y_hat))
    return out


def _outcome(load, path):
    """The records with each field's type, or the ValueError's text."""
    try:
        return [
            tuple((type(v), v) for v in dataclasses.astuple(r)) for r in load(path)
        ]
    except ValueError as exc:
        return str(exc)


_record_line = st.builds(
    lambda rid, fields, keep: json.dumps(
        {"record_id": rid, "x": "x", **{k: v for k, v in fields.items() if k in keep}}
    ),
    st.sampled_from(["a", "b"]),
    st.fixed_dictionaries({k: _field_values for k in ("s", "z", "y", "y_hat")}),
    st.sets(st.sampled_from(["s", "z", "y", "y_hat", "record_id", "x"])),
)
_line = st.one_of(
    st.tuples(
        st.sampled_from(["", " ", "\t", "\ufeff", "\f"]),
        _record_line,
        st.sampled_from(["", " ", "  \t", "x", ",", ", 2", "}", "\u00a0", "\x00"]),
    ).map("".join),
    st.sampled_from(["", "  ", "1, 2", "{bad", "[1, 2]", '"r"', "null", '{"x": 1}',
                     '{"record_id": "a", "x": 1}x', '{"record_id": "a", "x": [1, 2]}']),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_line, max_size=6), newline_at_end=st.booleans())
@example(lines=['{"record_id": "a", "x": 1}x'], newline_at_end=False)
@example(lines=['  {"record_id": "a", "x": 1}   ', '\t{"record_id": "b", "x": 2} '],
         newline_at_end=True)
@example(lines=['\ufeff{"record_id": "a", "x": 1}'], newline_at_end=True)
@example(lines=['{"record_id": "a", "x": 1}', "1, 2"], newline_at_end=True)
@example(lines=['{"record_id": "a", "x": 1}', "{bad"], newline_at_end=False)
def test_the_scanner_reads_every_line_as_json_loads_does(
    tmp_path_factory, lines, newline_at_end
):
    path = tmp_path_factory.getbasetemp() / "boundary.jsonl"
    path.write_text("\n".join(lines) + ("\n" if newline_at_end else ""),
                    encoding="utf-8")
    want = _outcome(oracle_load_records, path)
    assert _outcome(load_records, path) == want
    try:
        table = load_record_table(path)
    except ValueError as exc:
        assert str(exc) == want
        return
    oracle = RecordTable.from_records(oracle_load_records(path))
    assert table.record_ids == oracle.record_ids
    for name in ("s", "z", "y", "y_hat"):
        _same_column(getattr(table, name), getattr(oracle, name))


def _same_column(got, want):
    assert [(type(v), v) for v in got.values] == [(type(v), v) for v in want.values]
    assert got.codes.dtype == want.codes.dtype == np.intp
    assert np.array_equal(got.codes, want.codes)


def _result(statistic, data):
    try:
        return repr(statistic(data))
    except (MissingLabels, EmptyCell) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    fields=st.lists(st.tuples(*[_field_values] * 4), max_size=12),
    blanks=st.lists(st.integers(0, 12), max_size=3),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
@example(fields=[(True, 1, 1.0, "1"), (1, 1.0, True, "true"), (1.0, True, 1, "true")],
         blanks=[0, 2], n=3, seed=0)
# the draw keeps row 1 of cell za, so the subsample sees "b" before "a"
@example(fields=[("s0", "za", "1", "a"), ("s0", "za", "1", "b"), ("s0", "zb", "1", "a")],
         blanks=[], n=2, seed=0)
def test_the_table_loader_matches_the_records_it_replaces(
    tmp_path_factory, fields, blanks, n, seed
):
    records = [
        LabeledRecord(f"r{i}", f"x{i}", s, z, y, y_hat)
        for i, (s, z, y, y_hat) in enumerate(fields)
    ]
    path = tmp_path_factory.getbasetemp() / "table.jsonl"
    dump_records(records, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for at in sorted(blanks, reverse=True):
        lines.insert(min(at, len(lines)), " " * (at % 2))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    listed = load_records(path)
    table = load_record_table(path)
    want = RecordTable.from_records(listed)
    assert table.record_ids == want.record_ids == [r.record_id for r in records]
    for name in ("s", "z", "y", "y_hat"):
        _same_column(getattr(table, name), getattr(want, name))

    assert _result(si_bias, table) == _result(si_bias, listed)
    assert _result(macro_f1, table) == _result(macro_f1, listed)
    if all(r.y is not None and r.y_hat is not None for r in listed) and listed:
        assert macro_f1(table) == reference_macro_f1(listed)
    test = lambda data: ci_permutation_test(data, 19, np.random.default_rng(seed))
    assert _result(test, table) == _result(test, listed)

    rng, list_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = balanced_subsample(listed, n, list_rng)
    except BalanceError as exc:
        with pytest.raises(BalanceError) as got:
            balanced_subsample(table, n, rng)
        assert str(got.value) == str(exc)
        return
    sub = balanced_subsample(table, n, rng)
    assert rng.bit_generator.state == list_rng.bit_generator.state
    again = RecordTable.from_records(expected)
    assert sub.record_ids == again.record_ids
    for name in ("s", "z", "y", "y_hat"):
        _same_column(getattr(sub, name), getattr(again, name))


def test_a_record_without_a_prediction_is_named_even_with_a_null_id():
    # a file refuses a null id, so the table is built from records
    table = RecordTable.from_records([
        LabeledRecord("r0", x=0, s="s", z="za", y="1", y_hat="1"),
        LabeledRecord(None, x=1, s="s", z="zb", y="1"),
    ])
    with pytest.raises(MissingLabels, match="^record None has no prediction$"):
        si_bias(table)
    with pytest.raises(MissingLabels, match="^record None lacks a label or a prediction$"):
        macro_f1(table)
