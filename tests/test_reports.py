"""Report rows: validation, serialization round-trips, baseline deltas."""

import csv

import pytest

from stratinv.errors import MissingBaseline, StratinvError
from stratinv.reports import (
    ReportRow,
    delta_vs_baseline,
    load_rows,
    row_from_dict,
    row_to_dict,
    write_rows_csv,
    write_rows_json,
)


def row(**kw):
    kw.setdefault("dataset", "demo")
    kw.setdefault("z_pair", "za|zb")
    kw.setdefault("method", "standard")
    kw.setdefault("metric", "si_bias")
    kw.setdefault("value", 0.25)
    return ReportRow(**kw)


def test_validate_ranges():
    assert row().validate() is not None
    with pytest.raises(ValueError, match="outside"):
        row(value=1.5).validate()
    with pytest.raises(ValueError, match="outside"):
        row(metric="macro_f1", value=-0.1).validate()
    # non-unit-interval metrics are unconstrained
    row(metric="delta_macro_f1", value=-0.4).validate()
    row(metric="perm_statistic", value=3.0).validate()
    with pytest.raises(ValueError, match="non-empty"):
        row(method="").validate()
    with pytest.raises(ValueError, match="dispersion"):
        row(dispersion=-1e-9).validate()
    with pytest.raises(ValueError, match="n must"):
        row(n=-2).validate()


def test_dict_round_trip_and_unknown_fields():
    full = row(dispersion=0.01, n=400, manifest="abc123")
    assert row_from_dict(row_to_dict(full)) == full
    with pytest.raises(ValueError, match="unknown report field 'extra'"):
        row_from_dict({**row_to_dict(full), "extra": 1})


def test_json_round_trip(tmp_path):
    rows = [row(), row(method="ooc", value=0.0, n=100)]
    path = tmp_path / "rows.json"
    write_rows_json(rows, path)
    assert load_rows(path) == rows
    assert path.read_text().endswith("\n")


def test_json_write_validates(tmp_path):
    with pytest.raises(ValueError, match="outside"):
        write_rows_json([row(value=2.0)], tmp_path / "rows.json")


def test_csv_shape_and_none_handling(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv([row(dispersion=None, n=None)], path)
    with open(path, newline="") as fh:
        header, data = list(csv.reader(fh))
    assert header == [
        "dataset", "z_pair", "method", "metric",
        "value", "dispersion", "n", "manifest",
    ]
    assert data == ["demo", "za|zb", "standard", "si_bias", "0.25", "", "", ""]


def test_delta_vs_baseline_hand_computed():
    rows = [
        row(method="standard", metric="si_bias", value=0.30),
        row(method="ooc", metric="si_bias", value=0.05),
        row(method="standard", metric="macro_f1", value=0.75),
        row(method="ooc", metric="macro_f1", value=0.70, dispersion=0.02),
    ]
    deltas = delta_vs_baseline(rows)
    by_key = {(r.method, r.metric): r for r in deltas}
    assert by_key[("ooc", "delta_si_bias")].value == pytest.approx(0.25)
    assert by_key[("standard", "delta_si_bias")].value == 0.0
    # sign convention: baseline minus method, so a worse (lower) F1 is positive
    assert by_key[("ooc", "delta_macro_f1")].value == pytest.approx(0.05)
    assert by_key[("ooc", "delta_macro_f1")].dispersion is None
    assert len(deltas) == 4


def test_delta_groups_do_not_mix():
    rows = [
        row(dataset="d1", method="standard", value=0.2),
        row(dataset="d1", method="ooc", value=0.1),
        row(dataset="d2", method="standard", value=0.9),
        row(dataset="d2", method="ooc", value=0.4),
    ]
    deltas = delta_vs_baseline(rows)
    values = {(r.dataset, r.method): r.value for r in deltas}
    assert values[("d1", "ooc")] == pytest.approx(0.1)
    assert values[("d2", "ooc")] == pytest.approx(0.5)


def test_delta_missing_baseline():
    with pytest.raises(MissingBaseline, match="no 'standard' row"):
        delta_vs_baseline([row(method="ooc")])
    # a different baseline name is honored
    out = delta_vs_baseline([row(method="ooc")], baseline="ooc")
    assert out[0].value == 0.0


def test_delta_refuses_two_baseline_rows():
    rows = [row(manifest="m1"), row(value=0.5, manifest="m2"), row(method="ooc")]
    with pytest.raises(StratinvError, match="2 'standard' rows .* 'm1', 'm2'"):
        delta_vs_baseline(rows)
    # one baseline row per group is enough; other groups may hold their own
    assert len(delta_vs_baseline([row(), row(metric="macro_f1")])) == 2
