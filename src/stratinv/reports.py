"""Result rows for evaluation runs, with JSON/CSV emission and comparisons.

A row records one scalar: which dataset, which context pair, which method
produced it, which metric it is, the value, an optional dispersion, the
sample size, and the digest of the run manifest it came from.  Comparison
tables subtract each method's value from the baseline method's, so positive
deltas mean the method improved on the baseline for cost-like metrics.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence

from .errors import FieldTable, MissingBaseline, StratinvError, json_input, text_output

#: Metrics whose values must land in [0, 1]; anything else is unchecked.
UNIT_INTERVAL_METRICS = frozenset(
    {"si_bias", "macro_f1", "ci_probability", "p_value", "failure_rate"}
)

# Each field of a rows file, in column order, and its JSON type.
_ROW_FIELDS = FieldTable("report field", {
    "dataset": "string", "z_pair": "string", "method": "string", "metric": "string",
    "value": "number", "dispersion": "number or null", "n": "integer or null",
    "manifest": "string",
}, required=("dataset", "method", "metric", "value"))
_FIELDS = tuple(_ROW_FIELDS.types)


@dataclass(frozen=True)
class ReportRow:
    dataset: str
    z_pair: str
    method: str
    metric: str
    value: float
    dispersion: float | None = None
    n: int | None = None
    manifest: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ReportRow":
        if not self.dataset or not self.method or not self.metric:
            raise ValueError("dataset, method and metric must be non-empty")
        if self.metric in UNIT_INTERVAL_METRICS and not 0.0 <= self.value <= 1.0:
            raise ValueError(
                f"{self.metric} value {self.value!r} outside [0, 1]"
            )
        if self.dispersion is not None and self.dispersion < 0:
            raise ValueError("dispersion must be non-negative")
        if self.n is not None and self.n < 0:
            raise ValueError("n must be non-negative")
        return self


def row_to_dict(row: ReportRow) -> dict:
    return asdict(row)


def row_from_dict(doc: dict) -> ReportRow:
    dispersion = _ROW_FIELDS.check(doc).get("dispersion")
    return ReportRow(**{
        "z_pair": "all", **doc, "value": float(doc["value"]),
        "dispersion": None if dispersion is None else float(dispersion),
    })


def write_rows_json(rows: Sequence[ReportRow], path) -> None:
    doc = [row_to_dict(r) for r in rows]
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with text_output(path) as fh:
        fh.write(text)


def load_rows(path) -> list[ReportRow]:
    with json_input(path, list) as doc:
        return [row_from_dict(d) for d in doc]


def write_rows_csv(rows: Sequence[ReportRow], path) -> None:
    with text_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_FIELDS)
        for row in rows:
            d = row_to_dict(row)
            writer.writerow(
                ["" if d[f] is None else d[f] for f in _FIELDS]
            )


def delta_vs_baseline(
    rows: Iterable[ReportRow], baseline: str = "standard"
) -> list[ReportRow]:
    """Per (dataset, z_pair, metric) group, baseline value minus each method's.

    The baseline's own delta row is included and is always zero.  A group
    with no baseline row raises :class:`MissingBaseline`; one with two or
    more raises StratinvError, since which to subtract from is unknown.
    """
    groups: dict[tuple, list[ReportRow]] = {}
    for row in rows:
        groups.setdefault((row.dataset, row.z_pair, row.metric), []).append(row)
    out: list[ReportRow] = []
    for key in sorted(groups):
        group = groups[key]
        base = [r for r in group if r.method == baseline]
        if len(base) != 1:
            dataset, z_pair, metric = key
            where = f"dataset={dataset!r} z_pair={z_pair!r} metric={metric!r}"
            if not base:
                raise MissingBaseline(f"no {baseline!r} row for {where}")
            manifests = ", ".join(repr(r.manifest) for r in base)
            raise StratinvError(
                f"{len(base)} {baseline!r} rows for {where}, from manifests "
                f"{manifests}; a group takes one baseline row"
            )
        base_value = base[0].value
        for row in group:
            out.append(
                replace(
                    row,
                    metric=f"delta_{row.metric}",
                    value=base_value - row.value,
                    dispersion=None,
                )
            )
    return out
