"""Invariance metrics, exact checks, and the stratified permutation test.

Conventions used throughout:

* A record's stratum ``s`` may be None, which means the empty stratification
  (every record in one stratum).
* The bias statistic generalizes the binary rate-gap to any label domain by
  maxing the gap over all labels; for two labels this reduces to the binary
  formula, so there is no separate positive-label argument.
* The statistic is an *incomplete* invariance test on observational data: a
  zero gap certifies stratified invariance only when the stratifier is an
  adjustment set for (prediction, context). Reports carry that caveat.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Union

import numpy as np

from .errors import (
    BalanceError,
    EmptyCell,
    MissingCell,
    MissingLabels,
    text_output,
)
from . import scm as scm_mod

# Largest context deviation at which an exact prediction law still counts as
# invariant: an invariant law's per-context floating-point sums may differ in
# their last bits.
INVARIANCE_TOL = 1e-12

ADJUSTMENT_CAVEAT = (
    "zero bias certifies stratified invariance only if the stratifier is an "
    "adjustment set for (prediction, context); that premise is the caller's"
)


@dataclass(frozen=True, slots=True)
class LabeledRecord:
    """One dataset row: input, stratum, context, optional label/prediction."""

    record_id: str
    x: Any
    s: Any
    z: Any
    y: Any = None
    y_hat: Any = None


def _read_fields(path):
    """Each record line of a JSON-lines dataset, as ``(record_id, x, (s, z,
    y, y_hat))``; blank lines are skipped but counted.

    Each line holds one JSON object with at least ``record_id``, a string,
    and ``x``; malformed JSON, another value there, a missing field or an id
    that is not a string raises ValueError naming the file and the line. The
    fields that metrics group and count by (s, z, y, y_hat) must be scalars;
    a list or an object there raises ValueError naming the record.
    """
    scan = json.decoder.JSONDecoder().scan_once
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                try:
                    doc, end = scan(line, 0)
                except (StopIteration, json.JSONDecodeError):
                    end = None
                # Anything but one value that fills the line goes to json.loads,
                # which decides it and words its error.
                if end is None or (end != len(line) and line[end:] != "\n"):
                    doc = json.loads(line)
                record_id, x = doc["record_id"], doc["x"]
                fields = doc.get("s"), doc.get("z"), doc.get("y"), doc.get("y_hat")
                hash(fields)
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
            if record_id.__class__ is not str:
                raise ValueError(
                    f"{path} line {lineno}: record_id must be a string, "
                    f"got {record_id!r:.40}"
                )
            yield record_id, x, fields


def load_records(path) -> list[LabeledRecord]:
    """Read a JSON-lines dataset as records (see ``_read_fields`` for the
    format and its errors).

    Equal strings in s, z, y and y_hat are shared by the file's records, so
    a log over a few strata, contexts and labels holds each of them once.
    """
    out = []
    shared: dict[str, str] = {}  # str keys only: True == 1 == 1.0 must not merge
    for record_id, x, (s, z, y, y_hat) in _read_fields(path):
        if s.__class__ is str:
            s = shared.setdefault(s, s)
        if z.__class__ is str:
            z = shared.setdefault(z, z)
        if y.__class__ is str:
            y = shared.setdefault(y, y)
        if y_hat.__class__ is str:
            y_hat = shared.setdefault(y_hat, y_hat)
        out.append(LabeledRecord(record_id, x, s, z, y, y_hat))
    return out


def dump_records(records: Iterable[LabeledRecord], path) -> None:
    """Write a JSON-lines dataset with stable key order."""
    with text_output(path) as fh:
        for r in records:
            doc = {"record_id": r.record_id, "s": r.s, "x": r.x,
                   "y": r.y, "y_hat": r.y_hat, "z": r.z}
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


# --- records as integer-coded columns ---------------------------------------


class Column(NamedTuple):
    """One field of a record table: its distinct values in first-seen order
    (equal values, such as True, 1 and 1.0, are one value), and each record's
    index into them."""

    values: list
    codes: np.ndarray


@dataclass(frozen=True, slots=True)
class RecordTable:
    """The fields the statistics read, as integer-coded columns: each
    record's id, and its s, z, y and y_hat as codes into the field's
    distinct values."""

    record_ids: list
    s: Column
    z: Column
    y: Column
    y_hat: Column

    def __len__(self) -> int:
        return len(self.record_ids)

    @classmethod
    def from_records(cls, records: Iterable[LabeledRecord]) -> "RecordTable":
        """The table of ``records``, in their order."""
        return _table_of((r.record_id, None, (r.s, r.z, r.y, r.y_hat)) for r in records)

    def take(self, rows: np.ndarray) -> "RecordTable":
        """The records at ``rows``, in that order, each column renumbered in
        first-seen order among them."""
        fields = (
            [c.values[k] for k in c.codes[rows].tolist()]
            for c in (self.s, self.z, self.y, self.y_hat)
        )
        ids = [self.record_ids[i] for i in rows.tolist()]
        return _table_of(zip(ids, itertools.repeat(None), zip(*fields)))


Records = Union[RecordTable, Iterable[LabeledRecord]]


def as_table(data: Records) -> RecordTable:
    """``data`` itself if it is a table, else the table of its records."""
    return data if isinstance(data, RecordTable) else RecordTable.from_records(data)


def _table_of(rows: Iterable[tuple]) -> RecordTable:
    """The table of ``(record_id, x, (s, z, y, y_hat))`` rows; x is dropped."""
    ids: list = []
    s_at: dict[Any, int] = {}
    z_at: dict[Any, int] = {}
    y_at: dict[Any, int] = {}
    y_hat_at: dict[Any, int] = {}
    s_codes, z_codes, y_codes, y_hat_codes = [], [], [], []
    for record_id, _x, (s, z, y, y_hat) in rows:
        ids.append(record_id)
        s_codes.append(s_at.setdefault(s, len(s_at)))
        z_codes.append(z_at.setdefault(z, len(z_at)))
        y_codes.append(y_at.setdefault(y, len(y_at)))
        y_hat_codes.append(y_hat_at.setdefault(y_hat, len(y_hat_at)))
    return RecordTable(ids, *(
        Column(list(at), np.array(codes, dtype=np.intp))
        for at, codes in ((s_at, s_codes), (z_at, z_codes), (y_at, y_codes),
                          (y_hat_at, y_hat_codes))
    ))


def load_record_table(path) -> RecordTable:
    """Read a JSON-lines dataset straight into a table, with the format and
    errors of ``load_records`` and no record object per line."""
    return _table_of(_read_fields(path))


def _first_missing(table: RecordTable, *columns: Column) -> int | None:
    """The row of the first record holding None in any of ``columns``."""
    missing = np.zeros(len(table), dtype=bool)
    for column in columns:
        if None in column.values:
            missing |= column.codes == column.values.index(None)
    hit = np.flatnonzero(missing)
    return int(hit[0]) if hit.size else None


# --- the bias statistic ------------------------------------------------------


def _context_gaps(rates: np.ndarray) -> np.ndarray:
    """Per stratum of (Z, Y, ...) rates, the largest spread over contexts of
    P(y | s, z). Rounding is monotone, so max - min is the largest pairwise
    |difference| bit for bit. The context and label axes come first, so each
    reduction runs over whole contiguous slices."""
    spread = rates.max(axis=0) - rates.min(axis=0)
    return spread.max(axis=0)


@dataclass(frozen=True)
class SiBiasReport:
    value: float
    per_stratum: tuple[tuple[Any, float], ...]
    n: int
    caveat: str = ADJUSTMENT_CAVEAT


def _bias_table(data: Records):
    """Prediction counts as a (context, label, stratum) array, each axis in
    first-seen order, and the bias statistic they determine."""
    table = as_table(data)
    n = len(table)
    if not n:
        raise MissingLabels("no records")
    row = _first_missing(table, table.y_hat)
    if row is not None:
        raise MissingLabels(f"record {table.record_ids[row]!r} has no prediction")
    strata, contexts, labels = table.s.values, table.z.values, table.y_hat.values
    n_s, n_z, n_y = len(strata), len(contexts), len(labels)
    # each cell code is one new record-length array, added to in place
    cells = table.s.codes * n_z
    cells += table.z.codes
    # Checked before the dense table, which is huge when most cells are empty.
    # At most n cells hold records, so the first empty (s-major) one is <= n.
    sizes = np.bincount(np.minimum(cells, n), minlength=min(n_s * n_z, n + 1))
    empty = np.flatnonzero(sizes[: n_s * n_z] == 0)
    if empty.size:
        first = empty[0]
        raise EmptyCell(
            f"no records with stratum={strata[first // n_z]!r}, "
            f"context={contexts[first % n_z]!r}"
        )
    cells = table.z.codes * n_y
    cells += table.y_hat.codes
    cells *= n_s
    cells += table.s.codes
    counts = np.bincount(cells, minlength=n_z * n_y * n_s).reshape(n_z, n_y, n_s)
    rates = counts / counts.sum(axis=1)[:, None]
    per_stratum = tuple(zip(strata, _context_gaps(rates).tolist()))
    value = max(g for _, g in per_stratum)
    return counts, SiBiasReport(value, per_stratum, n)


def si_bias(data: Records) -> SiBiasReport:
    """Max over strata and context pairs of the prediction-rate gap.

    For each stratum s and pair of contexts z1, z2, the gap is
    max over labels y of |P(yhat=y | s, z1) - P(yhat=y | s, z2)|; the
    statistic is the largest gap. Every observed (s, z) cell must be
    populated (EmptyCell otherwise); a dataset with a single context has
    statistic 0 by convention.
    """
    return _bias_table(data)[1]


# --- exact checks against a model --------------------------------------------

Predictor = Callable[[Any, Any], Any]  # (x, s) -> label or {label: prob}


def _as_kernel(predictor: Predictor, x, s) -> Mapping[Any, float]:
    out = predictor(x, s)
    if isinstance(out, Mapping):
        return out
    return {out: 1.0}


@dataclass(frozen=True)
class InvarianceReport:
    invariant: bool
    deviation: float
    tolerance: float
    table: Mapping[tuple, Mapping[Any, float]]  # (z, s) -> {y: prob}
    skipped_strata: tuple = ()


def exact_prediction_law(
    model: "scm_mod.DiscreteScm", predictor: Predictor
) -> dict[tuple, dict[Any, float]]:
    """Exact P(prediction(z) = y | S = s) for every (z, s) by enumeration.

    The predictor may return a label or a {label: prob} kernel; randomized
    predictors enter through their conditional law, which is exactly the
    seed-stream lifting of a stochastic predictor. It is called once per
    distinct (potential input, stratum) pair: stratum by stratum, context by
    context, world by world.
    """
    labels: dict[Any, int] = {}
    start, label, prob = [0], [], []
    for x, s in model.index.codes.pairs:
        for y, p in _as_kernel(predictor, x, s).items():
            label.append(labels.setdefault(y, len(labels)))
            prob.append(p)
        start.append(len(prob))
    return law_over_worlds(model, scm_mod.Laws(
        np.array(start, dtype=np.intp), np.array(label, dtype=np.intp),
        np.array(prob, dtype=float),
    ), tuple(labels))


def law_over_worlds(
    model: "scm_mod.DiscreteScm", laws: "scm_mod.Laws", labels: tuple
) -> dict[tuple, dict[Any, float]]:
    """The {(z, s): {label: prob}} table of a prediction whose law at every
    (x, s) pair of the model is given, its items codes into ``labels``.

    Each (z, s) law is one ``group_laws`` over the world codes, one context
    at a time: a term p * mass / stratum mass per world and pair-law entry,
    added in world order and then pair-law order, as a loop over the worlds
    would add them. A law lists its labels in the order its terms first
    name them.
    """
    codes = model.index.codes
    s_mass = np.bincount(codes.stratum, weights=codes.mass)
    zs = model.z_domain.values
    table = {(z, s): {} for z in zs for s in codes.strata}
    for k, z in enumerate(zs):
        # each world's pair-law entries, world by world
        pair = codes.pair[:, k]
        first = laws.start[pair]
        count = laws.start[pair + 1] - first
        world = np.repeat(np.arange(len(first)), count)
        entry = np.arange(len(world)) + (first - np.cumsum(count) + count)[world]
        stratum = codes.stratum[world]
        term = laws.prob[entry] * codes.mass[world] / s_mass[stratum]
        law = scm_mod.group_laws(
            stratum, laws.item[entry], len(labels), term, len(codes.strata)
        )
        s_of = np.repeat(np.arange(len(codes.strata)), np.diff(law.start))
        for s, y, p in zip(s_of.tolist(), law.item.tolist(), law.prob.tolist()):
            table[(z, codes.strata[s])][labels[y]] = p
    return table


def check_stratified_invariance_exact(
    model: "scm_mod.DiscreteScm", predictor: Predictor
) -> InvarianceReport:
    """Is the potential prediction law constant in z within every stratum,
    up to ``INVARIANCE_TOL``?"""
    table = exact_prediction_law(model, predictor)
    strata = {s for (_z, s) in table}
    declared = model.s_values
    skipped = ()
    if declared is not None:
        skipped = tuple(s for s in declared if s not in strata)
        if skipped:
            warnings.warn(
                f"strata {skipped!r} have zero mass and were skipped",
                stacklevel=2,
            )
    deviation = max_context_deviation(table)
    return InvarianceReport(
        deviation <= INVARIANCE_TOL, deviation, INVARIANCE_TOL, table, skipped
    )


def max_context_deviation(table: Mapping[tuple, Mapping[Any, float]]) -> float:
    """Largest |P(y|z1,s) - P(y|z2,s)| across the table; 0 means invariant.

    The table maps every (z, s) pair to a law {y: prob}; a label a law omits
    has probability 0 there. A table with no labels deviates by 0.
    """
    strata = list(dict.fromkeys(s for (_z, s) in table))
    zs = list(dict.fromkeys(z for (z, _s) in table))
    labels = list(dict.fromkeys(y for law in table.values() for y in law))
    if not labels:
        return 0.0
    rates = np.array([
        [[table[(z, s)].get(y, 0.0) for s in strata] for y in labels]
        for z in zs
    ], dtype=float)
    return float(_context_gaps(rates).max())


# --- counterfactual-invariance probability -----------------------------------


def ci_probability(pred_map: Mapping[tuple, Any]) -> float:
    """Fraction of exogenous profiles whose prediction is context-free.

    ``pred_map`` maps (z, u) to a label over the full grid of contexts and
    profiles; an incomplete grid raises MissingCell. Profiles are weighted
    uniformly, matching the definition (1/prod |Ui|) * sum over u.
    """
    if not pred_map:
        raise MissingCell("empty prediction map")
    zs = list(dict.fromkeys(z for z, _u in pred_map))
    us = list(dict.fromkeys(u for _z, u in pred_map))
    for z, u in itertools.product(zs, us):
        if (z, u) not in pred_map:
            raise MissingCell(f"prediction map missing (z={z!r}, u={u!r})")
    agree = sum(
        1 for u in us if len({pred_map[(z, u)] for z in zs}) == 1
    )
    return agree / len(us)


def potential_prediction_map(
    model: "scm_mod.DiscreteScm",
    predictor: Callable[[Any, Any, np.random.Generator], Any],
    seed: int,
) -> dict[tuple, Any]:
    """Derandomized potential predictions over the full (z, u) grid.

    Each exogenous profile u gets its own RNG stream derived from (seed, u's
    grid index), shared across contexts, so a randomized predictor becomes a
    deterministic function of (z, u) and the map is a valid ci_probability
    input. The stratum handed to the predictor is the potential one at z.
    """
    out: dict[tuple, Any] = {}
    u_grid = list(itertools.product(*(d.values for d in model.u_domains)))
    for i, u in enumerate(u_grid):
        for z in model.z_domain.values:
            rng = np.random.default_rng([seed, i, 0])
            x, _y, s = scm_mod.potential(model, scm_mod.World(u=u, z=z), z)
            out[(z, u)] = predictor(x, s, rng)
    return out


# --- stratified permutation test ---------------------------------------------


@dataclass(frozen=True)
class TestReport:
    statistic: float
    p_value: float
    permutations: int
    per_stratum: tuple[tuple[Any, float], ...]
    caveat: str = ADJUSTMENT_CAVEAT


# Cells (permutations x strata x contexts x labels) per batch: enough to spread
# numpy's per-call cost over many tables, few enough to stay under a megabyte.
# With the draw order in _random_tables it fixes the p-values for a seed.
PERMUTATION_BATCH_CELLS = 1 << 16


def _random_tables(
    context_totals: np.ndarray, label_totals: np.ndarray, size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``size`` random tables as one (Z, Y, size, S) array, stratum s's
    uniform over the record shufflings with context totals
    ``context_totals[:, s]`` and label totals ``label_totals[:, s]``. Each
    context's row takes hypergeometric draws from the labels still unplaced
    (Patefield, AS 159, 1981), vectorised over the batch and the strata: one
    draw fills one contiguous ``[z, y]`` plane."""
    n_z, n_s = context_totals.shape
    n_y = label_totals.shape[0]
    tables = np.empty((n_z, n_y, size, n_s), dtype=np.int64)
    # the last context takes the labels left unplaced
    unplaced = tables[n_z - 1]
    unplaced[...] = label_totals[:, None]
    for z in range(n_z - 1):
        rest = unplaced.sum(axis=0)
        # the last label fills what the row still needs
        need = tables[z, n_y - 1]
        need[...] = context_totals[z]
        for y in range(n_y - 1):
            rest -= unplaced[y]
            tables[z, y] = rng.hypergeometric(unplaced[y], rest, need)
            need -= tables[z, y]
        unplaced -= tables[z]
    return tables


def ci_permutation_test(
    data: Records,
    permutations: int = 999,
    rng: np.random.Generator | int | None = None,
) -> TestReport:
    """Permutation test of prediction ⟂ context within strata.

    The null shuffles the context labels independently inside each stratum,
    which realizes conditional independence; the statistic is the max-gap
    bias. A shuffle matters only through the count table it leaves, so each
    permutation is drawn directly as a random table with the stratum's
    observed context and label totals: exactly the shuffle's law, at about
    the cost of its hypergeometric draws, whatever the number of records.
    The batch size and the draw order fix the p-value for a given seed, so a
    refactor must keep both. The p-value uses the
    add-one estimator (1 + #{permuted >= observed}) / (1 + permutations) and
    is therefore never zero and conservative under ties. Completeness
    (rejecting exactly when stratified invariance fails) additionally needs
    the stratifier to be an adjustment set; see the report caveat.
    """
    if permutations < 1:
        raise ValueError("permutations must be >= 1")
    rng = np.random.default_rng(rng)
    counts, observed = _bias_table(data)
    context_totals, label_totals = counts.sum(axis=1), counts.sum(axis=0)
    batch = max(1, PERMUTATION_BATCH_CELLS // counts.size)
    exceed = 0
    for done in range(0, permutations, batch):
        size = min(batch, permutations - done)
        tables = _random_tables(context_totals, label_totals, size, rng)
        # Each table's (s, z) row sums to context_totals[z, s], as the
        # observed one does, so these are the rates its own sums would give.
        stats = _context_gaps(tables / context_totals[:, None, None]).max(axis=1)
        exceed += int(np.count_nonzero(stats >= observed.value - 1e-12))
    p = (1 + exceed) / (1 + permutations)
    return TestReport(observed.value, p, permutations, observed.per_stratum)


# --- estimation, accuracy ----------------------------------------------------


def macro_f1(data: Records) -> float:
    """Unweighted mean of per-class F1 between y and yhat, over the classes
    that occur as a label or a prediction."""
    table = as_table(data)
    if not len(table):
        raise MissingLabels("no records")
    row = _first_missing(table, table.y, table.y_hat)
    if row is not None:
        raise MissingLabels(
            f"record {table.record_ids[row]!r} lacks a label or a prediction"
        )
    y, y_hat = table.y, table.y_hat
    actual = dict(zip(y.values, np.bincount(y.codes, minlength=len(y.values)).tolist()))
    predicted = dict(
        zip(y_hat.values, np.bincount(y_hat.codes, minlength=len(y_hat.values)).tolist())
    )
    # each true label's code among the predictions, -1 where none equals it
    at = {v: j for j, v in enumerate(y_hat.values)}
    twin = np.array([at.get(v, -1) for v in y.values], dtype=np.intp)
    hits = y.codes[y_hat.codes == twin[y.codes]]
    correct = dict(zip(y.values, np.bincount(hits, minlength=len(y.values)).tolist()))
    scores = []
    for c in {**actual, **predicted}:
        tp = correct.get(c, 0)
        fp = predicted.get(c, 0) - tp
        fn = actual.get(c, 0) - tp
        scores.append(2 * tp / (2 * tp + fp + fn))
    return float(np.mean(scores))


# --- balanced subsampling ----------------------------------------------------


def _balanced_rows(s: Column, z: Column, n: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of a balanced draw over the (s, z) codes: cell-major, each cell's
    picks in row order."""
    m = s.codes.size
    if not m:
        raise BalanceError(f"no records to draw a balanced subsample of {n} from")
    n_s, n_z = len(s.values), len(z.values)
    per_cell = n // (n_s * n_z)
    if per_cell < 1:
        raise BalanceError(
            f"n={n} gives an empty per-cell quota for {n_s}x{n_z} cells"
        )
    rows_of: dict[int, list[int]] = {}
    for row, cell in enumerate((s.codes * n_z + z.codes).tolist()):
        rows_of.setdefault(cell, []).append(row)
    picks: list[int] = []
    for k in range(n_s * n_z):
        rows = rows_of.get(k, [])
        if len(rows) < per_cell:
            raise BalanceError(
                f"cell (s={s.values[k // n_z]!r}, z={z.values[k % n_z]!r}) has "
                f"{len(rows)} records, needs {per_cell}"
            )
        picked = rng.choice(len(rows), size=per_cell, replace=False)
        picks.extend(rows[i] for i in sorted(picked))
    return np.array(picks, dtype=np.intp)


def balanced_subsample(
    data: Records, n: int, rng: np.random.Generator | int | None = None
) -> Records:
    """Equal-size draw of floor(n / (|S| |Z|)) records per (s, z) cell.

    Draws are without replacement; a cell with too few records raises
    BalanceError naming it. Output order is cell-major then draw order,
    deterministic given the RNG. A table gives a table, any other input a
    list of its records.
    """
    rng = np.random.default_rng(rng)
    if isinstance(data, RecordTable):
        return data.take(_balanced_rows(data.s, data.z, n, rng))
    records = list(data)
    table = RecordTable.from_records(records)
    return [records[i] for i in _balanced_rows(table.s, table.z, n, rng).tolist()]
