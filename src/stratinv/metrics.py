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
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BalanceError,
    EmptyCell,
    MissingCell,
    MissingLabels,
    NonBinaryLabel,
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


def load_records(path) -> list[LabeledRecord]:
    """Read a JSON-lines dataset.

    Each line holds one JSON object with at least ``record_id`` and ``x``;
    malformed JSON, another value there, or a missing field raises ValueError
    naming the file and the line. The fields that metrics group and count by
    (s, z, y, y_hat) must be scalars; a list or an object there raises
    ValueError naming the record.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path} line {lineno}: malformed JSON: {exc.msg} "
                    f"at column {exc.colno}"
                ) from None
            if not isinstance(doc, dict):
                raise ValueError(
                    f"{path} line {lineno}: a record must be a JSON object, "
                    f"got {line.strip()[:40]}"
                )
            try:
                record = LabeledRecord(
                    record_id=doc["record_id"],
                    x=doc["x"],
                    s=doc.get("s"),
                    z=doc.get("z"),
                    y=doc.get("y"),
                    y_hat=doc.get("y_hat"),
                )
            except KeyError as exc:
                raise ValueError(
                    f"{path} line {lineno}: missing field {exc.args[0]!r}"
                ) from None
            try:
                hash((record.s, record.z, record.y, record.y_hat))
            except TypeError:
                name = next(
                    f for f in ("s", "z", "y", "y_hat")
                    if isinstance(doc.get(f), (list, dict))
                )
                raise ValueError(
                    f"record {record.record_id!r}: field {name!r} must be a "
                    f"scalar, got {doc[name]!r}"
                ) from None
            out.append(record)
    return out


def dump_records(records: Iterable[LabeledRecord], path) -> None:
    """Write a JSON-lines dataset with stable key order."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(asdict(r), sort_keys=True) + "\n")


# --- the bias statistic ------------------------------------------------------


def _codes(values: Iterable, n: int) -> tuple[list, np.ndarray]:
    """Distinct values in first-seen order, and each value's index in them."""
    index: dict[Any, int] = {}
    codes = np.fromiter(
        (index.setdefault(v, len(index)) for v in values), dtype=np.intp, count=n
    )
    return list(index), codes


def _rates(counts: np.ndarray) -> np.ndarray:
    """P(yhat = y | s, z) from (..., S, Z, Y) counts."""
    return counts / counts.sum(axis=-1, keepdims=True)


def _context_gaps(rates: np.ndarray) -> np.ndarray:
    """Per stratum of (..., S, Z, Y) rates, the largest spread over contexts
    of P(y | s, z). Rounding is monotone, so max - min is the largest
    pairwise |difference| bit for bit."""
    return (rates.max(axis=-2) - rates.min(axis=-2)).max(axis=-1)


@dataclass(frozen=True)
class SiBiasReport:
    value: float
    per_stratum: tuple[tuple[Any, float], ...]
    n: int
    caveat: str = ADJUSTMENT_CAVEAT


def _bias_table(records: Sequence[LabeledRecord], strict_binary: bool = False):
    """Prediction counts over (stratum, context, label), each axis in
    first-seen order, and the bias statistic they determine."""
    if not records:
        raise MissingLabels("no records")
    for r in records:
        if r.y_hat is None:
            raise MissingLabels(f"record {r.record_id!r} has no prediction")
    n = len(records)
    strata, cells = _codes((r.s for r in records), n)
    contexts, zi = _codes((r.z for r in records), n)
    labels, yi = _codes((r.y_hat for r in records), n)
    if strict_binary and len(labels) > 2:
        raise NonBinaryLabel(
            f"strict binary mode with labels {sorted(map(str, labels))}"
        )
    n_s, n_z, n_y = len(strata), len(contexts), len(labels)
    # in place, so that few record-length arrays are alive at once
    cells *= n_z
    cells += zi
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
    cells *= n_y
    cells += yi
    counts = np.bincount(cells, minlength=n_s * n_z * n_y).reshape(n_s, n_z, n_y)
    per_stratum = tuple(zip(strata, _context_gaps(_rates(counts)).tolist()))
    value = max(g for _, g in per_stratum)
    return counts, SiBiasReport(value, per_stratum, n)


def si_bias(
    records: Sequence[LabeledRecord], *, strict_binary: bool = False
) -> SiBiasReport:
    """Max over strata and context pairs of the prediction-rate gap.

    For each stratum s and pair of contexts z1, z2, the gap is
    max over labels y of |P(yhat=y | s, z1) - P(yhat=y | s, z2)|; the
    statistic is the largest gap. Every observed (s, z) cell must be
    populated (EmptyCell otherwise); a dataset with a single context has
    statistic 0 by convention.
    """
    return _bias_table(records, strict_binary)[1]


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
    distinct (potential input, stratum) pair, and its outputs are kept only
    while their stratum is being summed.
    """
    index = model.index
    zs = model.z_domain.values
    s_mass: dict[Any, float] = {}
    by_stratum: dict[Any, list[tuple[tuple, float]]] = {}
    for xs, (_w, m), s_obs in zip(index.potentials, index.worlds, index.strata):
        s_mass[s_obs] = s_mass.get(s_obs, 0.0) + m
        by_stratum.setdefault(s_obs, []).append((xs, m))
    laws: dict[tuple, dict[Any, float]] = {}
    for s, members in by_stratum.items():
        kernels: dict[Any, Mapping[Any, float]] = {}
        for k, z in enumerate(zs):
            law: dict[Any, float] = {}
            for xs, m in members:
                kernel = kernels.get(xs[k])
                if kernel is None:
                    kernel = kernels[xs[k]] = _as_kernel(predictor, xs[k], s)
                for y, p in kernel.items():
                    law[y] = law.get(y, 0.0) + p * m / s_mass[s]
            laws[(z, s)] = law
    return {(z, s): laws[(z, s)] for z in zs for s in by_stratum}


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
        [[table[(z, s)].get(y, 0.0) for y in labels] for z in zs]
        for s in strata
    ], dtype=float)
    return float(_context_gaps(rates).max())


@dataclass(frozen=True)
class CounterfactualReport:
    invariant: bool
    agreement_mass: float  # probability of worlds whose potentials all agree
    witness: tuple | None  # (u, z1, z2, y1, y2)


def check_counterfactual_invariance_exact(
    model: "scm_mod.DiscreteScm", predictor: Predictor
) -> CounterfactualReport:
    """Do all contexts give the same prediction in every positive-mass world?

    The predictor must be deterministic here (a kernel has no almost-sure
    statement attached). The stratum fed to the predictor is the world's
    observed one.
    """
    witness = None
    agree_mass = 0.0
    total = 0.0
    zs = model.z_domain.values
    index = model.index
    for xs, (w, m), s_obs in zip(index.potentials, index.worlds, index.strata):
        labels = [predictor(x, s_obs) for x in xs]
        total += m
        if all(lab == labels[0] for lab in labels):
            agree_mass += m
        elif witness is None:
            bad = next(i for i, lab in enumerate(labels) if lab != labels[0])
            witness = (w.u, zs[0], zs[bad], labels[0], labels[bad])
    return CounterfactualReport(witness is None, agree_mass / total, witness)


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
PERMUTATION_BATCH_CELLS = 1 << 16


def _random_tables(
    context_totals: np.ndarray, label_totals: np.ndarray, size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``size`` random (S, Z, Y) tables, stratum s's uniform over the record
    shufflings with context totals ``context_totals[s]`` and label totals
    ``label_totals[s]``. Each context's row takes hypergeometric draws from the
    labels still unplaced (Patefield, AS 159, 1981), vectorised over the batch
    and the strata."""
    n_s, n_z = context_totals.shape
    n_y = label_totals.shape[1]
    tables = np.empty((size, n_s, n_z, n_y), dtype=np.int64)
    unplaced = np.repeat(label_totals[None], size, axis=0)
    for z in range(n_z - 1):
        need = np.repeat(context_totals[None, :, z], size, axis=0)
        rest = unplaced.sum(axis=2)
        for y in range(n_y - 1):
            rest -= unplaced[..., y]
            tables[..., z, y] = rng.hypergeometric(unplaced[..., y], rest, need)
            need -= tables[..., z, y]
        tables[..., z, n_y - 1] = need
        unplaced -= tables[..., z, :]
    tables[..., n_z - 1, :] = unplaced
    return tables


def ci_permutation_test(
    records: Sequence[LabeledRecord],
    permutations: int = 999,
    rng: np.random.Generator | int | None = None,
) -> TestReport:
    """Permutation test of prediction ⟂ context within strata.

    The null shuffles the context labels independently inside each stratum,
    which realizes conditional independence; the statistic is the max-gap
    bias. A shuffle matters only through the count table it leaves, so each
    permutation is drawn directly as a random table with the stratum's
    observed context and label totals: exactly the shuffle's law, at a cost
    that does not grow with the number of records. The p-value uses the
    add-one estimator (1 + #{permuted >= observed}) / (1 + permutations) and
    is therefore never zero and conservative under ties. Completeness
    (rejecting exactly when stratified invariance fails) additionally needs
    the stratifier to be an adjustment set; see the report caveat.
    """
    if permutations < 1:
        raise ValueError("permutations must be >= 1")
    if rng is None or isinstance(rng, int):
        rng = np.random.default_rng(rng)
    counts, observed = _bias_table(records)
    context_totals, label_totals = counts.sum(axis=2), counts.sum(axis=1)
    batch = max(1, PERMUTATION_BATCH_CELLS // counts.size)
    exceed = 0
    for done in range(0, permutations, batch):
        size = min(batch, permutations - done)
        tables = _random_tables(context_totals, label_totals, size, rng)
        stats = _context_gaps(_rates(tables)).max(axis=1)
        exceed += int(np.count_nonzero(stats >= observed.value - 1e-12))
    p = (1 + exceed) / (1 + permutations)
    return TestReport(observed.value, p, permutations, observed.per_stratum)


# --- estimation, positivity, accuracy ----------------------------------------


@dataclass(frozen=True)
class PositivityReport:
    ok: bool
    witnesses: tuple[tuple, ...]  # (stratum, context, conditional prob)


def check_positivity(source) -> PositivityReport:
    """Check 0 < P(z | s) < 1 for every stratum and context.

    ``source`` is either a record list (empirical frequencies) or a model
    (exact masses by enumeration). A stratum where some context is absent,
    or where one context has all the mass, is a violation; both make the
    stratified comparison at that cell meaningless.
    """
    if isinstance(source, scm_mod.DiscreteScm):
        zs = list(source.z_domain.values)
        mass: dict[tuple, float] = {}
        s_total: dict[Any, float] = {}
        index = source.index
        for (w, m), s_obs in zip(index.worlds, index.strata):
            mass[(s_obs, w.z)] = mass.get((s_obs, w.z), 0.0) + m
            s_total[s_obs] = s_total.get(s_obs, 0.0) + m
        strata = list(s_total)
    else:
        records = list(source)
        zs = list(dict.fromkeys(r.z for r in records))
        mass = {}
        s_total = {}
        for r in records:
            mass[(r.s, r.z)] = mass.get((r.s, r.z), 0.0) + 1.0
            s_total[r.s] = s_total.get(r.s, 0.0) + 1.0
        strata = list(dict.fromkeys(r.s for r in records))
    witnesses = []
    for s in strata:
        for z in zs:
            p = mass.get((s, z), 0.0) / s_total[s]
            if not (0.0 < p < 1.0):
                witnesses.append((s, z, p))
    return PositivityReport(not witnesses, tuple(witnesses))


def macro_f1(
    records: Sequence[LabeledRecord], labels: Sequence | None = None
) -> float:
    """Unweighted mean of per-class F1 between y and yhat.

    A class with no true and no predicted instances contributes F1 = 1 (it
    was handled perfectly); this only arises when an explicit label list
    names a class absent from the data.
    """
    records = list(records)
    if not records:
        raise MissingLabels("no records")
    for r in records:
        if r.y is None or r.y_hat is None:
            raise MissingLabels(
                f"record {r.record_id!r} lacks a label or a prediction"
            )
    pairs = Counter((r.y, r.y_hat) for r in records)
    actual, predicted = Counter(), Counter()  # in first-seen order, like pairs
    for (y, y_hat), k in pairs.items():
        actual[y] += k
        predicted[y_hat] += k
    classes = list(labels) if labels is not None else list({**actual, **predicted})
    scores = []
    for c in classes:
        tp = pairs[(c, c)]
        fp = predicted[c] - tp
        fn = actual[c] - tp
        if tp + fp + fn == 0:
            scores.append(1.0)
        else:
            scores.append(2 * tp / (2 * tp + fp + fn))
    return float(np.mean(scores))


# --- balanced subsampling ----------------------------------------------------


def balanced_subsample(
    records: Sequence[LabeledRecord], n: int, rng: np.random.Generator | int | None = None
) -> list[LabeledRecord]:
    """Equal-size draw of floor(n / (|S| |Z|)) records per (s, z) cell.

    Draws are without replacement; a cell with too few records raises
    BalanceError naming it. Output order is cell-major then draw order,
    deterministic given the RNG.
    """
    if rng is None or isinstance(rng, int):
        rng = np.random.default_rng(rng)
    cells: dict[tuple, list[LabeledRecord]] = {}
    for r in records:
        cells.setdefault((r.s, r.z), []).append(r)
    if not cells:
        raise BalanceError(f"no records to draw a balanced subsample of {n} from")
    strata = list(dict.fromkeys(s for s, _z in cells))
    contexts = list(dict.fromkeys(z for _s, z in cells))
    per_cell = n // (len(strata) * len(contexts))
    if per_cell < 1:
        raise BalanceError(
            f"n={n} gives an empty per-cell quota for "
            f"{len(strata)}x{len(contexts)} cells"
        )
    out: list[LabeledRecord] = []
    for s in strata:
        for z in contexts:
            cell = cells.get((s, z), [])
            if len(cell) < per_cell:
                raise BalanceError(
                    f"cell (s={s!r}, z={z!r}) has {len(cell)} records, "
                    f"needs {per_cell}"
                )
            picked = rng.choice(len(cell), size=per_cell, replace=False)
            out.extend(cell[i] for i in sorted(picked))
    return out
