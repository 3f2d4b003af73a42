"""Hand-built models shared by a few test modules, and reference copies of
replaced engines."""

import dataclasses
import itertools
import re

import numpy as np

from stratinv.ooc import _normalize
from stratinv.scm import (
    FiniteDomain,
    WorldCodes,
    dump_scm,
    first_seen,
    scm_from_tables,
)


def tabulate(
    u_domains, z_domain, p_u, z_parents, p_z, cell, y_values=None, s_values=None
):
    """The model whose mechanisms give ``cell(z, u) = (x, y, s)``, built from
    string-keyed tables by ``scm_from_tables``."""
    x_table, y_table, s_table = {}, {}, {}
    for z in z_domain.values:
        for u in itertools.product(*(d.values for d in u_domains)):
            x, y, s = cell(z, u)
            key = "|".join(map(str, (z, *u)))
            x_table[key], y_table[key] = x, y
            s_table[f"{key}|{y}"] = s
    return scm_from_tables(
        u_domains, z_domain, p_u, z_parents, p_z, x_table, y_table, s_table,
        y_values=y_values, s_values=s_values,
    )


def tiny_confounded():
    """One hidden bit that drives both the context and the label.

    The input reveals the context and the bit, so a ctx reader and a
    bit reader bracket the invariance spectrum.
    """
    return tabulate(
        (FiniteDomain("u1", (0, 1)),),
        FiniteDomain("z", ("za", "zb")),
        {(0,): 0.5, (1,): 0.5},
        ("u1",),
        {
            (0,): {"za": 0.8, "zb": 0.2},
            (1,): {"za": 0.3, "zb": 0.7},
        },
        lambda z, u: (f"ctx={z} u1={u[0]}", u[0], "all"),
        y_values=(0, 1),
        s_values=("all",),
    )


def blind(scm):
    """The same model with the context token dropped from every input."""
    return dataclasses.replace(scm, cells={
        u: tuple((re.sub(r"ctx=\S+ ?", "", x), y, s) for x, y, s in row)
        for u, row in scm.cells.items()
    })


# --- the coded index over mechanism closures ---------------------------------
# Before a model held its (z, u) cells, its mechanisms were closures over the
# string-keyed tables, called per world and context. The codes built that way
# are the oracle for the codes built from the cells.


def closure_codes(scm) -> WorldCodes:
    """``WorldIndex.codes`` from closures over ``dump_scm``'s tables."""
    doc = dump_scm(scm)
    x_table, y_table, s_table = doc["x_table"], doc["y_table"], doc.get("s_table")

    def encode(*parts):
        return "|".join(map(str, parts))

    def x_fn(z, u):
        return x_table[encode(z, *u)]

    def s_observed(w):
        y = y_table[encode(w.z, *w.u)]
        return None if s_table is None else s_table[encode(w.z, *w.u, y)]

    worlds, zs = scm.index.worlds, scm.z_domain.values
    n_w, n_z = len(worlds), len(zs)
    strata: dict = {}
    stratum = np.fromiter(
        (strata.setdefault(s_observed(w), len(strata)) for w, _ in worlds),
        np.intp, n_w,
    )
    inputs: dict = {}
    input_code = np.fromiter(
        (inputs.setdefault(x_fn(z, w.u), len(inputs)) for w, _ in worlds for z in zs),
        np.intp, n_w * n_z,
    )
    rows, cols = np.divmod(np.arange(n_w * n_z), n_z)
    visit = np.argsort(stratum[rows] * n_z + cols, kind="stable")
    key = (stratum[rows] * len(inputs) + input_code)[visit]
    pair_code, at = first_seen(key)
    pair = np.empty(n_w * n_z, np.intp)
    pair[visit] = pair_code
    s_of, x_of = np.divmod(key[at], len(inputs))
    shown = np.zeros((len(at), n_z), dtype=bool)
    shown[pair, cols] = True
    xs, ss = tuple(inputs), tuple(strata)
    return WorldCodes(
        mass=np.fromiter((m for _w, m in worlds), float, n_w),
        stratum=stratum,
        strata=ss,
        input=input_code.reshape(n_w, n_z),
        inputs=xs,
        pair=pair.reshape(n_w, n_z),
        pairs={
            (xs[x], ss[s]): c
            for c, (x, s) in enumerate(zip(x_of.tolist(), s_of.tolist()))
        },
        context=np.where(shown.sum(1) == 1, shown.argmax(1), -1),
    )


def closure_twin(scm):
    """A copy of ``scm`` whose index holds ``closure_codes``, so every exact
    law read from the twin is built on the closure path's codes."""
    twin = dataclasses.replace(scm)
    twin.index.__dict__["codes"] = closure_codes(scm)
    return twin


# --- the permutation kernel before its context-major layout -----------------
# Reference copies of the (batch, S, Z, Y) kernel: the new one must give the
# same tables and the same floats.


def _rates(counts: np.ndarray) -> np.ndarray:
    """P(yhat = y | s, z) from (..., S, Z, Y) counts."""
    return counts / counts.sum(axis=-1, keepdims=True)


def _context_gaps(rates: np.ndarray) -> np.ndarray:
    """Per stratum of (..., S, Z, Y) rates, the largest spread over contexts
    of P(y | s, z). Rounding is monotone, so max - min is the largest
    pairwise |difference| bit for bit."""
    # Elementwise over slices: numpy reduces a short middle axis slowly, and
    # max and min are exact, so the floats are the same.
    high = low = rates[..., 0, :]
    for z in range(1, rates.shape[-2]):
        high = np.maximum(high, rates[..., z, :])
        low = np.minimum(low, rates[..., z, :])
    spread = high - low
    gaps = spread[..., 0]
    for y in range(1, spread.shape[-1]):
        gaps = np.maximum(gaps, spread[..., y])
    return gaps


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


# --- the answer parser before its negation rule -----------------------------


def _choose(answer, normalized):
    """Tolerant matcher over options normalized by ``_normalize_options``:
    exact normalized equality first, then the one option whose words appear
    contiguously in the answer.  A mention lying inside a longer option's
    mention does not count ("non-toxic" is no "toxic"); an answer that
    mentions two options is ambiguous.  Returns the matched option or None."""
    answer_tokens = _normalize(answer)
    for opt_tokens, opt in normalized:
        if opt_tokens == answer_tokens:
            return opt
    spans = []
    for opt_tokens, opt in normalized:
        width = len(opt_tokens)
        if not width:
            continue
        for start in range(len(answer_tokens) - width + 1):
            if answer_tokens[start:start + width] == opt_tokens:
                spans.append((start, start + width, opt))
    found = {
        opt
        for lo, hi, opt in spans
        if not any(
            a <= lo and hi <= b and b - a > hi - lo for a, b, _o in spans
        )
    }
    return found.pop() if len(found) == 1 else None
