"""Hand-built models shared by a few test modules, and reference copies of
replaced engines."""

import dataclasses
import re

import numpy as np

from stratinv.ooc import _normalize
from stratinv.scm import DiscreteScm, FiniteDomain


def tiny_confounded():
    """One hidden bit that drives both the context and the label.

    The input reveals the context and the bit, so a ctx reader and a
    bit reader bracket the invariance spectrum.
    """
    return DiscreteScm(
        u_domains=(FiniteDomain("u1", (0, 1)),),
        z_domain=FiniteDomain("z", ("za", "zb")),
        p_u={(0,): 0.5, (1,): 0.5},
        z_parents=("u1",),
        p_z_given_parents={
            (0,): {"za": 0.8, "zb": 0.2},
            (1,): {"za": 0.3, "zb": 0.7},
        },
        x_fn=lambda z, u: f"ctx={z} u1={u[0]}",
        y_fn=lambda z, u: u[0],
        s_fn=lambda z, u, y: "all",
        y_values=(0, 1),
        s_values=("all",),
    )


def blind(scm):
    """The same model with the context token dropped from every input."""
    x_fn = scm.x_fn
    return dataclasses.replace(
        scm, x_fn=lambda z, u: re.sub(r"ctx=\S+ ?", "", x_fn(z, u))
    )


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
