"""Stratified re-contextualization of a base predictor.

The augmented predictor wraps a base predictor h with three steps per
replicate: recover the context z from the input and stratum, draw a fresh
context z+ uniformly, draw a counterfactual input x+ from the conditional
law of X(z+) given the evidence, and predict h(x+). Replicates are
aggregated by majority vote. With the exact conditional sampler the
per-replicate prediction law is provably constant across contexts within
every stratum; `exact_augmented_distribution` computes that law in closed
form so the constancy can be asserted to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import AmbiguousContext, SamplerFailure
from .scm import AMBIGUOUS, DiscreteScm
# max_context_deviation lives with the exact checks and is public here too
from .metrics import exact_prediction_law, max_context_deviation  # noqa: F401


class IdentitySampler:
    """Returns the input unchanged; the do-nothing negative control."""

    def draw(self, x, s, z_plus, rng):
        return x


@dataclass(frozen=True)
class Aggregator:
    """Combines replicate labels; majority with a deterministic tie-break.

    Ties go to the earliest label in ``label_order`` (the declared domain
    order); labels outside it rank after, in first-seen order.
    """

    label_order: tuple = ()

    def combine(self, labels: Sequence) -> Any:
        if not labels:
            raise ValueError("no labels to aggregate")
        order = list(self.label_order)
        for lab in labels:
            if lab not in order:
                order.append(lab)
        counts: dict = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        return min(counts, key=lambda lab: (-counts[lab], order.index(lab)))


@dataclass(frozen=True)
class ReplicateTrace:
    j: int
    z_recovered: Any
    z_plus: Any
    x_plus: Any
    label: Any


@dataclass(frozen=True)
class AugmentResult:
    label: Any
    traces: tuple[ReplicateTrace, ...]


@dataclass(frozen=True, eq=False)
class AugmentedPredictor:
    """Def-3 style wrapper around a base predictor.

    ``contexts`` is the domain the fresh context is drawn from, uniformly.
    ``m`` replicates are aggregated by ``aggregator``.
    """

    recoverer: Any  # has .recover(x, s)
    sampler: Any  # has .draw(x, s, z_plus, rng)
    base: Callable[[Any], Any]
    contexts: tuple
    m: int = 1
    aggregator: Aggregator = field(default_factory=Aggregator)

    def draw_context(self, rng: np.random.Generator):
        return self.contexts[rng.integers(len(self.contexts))]


def augment_once(
    ap: AugmentedPredictor, x, s, rng: np.random.Generator, j: int = 0
) -> ReplicateTrace:
    """One replicate: recover z, draw z+, draw x+, predict.

    RNG consumption order is fixed (context first, then the sampler), so a
    replay with the same stream reproduces the trace exactly.
    """
    z = ap.recoverer.recover(x, s)
    if z is AMBIGUOUS:
        raise AmbiguousContext(f"context not recoverable from x={x!r}, s={s!r}")
    z_plus = ap.draw_context(rng)
    try:
        x_plus = ap.sampler.draw(x, s, z_plus, rng)
    except Exception as exc:
        raise SamplerFailure(
            f"conditional draw failed for z_plus={z_plus!r}: {exc}"
        ) from exc
    return ReplicateTrace(j, z, z_plus, x_plus, ap.base(x_plus))


def augment_predict(
    ap: AugmentedPredictor, x, s, rng: np.random.Generator
) -> AugmentResult:
    """Aggregate m replicates; sampler failures drop the replicate.

    An unrecoverable context fails the whole call (every replicate would
    fail the same way); if every replicate's draw fails, the last
    SamplerFailure is re-raised.
    """
    traces = []
    failure: SamplerFailure | None = None
    for j in range(ap.m):
        try:
            traces.append(augment_once(ap, x, s, rng, j))
        except SamplerFailure as exc:
            failure = exc
    if not traces:
        assert failure is not None
        raise failure
    label = ap.aggregator.combine([t.label for t in traces])
    return AugmentResult(label, tuple(traces))


# --- exact law ---------------------------------------------------------------


def augmented_kernel(ap: AugmentedPredictor) -> Callable[[Any, Any], dict]:
    """Per-replicate conditional law (x, s) -> {label: prob}, in closed form.

    Requires a sampler exposing ``conditional_tables`` (the exact one), which
    gives the tables of every fresh context from one walk over the evidence
    pair's worlds. The fresh context is marginalized uniformly, in the order
    of ``ap.contexts``. This is the law of the Def-3 augmented prediction;
    aggregation over replicates does not change it, since replicates are
    exchangeable. The kernel asks for the tables once per call and calls the
    base predictor once per distinct input it sees.
    """
    tables_fn = getattr(ap.sampler, "conditional_tables", None)
    if tables_fn is None:
        raise ValueError(
            "exact law needs a sampler with conditional_tables (the exact sampler)"
        )
    w = 1.0 / len(ap.contexts)

    labels: dict[Any, Any] = {}

    def kernel(x, s) -> dict:
        tables = tables_fn(x, s, ap.contexts)
        law: dict[Any, float] = {}
        for z_plus in ap.contexts:
            values, probs = tables[z_plus]
            for xp, p in zip(values, probs.tolist()):
                if xp not in labels:
                    labels[xp] = ap.base(xp)
                y = labels[xp]
                law[y] = law.get(y, 0.0) + w * p
        return law

    return kernel


def exact_augmented_distribution(
    model: DiscreteScm, ap: AugmentedPredictor
) -> dict[tuple, dict[Any, float]]:
    """Exact law of the augmented potential prediction for every (z, s).

    Enumerates worlds, conditions on each stratum, and pushes the potential
    input at every intervention z through the per-replicate kernel. The
    result is a {(z, s): {label: prob}} table; under the exact sampler and a
    recoverable context it is constant in z for every s.
    """
    return exact_prediction_law(model, augmented_kernel(ap))


def hoeffding_envelope(n: int, n_strata: int, n_contexts: int) -> float:
    """Sampling allowance for an empirical bias at n balanced draws."""
    return 3.0 * float(np.sqrt(np.log(4.0 * n_strata * n_contexts) / n))
