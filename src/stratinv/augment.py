"""Stratified re-contextualization of a base predictor.

The augmented predictor wraps a base predictor h with three steps per
replicate: recover the context z from the input and stratum, draw a fresh
context z+ uniformly, draw a counterfactual input x+ from the conditional
law of X(z+) given the evidence, and predict h(x+). Replicates are
aggregated by majority vote. With the exact conditional sampler the
per-replicate prediction law is provably constant across contexts within
every stratum; `exact_augmented_distribution` computes that law exactly, as
array sums over the integer codes of the model's worlds (`WorldIndex.codes`),
so the constancy can be asserted to machine precision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import AmbiguousContext, DomainMismatch, SamplerFailure
from .scm import AMBIGUOUS, DiscreteScm, ExactConditionalSampler, Laws, group_laws
from .metrics import exact_prediction_law, law_over_worlds
# max_context_deviation lives with the exact checks and is public here too
from .metrics import max_context_deviation  # noqa: F401


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
    ``m`` replicates are aggregated by majority vote (``Aggregator()``).
    """

    recoverer: Any  # has .recover(x, s)
    sampler: Any  # has .draw(x, s, z_plus, rng)
    base: Callable[[Any], Any]
    contexts: tuple
    m: int = 1

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
    label = Aggregator().combine([t.label for t in traces])
    return AugmentResult(label, tuple(traces))


# --- exact law ---------------------------------------------------------------


def augmented_kernel(ap: AugmentedPredictor) -> Callable[[Any, Any], dict]:
    """Per-replicate conditional law (x, s) -> {label: prob}, exactly.

    Requires the exact sampler (``ExactConditionalSampler``). The kernel
    looks the evidence pair up among the laws of every pair of the sampler's
    model, which ``_pair_laws`` computes on the first call. The fresh context
    is marginalized uniformly, in the order of ``ap.contexts``. This is the
    law of the Def-3 augmented prediction; aggregation over replicates does
    not change it, since replicates are exchangeable. A context outside the
    domain, a pair no world shows and a pair several contexts show raise as
    the sampler's ``draw`` does.
    """
    model = _sampler_model(ap)
    every_pair = functools.cache(lambda: _pair_laws(model, ap))

    def kernel(x, s) -> dict:
        _check_contexts(model, ap)
        c = model.index.recover(x, s)
        law, labels = every_pair()
        a, b = law.start[c], law.start[c + 1]
        return dict(zip(
            [labels[y] for y in law.item[a:b].tolist()], law.prob[a:b].tolist()
        ))

    return kernel


def exact_augmented_distribution(
    model: DiscreteScm, ap: AugmentedPredictor
) -> dict[tuple, dict[Any, float]]:
    """Exact law of the augmented potential prediction for every (z, s).

    The per-replicate kernel's law at every (x, s) pair of the model, from
    ``_pair_laws``, pushed through the worlds by ``law_over_worlds``. The
    result is a {(z, s): {label: prob}} table; under the exact sampler and a
    recoverable context it is constant in z for every s. Before anything is
    summed, a context outside the domain raises DomainMismatch, and the first
    pair several contexts show, stratum by stratum, context by context and
    world by world, raises AmbiguousContext. A sampler built on another model
    answers for this model's pairs through ``augmented_kernel``.
    """
    if _sampler_model(ap) is not model:
        return exact_prediction_law(model, augmented_kernel(ap))
    _check_contexts(model, ap)
    codes = model.index.codes
    several = np.flatnonzero(codes.context < 0)
    if len(several):
        model.index.recover(*list(codes.pairs)[several[0]])  # raises
    return law_over_worlds(model, *_pair_laws(model, ap))


def _sampler_model(ap: AugmentedPredictor) -> DiscreteScm:
    if not isinstance(ap.sampler, ExactConditionalSampler):
        raise ValueError(
            "exact law needs the exact sampler (ExactConditionalSampler)"
        )
    return ap.sampler.scm


def _check_contexts(model: DiscreteScm, ap: AugmentedPredictor) -> None:
    for z_plus in ap.contexts:
        if z_plus not in model.z_domain:
            raise DomainMismatch(f"context {z_plus!r} outside the domain")


def _pair_laws(model: DiscreteScm, ap: AugmentedPredictor) -> tuple[Laws, tuple]:
    """The augmented kernel's law at every (x, s) pair of the model that
    one context shows, and the labels its items code; a pair several
    contexts show gets no law.

    For each fresh context z+, in ``ap.contexts`` order, the pair's law of
    X(z+) (``WorldIndex.conditional_laws``) puts w * p onto the label the
    base gives each input of its support, one running sum per label. So
    every float is built as a loop over each pair's law of each X(z+) would
    build it. The base is called once per distinct input the laws need, in
    input-code order.
    """
    codes = model.index.codes
    laws = [
        model.index.conditional_laws(model.z_domain.values.index(z))
        for z in ap.contexts
    ]
    needed = np.zeros(len(codes.inputs), dtype=bool)
    for law in laws:
        needed[law.item] = True
    labels: dict[Any, int] = {}
    label_of = np.full(len(codes.inputs), -1, dtype=np.intp)
    for i in np.flatnonzero(needed).tolist():
        label_of[i] = labels.setdefault(ap.base(codes.inputs[i]), len(labels))
    w = 1.0 / len(ap.contexts)
    pairs = np.arange(len(codes.pairs))
    pair = np.concatenate([np.repeat(pairs, np.diff(law.start)) for law in laws])
    label = np.concatenate([label_of[law.item] for law in laws])
    weight = np.concatenate([w * law.prob for law in laws])
    return group_laws(pair, label, len(labels), weight, len(pairs)), tuple(labels)


def hoeffding_envelope(n: int, n_strata: int, n_contexts: int) -> float:
    """Sampling allowance for an empirical bias at n balanced draws."""
    return 3.0 * float(np.sqrt(np.log(4.0 * n_strata * n_contexts) / n))
