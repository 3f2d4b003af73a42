"""Synthetic model families and base predictors for tests and demos.

Everything here is deterministic given a seed.  The families cover the shapes
the verification suite needs: randomized small models for exact-law checks,
full-support models for sampled checks, structure/stratifier pairs whose
adjustment status is known, and a three-factor chain for the stratification
ladder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import causal_graph as cg
from .errors import ZeroMassStratum
from .scm import (
    DiscreteScm,
    FiniteDomain,
    conditional_world_table,
    stratum_values,
)
from .structured import parse_structured

_CONTEXT_NAMES = ("za", "zb", "zc", "zd")

#: Stratifier shapes for randomized models: a constant, the first factor,
#: the label, or the (first factor, label) pair.
S_MODES = ("const", "u1", "y", "pair")


def _random_row(rng: np.random.Generator, size: int) -> np.ndarray:
    """A probability row bounded away from zero (positivity by construction)."""
    row = rng.uniform(0.2, 1.0, size)
    return row / row.sum()


def _binary_factors(count: int) -> tuple[FiniteDomain, ...]:
    return tuple(FiniteDomain(f"u{i + 1}", (0, 1)) for i in range(count))


def _random_p_u(rng: np.random.Generator, u_domains) -> dict:
    u_grid = list(itertools.product(*(d.values for d in u_domains)))
    return {u: float(p) for u, p in zip(u_grid, _random_row(rng, len(u_grid)))}


def _random_p_z(rng: np.random.Generator, contexts, confounded: bool):
    """(z_parents, p_z): the context caused by u1 when ``confounded``."""
    parent_values = [(0,), (1,)] if confounded else [()]
    p_z = {
        v: dict(zip(contexts, map(float, _random_row(rng, len(contexts)))))
        for v in parent_values
    }
    return ("u1",) if confounded else (), p_z


def _stratum_entry(s_mode: str, u: tuple, y) -> str:
    if s_mode == "const":
        return "all"
    if s_mode == "u1":
        return str(u[0])
    if s_mode == "u2":
        return str(u[1])
    if s_mode == "y":
        return str(y)
    if s_mode == "pair":
        return f"{u[0]}{y}"
    raise ValueError(f"unknown s_mode {s_mode!r}")


def _tabulate(u_domains, contexts, p_u, z_parents, p_z, cell) -> DiscreteScm:
    """The model whose ``cell(z, u)`` gives (x, y, s).

    Cells are visited z-major, then in factor-grid order, so a cell that
    draws from a seeded stream always draws in the same sequence.
    """
    grid = list(itertools.product(*(d.values for d in u_domains)))
    by_z = [[cell(z, u) for u in grid] for z in contexts]
    return DiscreteScm(
        u_domains, FiniteDomain("z", contexts), p_u, z_parents, p_z,
        cells=dict(zip(grid, zip(*by_z))), y_values=(0, 1),
        s_values=tuple(sorted({s for row in by_z for _x, _y, s in row})),
    )


def random_fixture_scm(
    seed,
    n_contexts: int | None = None,
    n_factors: int | None = None,
    s_mode: str | None = None,
    confounded: bool | None = None,
) -> DiscreteScm:
    """A randomized table-backed model with a recoverable context token.

    The input renders as ``ctx=<z> u1=<..> ...`` with an optional hidden
    factor (never the first), an optional pad token, an optional free tail,
    and one extra random-valued token so the table content itself varies.
    """
    rng = np.random.default_rng(seed)
    if n_contexts is None:
        n_contexts = int(rng.integers(2, 4))
    if n_factors is None:
        n_factors = int(rng.integers(1, 4))
    if s_mode is None:
        s_mode = S_MODES[int(rng.integers(len(S_MODES)))]
    if confounded is None:
        confounded = bool(rng.integers(2))
    contexts = _CONTEXT_NAMES[:n_contexts]
    u_domains = _binary_factors(n_factors)
    p_u = _random_p_u(rng, u_domains)
    z_parents, p_z = _random_p_z(rng, contexts, confounded)

    hidden = 0
    if n_factors >= 2 and rng.integers(2):
        hidden = int(rng.integers(2, n_factors + 1))
    with_pad = bool(rng.integers(2))
    with_tail = bool(rng.integers(2))

    def cell(z, u):
        parts = [f"ctx={z}"]
        parts += [
            f"u{i + 1}={u[i]}" for i in range(n_factors) if i + 1 != hidden
        ]
        parts.append(f"v={int(rng.integers(2))}")
        if with_pad:
            parts.append("pad=0")
        x = " ".join(parts) + (" routine note" if with_tail else "")
        y = int(rng.integers(2))
        return x, y, _stratum_entry(s_mode, u, y)

    return _tabulate(u_domains, contexts, p_u, z_parents, p_z, cell)


# ---------------------------------------------------------------------------
# Base predictors over the structured micro-format
# ---------------------------------------------------------------------------

def ctx_reader(x) -> str:
    """Copies the context token; maximally z-sensitive."""
    return parse_structured(x).get("ctx", "?")


def u1_reader(x) -> str:
    """Reads the first exogenous factor; context-free by construction."""
    return parse_structured(x).get("u1", "0")


def parity_reader(x) -> str:
    """XOR of every visible exogenous-factor token."""
    st = parse_structured(x)
    total = 0
    for key, value in st.pairs:
        if key.startswith("u") and key[1:].isdigit():
            total ^= int(value) & 1
    return str(total)


def make_mixed_reader(reference_context) -> Callable:
    """First factor XOR an indicator of one context value."""

    def mixed_reader(x) -> str:
        st = parse_structured(x)
        bit = int(st.get("u1", "0")) & 1
        flip = 1 if st.get("ctx") == reference_context else 0
        return str(bit ^ flip)

    return mixed_reader


def ylab_reader(x) -> str:
    """Reads the label token of models whose input displays the label."""
    return parse_structured(x).get("ylab", "?")


def r_reader(x) -> str:
    """Reads the single revealed token of the chain model."""
    return parse_structured(x).get("r", "?")


def base_predictor_suite(scm: DiscreteScm) -> dict[str, Callable]:
    """Named base predictors exercised against a fixture model."""
    return {
        "ctx_reader": ctx_reader,
        "u1_reader": u1_reader,
        "parity_reader": parity_reader,
        "mixed_reader": make_mixed_reader(scm.z_domain.values[0]),
    }


def metric_predictor(fn: Callable) -> Callable:
    """Adapt an x-only predictor to the (x, s) signature of the metrics API."""
    return lambda x, s: fn(x)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NamedFixture:
    name: str
    scm: DiscreteScm


def fixture_suite(count: int = 24, seed: int = 20_240_611) -> list[NamedFixture]:
    """Randomized models cycling through sizes and stratifier shapes."""
    out = []
    for i in range(count):
        s_mode = S_MODES[i % len(S_MODES)]
        scm = random_fixture_scm(
            seed=[seed, i],
            n_contexts=2 + (i % 2),
            n_factors=1 + (i % 3),
            s_mode=s_mode,
        )
        out.append(NamedFixture(f"rand-{i:02d}-{s_mode}", scm))
    return out


def _has_full_support(scm: DiscreteScm) -> bool:
    try:
        for s in stratum_values(scm):
            for z in scm.z_domain.values:
                conditional_world_table(scm, s, z)
    except ZeroMassStratum:
        return False
    return True


def sampled_fixture_suite(
    count: int = 6, seed: int = 20_240_613
) -> list[NamedFixture]:
    """Two-context, few-strata models with every (s, z) cell populated.

    Used for balanced-draw checks, where an empty cell would abort the draw
    and many strata would thin the per-cell sample.
    """
    modes = ("const", "u1", "y")
    out = []
    for i in range(count):
        s_mode = modes[i % len(modes)]
        for attempt in range(50):
            scm = random_fixture_scm(
                seed=[seed, i, attempt],
                n_contexts=2,
                n_factors=1 + (i % 3),
                s_mode=s_mode,
            )
            if _has_full_support(scm):
                break
        else:  # pragma: no cover - the families above always admit support
            raise RuntimeError("no full-support model found")
        out.append(NamedFixture(f"sampled-{i}-{s_mode}", scm))
    return out


# ---------------------------------------------------------------------------
# Structure-aware families with known adjustment status
# ---------------------------------------------------------------------------

def anticausal_fixture(seed, s_mode: str = "y") -> DiscreteScm:
    """Label causes the input; a latent cause drives both label and context.

    The first factor is that latent cause and the label copies it, so the
    input may only depend on it through the label: the rendering shows
    ``ylab`` and ``u2`` plus a random extra token per (z, y, u2) cell.
    Stratifying by the label blocks the confounded path.
    """
    rng = np.random.default_rng(seed)
    u_domains = _binary_factors(2)
    contexts = ("za", "zb")
    p_u = _random_p_u(rng, u_domains)
    z_parents, p_z = _random_p_z(rng, contexts, confounded=True)

    def cell(z, u):
        y = u[0]
        x = f"ctx={z} ylab={y} u2={u[1]} v={int(rng.integers(2))}"
        return x, y, _stratum_entry(s_mode, u, y)

    return _tabulate(u_domains, contexts, p_u, z_parents, p_z, cell)


def _two_factor_fixture(seed, s_mode: str, y_mode: str, confounded: bool):
    rng = np.random.default_rng(seed)
    u_domains = _binary_factors(2)
    contexts = ("za", "zb")
    p_u = _random_p_u(rng, u_domains)
    z_parents, p_z = _random_p_z(rng, contexts, confounded)

    def cell(z, u):
        y = int(rng.integers(2)) if y_mode == "random" else u[1]
        x = f"ctx={z} u1={u[0]} u2={u[1]} v={int(rng.integers(2))}"
        return x, y, _stratum_entry(s_mode, u, y)

    return _tabulate(u_domains, contexts, p_u, z_parents, p_z, cell)


def confounded_fixture(seed, s_mode: str = "const", y_mode: str = "random") -> DiscreteScm:
    """The first factor drives both the context and the input.

    ``y_mode`` picks the label mechanism: a random (z, u) table, or a pure
    copy of the second factor (useful when the label must be causally
    unrelated to the confounder).
    """
    return _two_factor_fixture(seed, s_mode, y_mode, confounded=True)


def exogenous_fixture(seed, s_mode: str = "const") -> DiscreteScm:
    """Context assigned independently of every exogenous factor."""
    return _two_factor_fixture(seed, s_mode, "random", confounded=False)


def direct_effect_fixture(seed) -> DiscreteScm:
    """Exogenous context with a guaranteed direct effect on the label.

    Stratifying by the label is then conditioning on a treatment effect,
    which no valid adjustment set may do.
    """
    base = exogenous_fixture(seed, s_mode="y")
    zs = base.z_domain.values
    # Rebuild the labels forcing a z-dependence on the first profile.
    flipped = 1 - base.cells[(0, 0)][zs.index("za")][1]

    def cell(z, u):
        x, y, _s = base.cells[u][zs.index(z)]
        y = flipped if (z, u) == ("zb", (0, 0)) else y
        return x, y, str(y)

    return _tabulate(
        base.u_domains, base.z_domain.values, base.p_u, base.z_parents,
        base.p_z_given_parents, cell,
    )


@dataclass(frozen=True)
class AdjustmentCase:
    """A model, the structure it realizes, and one candidate stratifier set.

    ``certified`` records whether the candidate passes the graphical
    adjustment check; for certified cases the model's stratifier equals the
    candidate's variables, so distribution-level equalities can be asserted.
    """

    name: str
    scm: DiscreteScm
    graph: cg.CausalDag
    candidate: tuple[str, ...]
    certified: bool


def _anticausal_graph() -> cg.CausalDag:
    # The label causes the input; context and label share a latent confounder.
    return cg.dag(
        {"Z": cg.OBSERVED, "X": cg.OBSERVED, "Y": cg.OBSERVED,
         "L": cg.LATENT, "U": cg.LATENT},
        [("L", "Z"), ("L", "Y"), ("Z", "X"), ("Y", "X"), ("U", "X")],
    )


def _exogenous_graph() -> cg.CausalDag:
    return cg.dag(
        {"Z": cg.OBSERVED, "X": cg.OBSERVED, "Y": cg.OBSERVED,
         "U1": cg.OBSERVED, "U2": cg.LATENT},
        [("Z", "X"), ("U1", "X"), ("U2", "X"),
         ("Z", "Y"), ("U1", "Y"), ("U2", "Y")],
    )


def _confounded_graph(u2_mark: str = cg.LATENT) -> cg.CausalDag:
    return cg.dag(
        {"Z": cg.OBSERVED, "X": cg.OBSERVED, "Y": cg.OBSERVED,
         "U1": cg.OBSERVED, "U2": u2_mark},
        [("U1", "Z"), ("U1", "X"), ("U2", "X"),
         ("Z", "Y"), ("U1", "Y"), ("U2", "Y")],
    )


def _confounded_label_graph() -> cg.CausalDag:
    # Confounded context; the label is caused by the second factor alone.
    return cg.dag(
        {"Z": cg.OBSERVED, "X": cg.OBSERVED, "Y": cg.OBSERVED,
         "U1": cg.LATENT, "U2": cg.LATENT},
        [("U1", "Z"), ("U1", "X"), ("U2", "X"), ("U2", "Y")],
    )


def _direct_effect_graph() -> cg.CausalDag:
    return cg.dag(
        {"Z": cg.OBSERVED, "X": cg.OBSERVED, "Y": cg.OBSERVED,
         "U": cg.LATENT},
        [("Z", "X"), ("U", "X"), ("Z", "Y"), ("U", "Y")],
    )


def adjustment_fixture_cases(seed: int = 20_240_617) -> list[AdjustmentCase]:
    """Certified and rejected stratifier candidates with matching models.

    Certified cases are deliberately restricted to structures where the
    graphical check agrees with the classical criterion, so the matching
    distribution-level equality is provable, not incidental.
    """
    cases = [
        AdjustmentCase(
            "anticausal-label", anticausal_fixture([seed, 0], "y"),
            _anticausal_graph(), ("Y",), True,
        ),
        AdjustmentCase(
            "exogenous-empty", exogenous_fixture([seed, 1], "const"),
            _exogenous_graph(), (), True,
        ),
        AdjustmentCase(
            "exogenous-factor", exogenous_fixture([seed, 2], "u1"),
            _exogenous_graph(), ("U1",), True,
        ),
        AdjustmentCase(
            "confounded-by-factor", confounded_fixture([seed, 3], "u1"),
            _confounded_graph(), ("U1",), True,
        ),
        AdjustmentCase(
            "confounded-unadjusted", confounded_fixture([seed, 4], "const"),
            _confounded_graph(), (), False,
        ),
        AdjustmentCase(
            "confounded-wrong-factor",
            confounded_fixture([seed, 5], "u2"),
            _confounded_graph(u2_mark=cg.OBSERVED), ("U2",), False,
        ),
        AdjustmentCase(
            "anticausal-unadjusted", anticausal_fixture([seed, 6], "const"),
            _anticausal_graph(), (), False,
        ),
        AdjustmentCase(
            "direct-effect-label", direct_effect_fixture([seed, 7]),
            _direct_effect_graph(), ("Y",), False,
        ),
        AdjustmentCase(
            "confounded-label",
            confounded_fixture([seed, 8], "y", y_mode="u2"),
            _confounded_label_graph(), ("Y",), False,
        ),
    ]
    return cases


# ---------------------------------------------------------------------------
# Stratification-ladder chain
# ---------------------------------------------------------------------------

def chain_fixture(level: int) -> DiscreteScm:
    """Three fair bits; the input reveals bit 1 under one context, bit 2
    under the other.  ``level`` bits (0..3, leading) are exposed to the
    stratifier, so finer levels pin more of the sampler's posterior.
    """
    if not 0 <= level <= 3:
        raise ValueError("level must be in 0..3")
    u_domains = _binary_factors(3)
    p_u = {u: 1.0 / 8 for u in itertools.product((0, 1), repeat=3)}

    def cell(z, u):
        revealed = u[0] if z == "za" else u[1]
        s = "all" if level == 0 else "".join(str(b) for b in u[:level])
        return f"ctx={z} r={revealed}", u[0], s

    return _tabulate(
        u_domains, ("za", "zb"), p_u, (), {(): {"za": 0.5, "zb": 0.5}}, cell
    )
