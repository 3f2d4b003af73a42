"""Discrete structural causal models with explicit potential outcomes.

A model has finite exogenous factors U = (U1..Uk) with joint table p_u, a
finite context Z drawn from a table conditioned on a declared subset of the
factors, and deterministic mechanisms, held as one cell (x, y, s) per (z, u):

    x   input shown to a predictor
    y   true label
    s   stratifier measurement, at that label

All stochasticity lives in p_u and p_z_given_parents, so a world (u, z) pins
down every observed and potential value: the potential triple at z* is just
the cell at (z*, u). Exact distributions are computed by enumerating worlds;
nothing in this module is approximate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    AmbiguousContext,
    DomainMismatch,
    EnumerationTooLarge,
    FieldTable,
    InconsistentEvidence,
    ZeroMassStratum,
    json_input,
)

ENUMERATION_CAP = 1_000_000
_ROW_SUM_TOL = 1e-12

#: Sentinel returned by context recoverers when (x, s) does not identify z.
AMBIGUOUS = object()


@dataclass(frozen=True)
class FiniteDomain:
    """Named, ordered finite set of symbolic values."""

    name: str
    values: tuple

    def __post_init__(self):
        if len(set(self.values)) != len(self.values):
            raise DomainMismatch(f"domain {self.name!r} has duplicate values")
        if not self.values:
            raise DomainMismatch(f"domain {self.name!r} is empty")

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value) -> bool:
        return value in self.values


@dataclass(frozen=True)
class World:
    """One realization of all exogenous factors plus the factual context."""

    u: tuple
    z: Any


@dataclass(frozen=True, eq=False)
class DiscreteScm:
    """Finite structural model; see the module docstring for the semantics.

    ``p_u`` maps full factor tuples to probabilities. ``p_z_given_parents``
    maps tuples of the ``z_parents`` factor values (in declared order; the
    empty tuple when Z is exogenous) to rows over the context domain.
    ``cells`` maps each factor tuple to its (x, y, s) cell at every context,
    in domain order. ``y_values`` / ``s_values`` optionally declare label and
    stratum order (used for deterministic tie-breaks); when absent they are
    derived in enumeration order.
    """

    u_domains: tuple[FiniteDomain, ...]
    z_domain: FiniteDomain
    p_u: Mapping[tuple, float]
    z_parents: tuple[str, ...]
    p_z_given_parents: Mapping[tuple, Mapping[Any, float]]
    cells: Mapping[tuple, tuple[tuple, ...]]
    y_values: tuple | None = None
    s_values: tuple | None = None

    def __post_init__(self):
        names = [d.name for d in self.u_domains]
        if len(set(names)) != len(names):
            raise DomainMismatch("duplicate exogenous factor names")
        unknown = set(self.z_parents) - set(names)
        if unknown:
            raise DomainMismatch(f"z_parents reference unknown factors {unknown}")
        u_tuples = list(itertools.product(*(d.values for d in self.u_domains)))
        missing = [u for u in u_tuples if u not in self.p_u]
        if missing:
            raise DomainMismatch(f"p_u missing entries, e.g. {missing[0]!r}")
        _check_rows({(): {u: self.p_u[u] for u in u_tuples}}, "p_u")
        parent_tuples = list(
            itertools.product(
                *(d.values for d in self.u_domains if d.name in self.z_parents)
            )
        )
        rows = {}
        for pt in parent_tuples:
            try:
                row = self.p_z_given_parents[pt]
            except KeyError:
                raise DomainMismatch(f"p_z_given_parents missing row for {pt!r}")
            missing = set(self.z_domain.values) - set(row)
            if missing:
                raise DomainMismatch(
                    f"p_z_given_parents row {pt!r} missing contexts {missing}"
                )
            rows[pt] = row
        _check_rows(rows, "p_z_given_parents")

    def z_row(self, u: tuple) -> Mapping[Any, float]:
        """Context distribution for the given factor tuple."""
        key = tuple(
            v for v, d in zip(u, self.u_domains) if d.name in self.z_parents
        )
        return self.p_z_given_parents[key]

    def n_worlds(self) -> int:
        n = len(self.z_domain)
        for d in self.u_domains:
            n *= len(d)
        return n

    @cached_property
    def index(self) -> "WorldIndex":
        """The model's enumeration index; see WorldIndex."""
        return WorldIndex(self)


def _check_rows(rows: Mapping[tuple, Mapping[Any, float]], what: str) -> None:
    for key, row in rows.items():
        total = 0.0
        for value, p in row.items():
            if p < 0:
                raise DomainMismatch(f"{what}[{key!r}][{value!r}] is negative")
            total += p
        if abs(total - 1.0) > _ROW_SUM_TOL:
            raise DomainMismatch(
                f"{what} row {key!r} sums to {total!r}, not 1 within {_ROW_SUM_TOL}"
            )


# --- the enumeration index and potentials -----------------------------------


class WorldCodes(NamedTuple):
    """One model's worlds as integer codes (``WorldIndex.codes``).

    Arrays run over the positive-mass worlds in enumeration order; a column
    of ``input`` and ``pair`` is a context, in domain order.
    """

    mass: np.ndarray  # (worlds,) float: each world's probability
    stratum: np.ndarray  # (worlds,) code into ``strata``
    strata: tuple  # distinct observed strata, first seen first
    input: np.ndarray  # (worlds, contexts) code into ``inputs``: x at z
    inputs: tuple  # distinct potential inputs, first seen first
    pair: np.ndarray  # (worlds, contexts) code of (x at z, observed s)
    pairs: dict  # (x, s) -> its code; codes follow stratum, context, world
    context: np.ndarray  # (pairs,) the one context showing the pair, or -1


class Laws(NamedTuple):
    """One law per row, built by ``group_laws``.

    Row ``r``'s law gives item ``item[i]`` probability ``prob[i]`` for i in
    ``start[r]:start[r + 1]``, its items in first-seen order. The items'
    values (inputs, labels) travel beside the table.
    """

    start: np.ndarray
    item: np.ndarray
    prob: np.ndarray


class WorldIndex:
    """One model's worlds and the maps every exact consumer reads.

    Each part is built on first use and kept with the model (``scm.index``),
    so the worlds are walked once however many recoverers, samplers and
    checks read them, and the index goes when the model does.
    """

    def __init__(self, scm: DiscreteScm):
        self._scm = scm
        self._laws: dict[int, Laws] = {}

    @cached_property
    def worlds(self) -> tuple[tuple[World, float], ...]:
        """All positive-mass worlds with their exact probabilities.

        Raises EnumerationTooLarge before materializing anything if the world
        count |Z| * prod |Ui| exceeds ENUMERATION_CAP.
        """
        scm = self._scm
        if scm.n_worlds() > ENUMERATION_CAP:
            raise EnumerationTooLarge(
                f"{scm.n_worlds()} worlds exceed the cap of {ENUMERATION_CAP}"
            )
        out = []
        for u in itertools.product(*(d.values for d in scm.u_domains)):
            pu = scm.p_u[u]
            if pu == 0.0:
                continue
            row = scm.z_row(u)
            for z in scm.z_domain.values:
                mass = pu * row[z]
                if mass > 0.0:
                    out.append((World(u=u, z=z), mass))
        total = sum(m for _, m in out)
        if abs(total - 1.0) > 1e-9:
            raise DomainMismatch(f"joint mass sums to {total!r}")
        return tuple(out)

    @cached_property
    def codes(self) -> WorldCodes:
        """The worlds as integer codes, for array sums over them."""
        worlds, cells = self.worlds, self._scm.cells
        zs = self._scm.z_domain.values
        n_w, n_z = len(worlds), len(zs)
        at = {z: k for k, z in enumerate(zs)}
        strata: dict = {}
        stratum = np.fromiter(
            (strata.setdefault(cells[w.u][at[w.z]][2], len(strata)) for w, _ in worlds),
            np.intp, n_w,
        )
        inputs: dict = {}
        input_code = np.fromiter(
            (
                inputs.setdefault(x, len(inputs))
                for w, _ in worlds for x, _y, _s in cells[w.u]
            ),
            np.intp, n_w * n_z,
        )
        # (x, s) pairs are numbered in the order the exact law visits them:
        # stratum by stratum, then context by context, then world by world
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

    def recover(self, x, s) -> int:
        """The code of the evidence pair (x, s), which one context shows.

        Raises InconsistentEvidence when no world shows the pair, and
        AmbiguousContext, naming the contexts in domain order, when several
        contexts do.
        """
        codes = self.codes
        c = codes.pairs.get((x, s))
        if c is None:
            raise InconsistentEvidence(f"no world consistent with x={x!r}, s={s!r}")
        if codes.context[c] < 0:
            shown = (codes.pair == c).any(0).tolist()
            found = [z for z, hit in zip(self._scm.z_domain.values, shown) if hit]
            raise AmbiguousContext(
                f"contexts {found!r} all consistent with x={x!r}, s={s!r}"
            )
        return c

    def conditional_laws(self, k: int) -> Laws:
        """Every pair's law of X(z+) at the context of domain position k, its
        items codes into ``codes.inputs``.

        A pair's evidence is the worlds that show it at its one context z0.
        Its law is their mass per potential input at z+, added in world order
        and divided by their total, likewise added, with the support in
        first-seen order; a pair several contexts show has an empty law. All
        pairs come from one pass over the worlds, and each context's laws are
        kept, so at most |Z| are.
        """
        laws = self._laws.get(k)
        if laws is None:
            laws = self._laws[k] = self._conditional_laws(k)
        return laws

    def _conditional_laws(self, k: int) -> Laws:
        codes = self.codes
        n_pairs = len(codes.pairs)
        # each world at each context whose pair that context alone shows,
        # world by world; a pair's evidence is its own entries, in world order
        world, z0 = np.nonzero(
            codes.context[codes.pair] == np.arange(codes.pair.shape[1])
        )
        evidence, mass = codes.pair[world, z0], codes.mass[world]
        total = np.bincount(evidence, weights=mass, minlength=n_pairs)
        law = group_laws(
            evidence, codes.input[world, k], len(codes.inputs), mass, n_pairs
        )
        np.divide(law.prob, np.repeat(total, np.diff(law.start)), out=law.prob)
        return law

    @cached_property
    def groups(self) -> dict[tuple, tuple[tuple[World, ...], np.ndarray]]:
        """(observed s, z) -> its worlds and their normalized masses."""
        strata = self.codes.strata
        members: dict[tuple, tuple[list, list]] = {}
        for (w, mass), s in zip(self.worlds, self.codes.stratum.tolist()):
            worlds, masses = members.setdefault((strata[s], w.z), ([], []))
            worlds.append(w)
            masses.append(mass)
        out = {}
        for key, (worlds, masses) in members.items():
            p = np.array(masses, dtype=float)
            out[key] = (tuple(worlds), p / p.sum())
        return out

    @cached_property
    def u_table(self) -> tuple[list[tuple], np.ndarray]:
        """Every factor tuple and its normalized probability, for sampling;
        needs no enumeration, so models beyond the cap can still be sampled."""
        us = list(itertools.product(*(d.values for d in self._scm.u_domains)))
        pu = np.array([self._scm.p_u[u] for u in us], dtype=float)
        return us, pu / pu.sum()


def first_seen(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Code the entries of ``key`` by value, in order of first appearance.

    Returns each entry's code and the position where each code first
    appears (increasing). The sort is stable, so the first entry of each run
    of equal values is where that value first appears.
    """
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    new = np.ones(len(key), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    at = order[new]  # where each value first appears, in value order
    by_appearance = np.argsort(at, kind="stable")
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(len(at))
    run = np.cumsum(new)
    run -= 1
    code = np.empty_like(order)
    code[order] = rank[run]
    return code, at[by_appearance]


def group_laws(
    row: np.ndarray, item: np.ndarray, n_items: int, weight: np.ndarray, n_rows: int
) -> Laws:
    """The weights summed per (row, item), as one law per row of ``n_rows``.

    Each sum adds its entries' weights in entry order, and each row lists
    its items in the order its entries first name them; a row no entry names
    has an empty law. The sums are not normalized.
    """
    key = row * n_items + item
    code, at = first_seen(key)
    # float even with no entries, where bincount would give integers
    sums = np.bincount(code, weights=weight).astype(float, copy=False)
    row_of, item_of = np.divmod(key[at], n_items)
    order = np.argsort(row_of, kind="stable")
    start = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(row_of, minlength=n_rows), out=start[1:])
    return Laws(start, item_of[order], sums[order])


def enumerate_joint(scm: DiscreteScm) -> tuple[tuple[World, float], ...]:
    """All positive-mass worlds with their exact probabilities."""
    return scm.index.worlds


def potential(scm: DiscreteScm, world: World, z_star: Any) -> tuple:
    """Potential (x, y, s) of a world under the intervention Z := z_star."""
    if z_star not in scm.z_domain:
        raise DomainMismatch(
            f"context {z_star!r} not in domain {scm.z_domain.name!r}"
        )
    if len(world.u) != len(scm.u_domains):
        raise DomainMismatch("world factor tuple has the wrong arity")
    for value, dom in zip(world.u, scm.u_domains):
        if value not in dom:
            raise DomainMismatch(f"value {value!r} not in domain {dom.name!r}")
    return scm.cells[tuple(world.u)][scm.z_domain.values.index(z_star)]


def observed(scm: DiscreteScm, world: World) -> tuple:
    """Factual (x, y, s): the potential triple at the world's own context."""
    return potential(scm, world, world.z)


def stratum_values(scm: DiscreteScm) -> tuple:
    """Stratum domain: declared order, or first-seen enumeration order."""
    if scm.s_values is not None:
        return tuple(scm.s_values)
    return scm.index.codes.strata


# --- sampling ---------------------------------------------------------------


def sample_world(scm: DiscreteScm, rng: np.random.Generator) -> World:
    """Draw one world: u ~ p_u, then z from its conditional row."""
    us, pu = scm.index.u_table
    u = us[rng.choice(len(us), p=pu)]
    row = scm.z_row(u)
    zs = scm.z_domain.values
    pz = np.array([row[z] for z in zs], dtype=float)
    z = zs[rng.choice(len(zs), p=pz / pz.sum())]
    return World(u=u, z=z)


def conditional_world_table(scm: DiscreteScm, stratum, z):
    """Worlds and normalized masses matching the observed (s, z) evidence."""
    try:
        return scm.index.groups[(stratum, z)]
    except KeyError:
        raise ZeroMassStratum(
            f"no world with stratum={stratum!r}, z={z!r}"
        ) from None


def sample_world_conditional(
    scm: DiscreteScm, rng: np.random.Generator, stratum, z
) -> World:
    worlds, probs = conditional_world_table(scm, stratum, z)
    return worlds[rng.choice(len(worlds), p=probs)]


# --- exact context recovery and conditional input sampling ------------------


class ExactRecoverer:
    """Recovers z from (x, s) by enumeration; AMBIGUOUS when not unique.

    The recoverable-context assumption says the pair (potential input at z,
    observed stratum) determines z; this object checks it instead of trusting
    it. ``recover`` returns the unique consistent context, or the AMBIGUOUS
    sentinel when zero or several contexts are consistent.
    """

    def __init__(self, scm: DiscreteScm):
        self._index = scm.index
        self._zs = scm.z_domain.values

    def recover(self, x, s):
        try:
            return self._zs[self._index.codes.context[self._index.recover(x, s)]]
        except (InconsistentEvidence, AmbiguousContext):
            return AMBIGUOUS


class ExactConditionalSampler:
    """Exact draws from p(X(z+) | X(z)=x, S=s) by enumeration over worlds.

    Given evidence (x, s), the unique consistent context z is recovered, the
    posterior over worlds w whose input at z is x and whose observed stratum
    is s is formed, and their inputs X(z+) at z+ are pushed through it: the
    pair's law in the model's ``WorldIndex.conditional_laws``. A context
    outside the domain, a pair no world shows and a pair several contexts
    show raise, in that order.
    """

    def __init__(self, scm: DiscreteScm):
        self.scm = scm

    def draw(self, x, s, z_plus, rng: np.random.Generator):
        if z_plus not in self.scm.z_domain:
            raise DomainMismatch(f"context {z_plus!r} outside the domain")
        index = self.scm.index
        c = index.recover(x, s)
        law = index.conditional_laws(self.scm.z_domain.values.index(z_plus))
        a, b = law.start[c], law.start[c + 1]
        return index.codes.inputs[law.item[a + rng.choice(b - a, p=law.prob[a:b])]]


# --- table-backed construction and JSON io ----------------------------------


def _check_key_parts(domains: Iterable[FiniteDomain]) -> None:
    """Each domain value reads as its own table-key part: it holds no '|',
    and no other value of its domain prints alike (1 and "1")."""
    for d in domains:
        seen = {}
        for v in d.values:
            if "|" in (text := str(v)):
                raise DomainMismatch(f"value {v!r} may not contain '|'")
            if seen.setdefault(text, v) is not v:
                raise DomainMismatch(
                    f"domain {d.name!r} values {seen[text]!r} and {v!r} both read {text!r}"
                )


def scm_from_tables(
    u_domains: Iterable[FiniteDomain],
    z_domain: FiniteDomain,
    p_u: Mapping[tuple, float],
    z_parents: Iterable[str],
    p_z_given_parents: Mapping[tuple, Mapping[Any, float]],
    x_table: Mapping[str, Any],
    y_table: Mapping[str, Any],
    s_table: Mapping[str, Any] | None = None,
    y_values: tuple | None = None,
    s_values: tuple | None = None,
) -> DiscreteScm:
    """Build a model whose mechanisms are lookup tables.

    x_table and y_table are keyed ``"z|u1|...|uk"``; s_table is keyed
    ``"z|u1|...|uk|y"``, and only the entry at each cell's own label y is
    read. When s_table is None the stratifier is the constant None (the
    empty stratification).  Missing entries are rejected here, so a
    malformed file fails at load time naming the offending table.
    """
    u_domains = tuple(u_domains)
    _check_key_parts((z_domain, *u_domains))
    cells = {}
    for u in itertools.product(*(d.values for d in u_domains)):
        row = []
        for z in z_domain.values:
            key = "|".join(map(str, (z, *u)))
            if key not in x_table:
                raise DomainMismatch(f"x_table is missing entry {key!r}")
            if key not in y_table:
                raise DomainMismatch(f"y_table is missing entry {key!r}")
            y, s = y_table[key], None
            if s_table is not None:
                s_key = f"{key}|{y!s}"
                if s_key not in s_table:
                    raise DomainMismatch(f"s_table is missing entry {s_key!r}")
                s = s_table[s_key]
            row.append((x_table[key], y, s))
        cells[u] = tuple(row)
    return DiscreteScm(
        u_domains=u_domains,
        z_domain=z_domain,
        p_u=dict(p_u),
        z_parents=tuple(z_parents),
        p_z_given_parents={k: dict(v) for k, v in p_z_given_parents.items()},
        cells=cells,
        y_values=y_values,
        s_values=s_values,
    )


def _nested_to_map(doc, key: str, domains: list[FiniteDomain]):
    """Nested probability array ``doc[key]`` in domain order -> {value tuple: p}."""
    out = {}

    def walk(node, prefix):
        depth = len(prefix)
        if depth == len(domains):
            if node.__class__ not in (int, float):
                raise ValueError(f"{key} array leaf {prefix} must be a number, got {node!r}")
            out[prefix] = float(node)
            return
        dom = domains[depth]
        if node.__class__ is not list:
            raise ValueError(f"{key} array level {depth} must be a list, got {node!r}")
        if len(node) != len(dom):
            raise DomainMismatch(
                f"{key} array level {depth} has {len(node)} entries, domain "
                f"{dom.name!r} has {len(dom)}"
            )
        for value, child in zip(dom.values, node):
            walk(child, (*prefix, value))

    walk(doc[key], ())
    return out


def _map_to_nested(table, domains: list[FiniteDomain]):
    def build(prefix):
        depth = len(prefix)
        if depth == len(domains):
            return table[tuple(prefix)]
        return [build(prefix + [v]) for v in domains[depth].values]

    return build([])


_MODEL_FIELDS = FieldTable("model key", {
    "u_domains": "list", "z_domain": "object", "p_u": "list or number",
    "z_parents": "list of strings", "p_z_given_parents": "list", "x_table": "object of scalars",
    "y_table": "object of scalars", "s_table": "object of scalars or null",
    "y_values": "list of scalars", "s_values": "list of scalars",
}, required=("u_domains", "z_domain", "p_u", "p_z_given_parents", "x_table", "y_table"))
_DOMAIN_FIELDS = FieldTable("domain key", {"name": "string", "values": "list of scalars"},
                            required=("name", "values"))


def load_scm(source) -> DiscreteScm:
    """Load a table-backed model from a JSON file path or parsed dict."""
    if isinstance(source, (str, Path)):
        with json_input(source) as doc:
            return load_scm(doc)
    doc = _MODEL_FIELDS.check(source)
    *u_domains, z_domain = (
        FiniteDomain(d["name"], tuple(d["values"]))
        for d in map(_DOMAIN_FIELDS.check, (*doc["u_domains"], doc["z_domain"]))
    )
    p_u = _nested_to_map(doc, "p_u", u_domains)
    z_parents = tuple(doc.get("z_parents", ()))
    parent_domains = [d for d in u_domains if d.name in z_parents]
    flat = _nested_to_map(doc, "p_z_given_parents", parent_domains + [z_domain])
    p_z: dict[tuple, dict] = {}
    for key, p in flat.items():
        p_z.setdefault(key[:-1], {})[key[-1]] = p
    return scm_from_tables(
        u_domains, z_domain, p_u, z_parents, p_z,
        doc["x_table"], doc["y_table"], doc.get("s_table"),
        y_values=tuple(doc["y_values"]) if "y_values" in doc else None,
        s_values=tuple(doc["s_values"]) if "s_values" in doc else None,
    )


def dump_scm(scm: DiscreteScm) -> dict:
    """Serialize a model to a JSON-ready dict, one table entry per (z, u)
    cell; the s_table is left out when every cell's stratum is None."""
    parent_domains = [d for d in scm.u_domains if d.name in scm.z_parents]
    flat = {
        key + (z,): p
        for key, row in scm.p_z_given_parents.items()
        for z, p in row.items()
    }
    doc = {
        "u_domains": [
            {"name": d.name, "values": list(d.values)} for d in scm.u_domains
        ],
        "z_domain": {"name": scm.z_domain.name, "values": list(scm.z_domain.values)},
        "p_u": _map_to_nested(scm.p_u, list(scm.u_domains)),
        "z_parents": list(scm.z_parents),
        "p_z_given_parents": _map_to_nested(flat, parent_domains + [scm.z_domain]),
    }
    cells = [
        (z, u, row[k])
        for k, z in enumerate(scm.z_domain.values)
        for u, row in scm.cells.items()
    ]
    _check_key_parts((scm.z_domain, *scm.u_domains))
    keys = ["|".join(map(str, (z, *u))) for z, u, _cell in cells]
    doc["x_table"] = {key: x for key, (_z, _u, (x, _y, _s)) in zip(keys, cells)}
    doc["y_table"] = {key: y for key, (_z, _u, (_x, y, _s)) in zip(keys, cells)}
    if any(s is not None for _z, _u, (_x, _y, s) in cells):
        doc["s_table"] = {f"{key}|{y!s}": s for key, (_z, _u, (_x, y, s)) in zip(keys, cells)}
    if scm.y_values is not None:
        doc["y_values"] = list(scm.y_values)
    if scm.s_values is not None:
        doc["s_values"] = list(scm.s_values)
    return doc
