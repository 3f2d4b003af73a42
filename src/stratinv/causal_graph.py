"""Causal DAGs, d-separation with explicit paths, adjustment-set checking.

Nodes carry a mark: "observed", "latent" (cannot be conditioned on) or
"selected" (a selection node, permanently conditioned on, which keeps the
collider it sits on open for every query). d-separation enumerates simple
paths and evaluates the blocking rule per path, because verdicts here must
come with the concrete open path that produced them; graphs in this domain
are small enough that enumeration is the simple and auditable choice.

The adjustment check certifies a candidate stratification for a
(treatment, outcome) pair:

  (i)  no candidate node is reachable from the treatment by a directed path
       that avoids the outcome (mediators and their off-outcome descendants
       are forbidden; nodes downstream of the outcome itself are allowed,
       which is what lets an anti-causal or selected-collider label act as
       the stratifier);
  (ii) treatment and outcome are d-separated by candidate + selected nodes
       in the graph where the treatment's edges into the outcome's causal
       pathway (the outcome and its ancestors) are removed.

Under (i)+(ii) the observed conditional law P(outcome | treatment, candidate)
identifies the interventional one, which is what makes a stratified
conditional-independence test complete for stratified invariance.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .errors import GraphError, UnknownNode

OBSERVED = "observed"
LATENT = "latent"
SELECTED = "selected"
_MARKS = (OBSERVED, LATENT, SELECTED)


@dataclass(frozen=True, eq=False)
class CausalDag:
    nodes: tuple[tuple[str, str], ...]  # (name, mark)
    edges: tuple[tuple[str, str], ...]  # (parent, child)

    def __post_init__(self):
        names = [n for n, _ in self.nodes]
        if len(set(names)) != len(names):
            raise GraphError("duplicate node names")
        for _, mark in self.nodes:
            if mark not in _MARKS:
                raise GraphError(f"unknown node mark {mark!r}")
        name_set = set(names)
        for a, b in self.edges:
            if a not in name_set or b not in name_set:
                raise UnknownNode(f"edge ({a!r}, {b!r}) references unknown node")
            if a == b:
                raise GraphError(f"self-loop on {a!r}")
        if len(set(self.edges)) != len(self.edges):
            raise GraphError("duplicate edges")
        self._toposort()  # rejects cycles

    # -- basic structure

    def mark(self, name: str) -> str:
        for n, m in self.nodes:
            if n == name:
                return m
        raise UnknownNode(f"node {name!r} not in graph")

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.nodes)

    def selected_nodes(self) -> frozenset[str]:
        return frozenset(n for n, m in self.nodes if m == SELECTED)

    def observed_nodes(self) -> frozenset[str]:
        return frozenset(n for n, m in self.nodes if m == OBSERVED)

    def parents(self, name: str) -> frozenset[str]:
        self.mark(name)
        return frozenset(a for a, b in self.edges if b == name)

    def children(self, name: str) -> frozenset[str]:
        self.mark(name)
        return frozenset(b for a, b in self.edges if a == name)

    def descendants(self, name: str) -> frozenset[str]:
        """Strict descendants (the node itself excluded)."""
        out: set[str] = set()
        frontier = list(self.children(name))
        while frontier:
            v = frontier.pop()
            if v not in out:
                out.add(v)
                frontier.extend(self.children(v))
        return frozenset(out)

    def ancestors(self, name: str) -> frozenset[str]:
        out: set[str] = set()
        frontier = list(self.parents(name))
        while frontier:
            v = frontier.pop()
            if v not in out:
                out.add(v)
                frontier.extend(self.parents(v))
        return frozenset(out)

    def _toposort(self) -> list[str]:
        indeg = {n: 0 for n, _ in self.nodes}
        for _, b in self.edges:
            indeg[b] += 1
        ready = [n for n, d in indeg.items() if d == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for a, b in self.edges:
                if a == v:
                    indeg[b] -= 1
                    if indeg[b] == 0:
                        ready.append(b)
        if len(order) != len(self.nodes):
            raise GraphError("graph has a directed cycle")
        return order

    def drop_edges(self, removed: Iterable[tuple[str, str]]) -> "CausalDag":
        gone = set(removed)
        return CausalDag(self.nodes, tuple(e for e in self.edges if e not in gone))


def dag(nodes: Mapping[str, str] | Iterable, edges: Iterable[tuple[str, str]]) -> CausalDag:
    """Convenience constructor; nodes may be a name->mark mapping or names."""
    if isinstance(nodes, Mapping):
        node_tuple = tuple(nodes.items())
    else:
        node_tuple = tuple(
            n if isinstance(n, tuple) else (n, OBSERVED) for n in nodes
        )
    return CausalDag(node_tuple, tuple(tuple(e) for e in edges))


# --- d-separation by path enumeration ---------------------------------------


def _simple_paths(g: CausalDag, a: str, b: str):
    """All simple paths a..b over the skeleton, as node sequences."""
    adjacency: dict[str, set[str]] = {n: set() for n in g.names()}
    for p, c in g.edges:
        adjacency[p].add(c)
        adjacency[c].add(p)

    def walk(path: list[str]):
        last = path[-1]
        if last == b:
            yield tuple(path)
            return
        for nxt in sorted(adjacency[last]):
            if nxt not in path:
                path.append(nxt)
                yield from walk(path)
                path.pop()

    yield from walk([a])


def _path_blocked(g: CausalDag, path: tuple[str, ...], cond: frozenset[str]) -> bool:
    edge_set = set(g.edges)
    for i in range(1, len(path) - 1):
        prev, v, nxt = path[i - 1], path[i], path[i + 1]
        into_left = (prev, v) in edge_set
        into_right = (nxt, v) in edge_set
        if into_left and into_right:  # collider
            opened = v in cond or bool(g.descendants(v) & cond)
            if not opened:
                return True
        else:  # chain or fork
            if v in cond:
                return True
    return False


def format_path(g: CausalDag, path: tuple[str, ...]) -> str:
    """Render a path with edge orientations, e.g. ``Z <- L -> Y -> X``."""
    edge_set = set(g.edges)
    bits = [path[0]]
    for a, b in zip(path, path[1:]):
        bits.append("->" if (a, b) in edge_set else "<-")
        bits.append(b)
    return " ".join(bits)


def open_paths(
    g: CausalDag, a: str, b: str, given: Iterable[str] = ()
) -> list[tuple[str, ...]]:
    """Every open (unblocked) simple path between a and b.

    Selection nodes are always part of the conditioning set. Conditioning on
    a latent node is rejected; querying latent endpoints is allowed (latent
    confounders are ordinary nodes, they just cannot be conditioned on).
    """
    g.mark(a)
    g.mark(b)
    if a == b:
        raise GraphError("d-separation query needs two distinct nodes")
    cond = set(given)
    for v in cond:
        if g.mark(v) == LATENT:
            raise GraphError(f"cannot condition on latent node {v!r}")
    if a in cond or b in cond:
        raise GraphError("conditioning set may not contain the query nodes")
    cond |= g.selected_nodes()
    return [
        p
        for p in _simple_paths(g, a, b)
        if not _path_blocked(g, p, frozenset(cond))
    ]


def d_separated(g: CausalDag, a: str, b: str, given: Iterable[str] = ()) -> bool:
    """True when every path between a and b is blocked by given + selected."""
    return not open_paths(g, a, b, given)


# --- adjustment sets ---------------------------------------------------------


@dataclass(frozen=True)
class AdjustmentReport:
    treatment: str
    outcome: str
    candidate: frozenset[str]
    valid: bool
    reasons: tuple[str, ...]
    open_path_names: tuple[str, ...]


def _forbidden_for(g: CausalDag, treatment: str, outcome: str) -> frozenset[str]:
    """Nodes reachable from the treatment by directed paths avoiding the outcome."""
    out: set[str] = set()
    frontier = [c for c in g.children(treatment) if c != outcome]
    while frontier:
        v = frontier.pop()
        if v not in out:
            out.add(v)
            frontier.extend(c for c in g.children(v) if c != outcome)
    return frozenset(out)


def _causal_cut(g: CausalDag, treatment: str, outcome: str) -> CausalDag:
    """Remove the treatment's edges into the outcome or its ancestors."""
    pathway = g.ancestors(outcome) | {outcome}
    removed = [
        (treatment, c) for c in g.children(treatment) if c in pathway
    ]
    return g.drop_edges(removed)


def is_adjustment_set(
    g: CausalDag, treatment: str, outcome: str, candidate: Iterable[str]
) -> AdjustmentReport:
    """Certify a candidate stratification set; see the module docstring.

    The report is explicit either way: a rejection names the offending
    candidate node or every open non-causal path (selection nodes included
    in the conditioning), an acceptance says what was checked.
    """
    cand = frozenset(candidate)
    g.mark(treatment)
    g.mark(outcome)
    for v in cand:
        g.mark(v)
    reasons: list[str] = []
    if treatment in cand or outcome in cand:
        reasons.append("candidate set may not contain the treatment or outcome")
        return AdjustmentReport(treatment, outcome, cand, False, tuple(reasons), ())
    latent = sorted(v for v in cand if g.mark(v) == LATENT)
    if latent:
        reasons.append(f"latent node(s) {latent} cannot be conditioned on")
        return AdjustmentReport(treatment, outcome, cand, False, tuple(reasons), ())

    forbidden = _forbidden_for(g, treatment, outcome) & cand
    for v in sorted(forbidden):
        reasons.append(
            f"{v} is a descendant of {treatment} off the causal pathway to "
            f"{outcome}, so conditioning on it distorts the treatment's effect"
        )

    cut = _causal_cut(g, treatment, outcome)
    opened = open_paths(cut, treatment, outcome, cand)
    names = tuple(format_path(cut, p) for p in opened)
    for text in names:
        reasons.append(f"open non-causal path: {text}")

    valid = not forbidden and not opened
    if valid:
        sel = sorted(g.selected_nodes())
        detail = f" (selection nodes {sel} held conditioned)" if sel else ""
        reasons.append(
            f"every non-causal path between {treatment} and {outcome} is "
            f"blocked by {sorted(cand) or '{}'}{detail}"
        )
    return AdjustmentReport(treatment, outcome, cand, valid, tuple(reasons), names)


def minimal_adjustment_sets(
    g: CausalDag, treatment: str, outcome: str, max_size: int = 3
) -> list[frozenset[str]]:
    """Inclusion-minimal valid candidate sets up to max_size, smallest first.

    Candidates are drawn from observed nodes other than the treatment and
    outcome; selection nodes are never candidates (they are already
    conditioned on by definition).
    """
    pool = sorted(g.observed_nodes() - {treatment, outcome})
    valid: list[frozenset[str]] = []
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(pool, size):
            cand = frozenset(combo)
            if any(prev < cand for prev in valid):
                continue
            if is_adjustment_set(g, treatment, outcome, cand).valid:
                valid.append(cand)
    return sorted(valid, key=lambda c: (len(c), sorted(c)))


# --- reference structures ----------------------------------------------------


def anticausal_graph() -> CausalDag:
    """Label causes the input; context and label share a latent confounder.

    Z <- L -> Y with Z -> X <- Y and latent input noise U -> X. The label is
    the textbook stratifier here: it blocks the confounded path.
    """
    return dag(
        {"Z": OBSERVED, "X": OBSERVED, "Y": OBSERVED, "L": LATENT, "U": LATENT},
        [("L", "Z"), ("L", "Y"), ("Z", "X"), ("Y", "X"), ("U", "X")],
    )


def causal_confounded_graph() -> CausalDag:
    """Input causes the label; the confounder reaches Y, not X.

    Z <- L -> Y, Z -> X -> Y, U -> X. No stratification is needed: the only
    non-causal Z..X path runs through the collider Y and is closed.
    """
    return dag(
        {"Z": OBSERVED, "X": OBSERVED, "Y": OBSERVED, "L": LATENT, "U": LATENT},
        [("L", "Z"), ("L", "Y"), ("Z", "X"), ("U", "X"), ("X", "Y")],
    )


def causal_selection_graph() -> CausalDag:
    """Input causes the label; the sample is selected on context and label.

    Z -> X -> Y, U -> X, and a selection node B with Z -> B <- Y. Selection
    keeps the collider open, so the label must be conditioned on.
    """
    return dag(
        {
            "Z": OBSERVED,
            "X": OBSERVED,
            "Y": OBSERVED,
            "U": LATENT,
            "B": SELECTED,
        },
        [("Z", "X"), ("U", "X"), ("X", "Y"), ("Z", "B"), ("Y", "B")],
    )


# --- json io -----------------------------------------------------------------


def load_dag(source) -> CausalDag:
    """Load a graph from a JSON file path or parsed dict."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    nodes = tuple((n["name"], n.get("mark", OBSERVED)) for n in doc["nodes"])
    edges = tuple((a, b) for a, b in doc["edges"])
    return CausalDag(nodes, edges)


def dump_dag(g: CausalDag) -> dict:
    return {
        "nodes": [{"name": n, "mark": m} for n, m in g.nodes],
        "edges": [list(e) for e in g.edges],
    }
