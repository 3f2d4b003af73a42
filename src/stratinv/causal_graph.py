"""Causal DAGs, d-separation with explicit paths, adjustment-set checking.

Nodes carry a mark: "observed", "latent" (cannot be conditioned on) or
"selected" (a selection node, permanently conditioned on, which keeps the
collider it sits on open for every query).

Verdicts use Bayes-ball reachability (Shachter, UAI 1998; Koller & Friedman,
Alg. 3.1): a search over (node, direction) states that is linear in the size
of the graph, so the validity test in `is_adjustment_set` and every
candidate of `minimal_adjustment_sets` cost O(V + E) however many paths the
graph has. A rejection still names the concrete open paths behind it:
`open_paths` walks simple paths depth-first over the sorted adjacency and
drops a prefix at its first blocked triple. Blocking is local to a triple, so
the walk yields exactly the open paths in the order of a full simple-path
enumeration, and it runs only when reachability says there is one.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .errors import GraphError, UnknownNode, json_input

OBSERVED = "observed"
LATENT = "latent"
SELECTED = "selected"
_MARKS = (OBSERVED, LATENT, SELECTED)


@dataclass(frozen=True, eq=False)
class CausalDag:
    """Marked DAG; the mark, parent, child and sorted adjacency maps are
    built once at construction and shared by every query on the graph."""

    nodes: tuple[tuple[str, str], ...]  # (name, mark)
    edges: tuple[tuple[str, str], ...]  # (parent, child)

    def __post_init__(self):
        marks = dict(self.nodes)
        if len(marks) != len(self.nodes):
            raise GraphError("duplicate node names")
        for mark in marks.values():
            if mark not in _MARKS:
                raise GraphError(f"unknown node mark {mark!r}")
        parents: dict[str, set[str]] = {n: set() for n in marks}
        children: dict[str, set[str]] = {n: set() for n in marks}
        for a, b in self.edges:
            if a not in marks or b not in marks:
                raise UnknownNode(f"edge ({a!r}, {b!r}) references unknown node")
            if a == b:
                raise GraphError(f"self-loop on {a!r}")
            parents[b].add(a)
            children[a].add(b)
        if len(set(self.edges)) != len(self.edges):
            raise GraphError("duplicate edges")
        object.__setattr__(self, "_marks", marks)
        object.__setattr__(
            self, "_parents", {n: frozenset(v) for n, v in parents.items()}
        )
        object.__setattr__(
            self, "_children", {n: frozenset(v) for n, v in children.items()}
        )
        object.__setattr__(
            self,
            "_adjacent",
            {n: tuple(sorted(parents[n] | children[n])) for n in marks},
        )
        self._check_acyclic()

    # -- basic structure

    def mark(self, name: str) -> str:
        try:
            return self._marks[name]
        except KeyError:
            raise UnknownNode(f"node {name!r} not in graph") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._marks)

    def selected_nodes(self) -> frozenset[str]:
        return frozenset(n for n, m in self.nodes if m == SELECTED)

    def observed_nodes(self) -> frozenset[str]:
        return frozenset(n for n, m in self.nodes if m == OBSERVED)

    def children(self, name: str) -> frozenset[str]:
        self.mark(name)
        return self._children[name]

    def ancestors(self, name: str) -> frozenset[str]:
        """Strict ancestors (the node itself excluded)."""
        self.mark(name)
        return _upward_closure(self, self._parents[name])

    def _check_acyclic(self) -> None:
        indeg = {n: len(p) for n, p in self._parents.items()}
        ready = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while ready:
            v = ready.pop()
            seen += 1
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if seen != len(indeg):
            raise GraphError("graph has a directed cycle")

    def drop_edges(self, removed: Iterable[tuple[str, str]]) -> "CausalDag":
        gone = set(removed)
        return CausalDag(self.nodes, tuple(e for e in self.edges if e not in gone))


def _upward_closure(g: CausalDag, start: Iterable[str]) -> frozenset[str]:
    """The start nodes and every ancestor of one of them."""
    out: set[str] = set()
    frontier = list(start)
    while frontier:
        v = frontier.pop()
        if v not in out:
            out.add(v)
            frontier.extend(g._parents[v])
    return frozenset(out)


def dag(nodes: Mapping[str, str] | Iterable, edges: Iterable[tuple[str, str]]) -> CausalDag:
    """Convenience constructor; nodes may be a name->mark mapping or names."""
    if isinstance(nodes, Mapping):
        node_tuple = tuple(nodes.items())
    else:
        node_tuple = tuple(
            n if isinstance(n, tuple) else (n, OBSERVED) for n in nodes
        )
    return CausalDag(node_tuple, tuple(tuple(e) for e in edges))


# --- d-separation: reachability verdicts, pruned path walk -------------------

_END = object()


def _conditioning(g: CausalDag, a: str, b: str, given: Iterable[str]) -> frozenset[str]:
    """Validate a query; the conditioning set with the selection nodes added."""
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
    return frozenset(cond | g.selected_nodes())


def _connected(g: CausalDag, a: str, b: str, cond: frozenset[str]) -> bool:
    """Bayes-ball: does an active trail join a and b given cond?

    A state is (node, arrived from a child). A non-conditioned node passes
    the ball on to its children, and to its parents when the ball came up
    from a child; a collider passes it back up to its parents when it is in
    cond or an ancestor of a cond node. The source passes in every direction.
    """
    opens = _upward_closure(g, cond)
    parents, children = g._parents, g._children
    stack = [(p, True) for p in parents[a]] + [(c, False) for c in children[a]]
    seen: set[tuple[str, bool]] = set()
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        v, up = state
        if v == b:
            return True
        if v not in cond:
            stack.extend((c, False) for c in children[v])
            if up:
                stack.extend((p, True) for p in parents[v])
        if not up and v in opens:
            stack.extend((p, True) for p in parents[v])
    return False


def _open_walk(g: CausalDag, a: str, b: str, cond: frozenset[str]):
    """Open simple paths a..b, depth-first over the sorted adjacency.

    A prefix is extended from its last node v to a neighbour only if the
    triple (previous, v, neighbour) is open: a collider must be in cond or
    an ancestor of it, any other middle node must be outside cond.
    """
    opens = _upward_closure(g, cond)
    parents, adjacent = g._parents, g._adjacent
    path, on_path = [a], {a}
    pending = [iter(adjacent[a])]
    while pending:
        nxt = next(pending[-1], _END)
        if nxt is _END:
            pending.pop()
            on_path.discard(path.pop())
            continue
        if nxt in on_path:
            continue
        if len(path) > 1:
            prev, v = path[-2], path[-1]
            if prev in parents[v] and nxt in parents[v]:  # collider at v
                if v not in opens:
                    continue
            elif v in cond:
                continue
        if nxt == b:
            yield (*path, b)
            continue
        path.append(nxt)
        on_path.add(nxt)
        pending.append(iter(adjacent[nxt]))


def format_path(g: CausalDag, path: tuple[str, ...]) -> str:
    """Render a path with edge orientations, e.g. ``Z <- L -> Y -> X``."""
    bits = [path[0]]
    for a, b in zip(path, path[1:]):
        bits.append("->" if b in g._children.get(a, ()) else "<-")
        bits.append(b)
    return " ".join(bits)


def open_paths(
    g: CausalDag, a: str, b: str, given: Iterable[str] = ()
) -> list[tuple[str, ...]]:
    """Every open (unblocked) simple path between a and b.

    Selection nodes are always part of the conditioning set. Conditioning on
    a latent node is rejected; querying latent endpoints is allowed (latent
    confounders are ordinary nodes, they just cannot be conditioned on).
    Paths come in depth-first order over sorted neighbours.
    """
    cond = _conditioning(g, a, b, given)
    if not _connected(g, a, b, cond):
        return []
    return list(_open_walk(g, a, b, cond))


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
            frontier.extend(c for c in g._children[v] if c != outcome)
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
    for v in sorted(cand):  # the first unknown node is named whatever the hash seed
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
    conditioned on by definition). Each candidate costs one reachability
    check on the causal cut, which is built once.
    """
    if max_size < 0:
        raise ValueError(f"max_size must be at least 0, got {max_size}")
    forbidden = _forbidden_for(g, treatment, outcome)
    cut = _causal_cut(g, treatment, outcome)
    selected = _conditioning(cut, treatment, outcome, ())
    pool = sorted(g.observed_nodes() - {treatment, outcome})
    valid: list[frozenset[str]] = []
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(pool, size):
            cand = frozenset(combo)
            if any(prev < cand for prev in valid):
                continue
            if not cand & forbidden and not _connected(
                cut, treatment, outcome, cand | selected
            ):
                valid.append(cand)
    return sorted(valid, key=lambda c: (len(c), sorted(c)))


# --- json io -----------------------------------------------------------------


def load_dag(source) -> CausalDag:
    """Load a graph from a JSON file path or parsed dict."""
    if isinstance(source, (str, Path)):
        with json_input(source) as doc:
            return load_dag(doc)
    nodes = tuple((n["name"], n.get("mark", OBSERVED)) for n in source["nodes"])
    edges = tuple((a, b) for a, b in source["edges"])
    return CausalDag(nodes, edges)
