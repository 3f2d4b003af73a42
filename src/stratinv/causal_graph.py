"""Causal DAGs, d-separation with explicit paths, adjustment-set checking.

Nodes carry a mark: "observed", "latent" (cannot be conditioned on) or
"selected" (a selection node, permanently conditioned on, which keeps the
collider it sits on open for every query).

d-separation is written once, as a trail rule: which next steps are open
for a trail that reached a node along an edge into it or out of it. The
verdict, the named paths and the minimal search all read it. Reachability
over those states, as in Bayes-ball (Shachter, UAI 1998), is linear in the
graph however many paths it has. A rejection names the open paths behind
it: a depth-first walk over the same steps that never steps back onto its
own path. Blocking is local to a triple, so the walk yields exactly the open
paths in the order of a full simple-path enumeration; it runs only when
reachability says there is one.

The adjustment check certifies a candidate stratification for a
(treatment, outcome) pair:

  (i)  no candidate node is reachable from the treatment by a directed path
       that avoids the outcome (mediators and their off-outcome descendants
       are forbidden; nodes downstream of the outcome itself are allowed,
       which is what lets an anti-causal or selected-collider label act as
       the stratifier);
  (ii) treatment and outcome are d-separated by candidate + selected nodes
       in the causal cut: the graph with the treatment's edges into the
       outcome's causal pathway (the outcome and its ancestors) skipped,
       for trails and for the ancestry that opens a collider alike.

Under (i)+(ii) the observed conditional law P(outcome | treatment, candidate)
identifies the interventional one, which is what makes a stratified
conditional-independence test complete for stratified invariance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .errors import FieldTable, GraphError, UnknownNode, json_input

OBSERVED = "observed"
LATENT = "latent"
SELECTED = "selected"
_MARKS = (OBSERVED, LATENT, SELECTED)


@dataclass(frozen=True, eq=False)
class CausalDag:
    """Marked DAG; the mark, parent, child and trail-step maps (`_sides`)
    are built once at construction and shared by every query on the graph."""

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
            self, "_sides", {n: _sides(parents[n], children[n]) for n in marks}
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
        return _closure(self._parents, self._parents[name])

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


def _closure(step: Mapping, start: Iterable[str]) -> frozenset[str]:
    """The start nodes and every node reached from one of them through
    ``step`` (a parent map gives ancestors, a child map descendants)."""
    out: set[str] = set()
    frontier = list(start)
    while frontier:
        v = frontier.pop()
        if v not in out:
            out.add(v)
            frontier.extend(step[v])
    return frozenset(out)


def _sides(parents, children) -> tuple:
    """A node's next trail states (neighbour, whether the step goes into it)
    in sorted order: to every neighbour, to the children, to the parents."""
    every = tuple((n, n in children) for n in sorted(parents | children))
    return every, tuple(s for s in every if s[1]), tuple(s for s in every if not s[1])


def dag(nodes: Mapping[str, str] | Iterable, edges: Iterable[tuple[str, str]]) -> CausalDag:
    """Convenience constructor; nodes may be a name->mark mapping or names."""
    if isinstance(nodes, Mapping):
        node_tuple = tuple(nodes.items())
    else:
        node_tuple = tuple(
            n if isinstance(n, tuple) else (n, OBSERVED) for n in nodes
        )
    return CausalDag(node_tuple, tuple(tuple(e) for e in edges))


# --- d-separation: one trail rule, read by reachability and the path walk ---

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


def _trail(g: CausalDag, cond: frozenset[str], cut: frozenset = frozenset()):
    """The open steps of a trail given cond, with the edges in cut skipped.

    A state (v, into) is a trail standing at v that arrived along an edge
    into v (True) or out of it (False; None at the source). ``steps(state)``
    gives the states it may move to, in sorted-adjacency order: a collider
    (into v, then on to a parent of v) passes iff v is in cond or an ancestor
    of a cond node, any other node iff it is outside cond. Cut edges are not
    walked and do not count as ancestry.
    """
    parents, sides = dict(g._parents), dict(g._sides)
    for v in {v for edge in cut for v in edge}:  # the cut's maps differ only here
        parents[v] = parents[v] - {p for p, c in cut if c == v}
        sides[v] = _sides(parents[v], g._children[v] - {c for p, c in cut if p == v})
    opens = _closure(parents, cond)

    def steps(state):
        v, into = state
        every, down, up = sides[v]
        if into is None:
            return every
        if v in cond:  # blocks a chain or fork; opens a collider to the parents
            return up if into else ()
        return every if not into or v in opens else down

    return steps


def _connected(steps, a: str, b: str) -> bool:
    """Does an open trail join a and b? A search over the trail states."""
    stack, seen = [(a, None)], set()
    while stack:
        for state in steps(stack.pop()):
            if state[0] == b:
                return True
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


def _open_walk(steps, a: str, b: str):
    """Open simple paths a..b: the depth-first walk over the open steps that
    never steps back onto its own path."""
    path, on_path = [a], {a}
    pending = [iter(steps((a, None)))]
    while pending:
        state = next(pending[-1], None)
        if state is None:
            pending.pop()
            on_path.discard(path.pop())
        elif state[0] == b:
            yield (*path, b)
        elif state[0] not in on_path:
            path.append(state[0])
            on_path.add(state[0])
            pending.append(iter(steps(state)))


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
    return _paths(_trail(g, _conditioning(g, a, b, given)), a, b)


def _paths(steps, a: str, b: str) -> list[tuple[str, ...]]:
    """The open paths, walked only when reachability says there is one."""
    return list(_open_walk(steps, a, b)) if _connected(steps, a, b) else []


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
    return _closure({**g._children, outcome: ()}, g.children(treatment)) - {outcome}


def _causal_cut(g: CausalDag, treatment: str, outcome: str) -> frozenset:
    """The treatment's edges into the outcome or its ancestors, once the
    treatment and outcome are checked to be two nodes of g."""
    if treatment == outcome:
        raise GraphError(f"treatment and outcome are the same node {treatment!r}")
    children = g.children(treatment)
    pathway = g.ancestors(outcome) | {outcome}
    return frozenset((treatment, c) for c in children if c in pathway)


def is_adjustment_set(
    g: CausalDag, treatment: str, outcome: str, candidate: Iterable[str]
) -> AdjustmentReport:
    """Certify a candidate stratification set; see the module docstring.

    The report is explicit either way: a rejection names the offending
    candidate node or every open non-causal path (selection nodes included
    in the conditioning), an acceptance says what was checked.
    """
    cand = frozenset(candidate)
    cut = _causal_cut(g, treatment, outcome)
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

    opened = _paths(_trail(g, cand | g.selected_nodes(), cut), treatment, outcome)
    names = tuple(format_path(g, p) for p in opened)
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
    check with the causal cut's edges skipped.
    """
    cut = _causal_cut(g, treatment, outcome)
    if max_size < 0:
        raise ValueError(f"max_size must be at least 0, got {max_size}")
    forbidden = _forbidden_for(g, treatment, outcome)
    selected = g.selected_nodes()
    pool = sorted(g.observed_nodes() - {treatment, outcome})
    valid: list[frozenset[str]] = []
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(pool, size):
            cand = frozenset(combo)
            if any(prev < cand for prev in valid):
                continue
            if not cand & forbidden and not _connected(
                _trail(g, cand | selected, cut), treatment, outcome
            ):
                valid.append(cand)
    return sorted(valid, key=lambda c: (len(c), sorted(c)))


# --- json io -----------------------------------------------------------------


_GRAPH_FIELDS = FieldTable("graph key", {"nodes": "list", "edges": "list"},
                           required=("nodes", "edges"))
_NODE_FIELDS = FieldTable("graph node key", {"name": "string", "mark": "string"},
                          required=("name",))


def load_dag(source) -> CausalDag:
    """Load a graph from a JSON file path or parsed dict: ``nodes`` is a list
    of ``{"name": str, "mark": str}`` objects (the mark defaults to observed),
    ``edges`` a list of ``[parent, child]`` name pairs."""
    if isinstance(source, (str, Path)):
        with json_input(source) as doc:
            return load_dag(doc)
    _GRAPH_FIELDS.check(source)
    nodes = tuple(
        (n["name"], n.get("mark", OBSERVED)) for n in map(_NODE_FIELDS.check, source["nodes"])
    )
    for e in source["edges"]:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)):
            raise ValueError(f"graph edge must be an array of two node names, got {e!r}")
    return CausalDag(nodes, tuple(tuple(e) for e in source["edges"]))
