"""d-separation and adjustment checks against independent oracles."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from stratinv.causal_graph import (
    LATENT,
    OBSERVED,
    SELECTED,
    AdjustmentReport,
    CausalDag,
    _conditioning,
    _connected,
    _trail,
    dag,
    is_adjustment_set,
    load_dag,
    minimal_adjustment_sets,
    open_paths,
)
from stratinv.errors import GraphError, UnknownNode

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def reference_graph(name):
    """One of the shipped ``configs/graph_*.json`` graphs."""
    return load_dag(CONFIGS / f"graph_{name}.json")


def d_separated(g, a, b, given=()):
    """The reachability verdict behind every adjustment check: no active
    trail joins a and b given ``given`` plus the selection nodes."""
    return not _connected(_trail(g, _conditioning(g, a, b, given)), a, b)


# --- independent Bayes-ball d-separation oracle -----------------------------

def bayes_ball_connected(nodes, edges, x, y, given):
    """Ball-passing reachability; blocked everywhere iff d-separated."""
    given = set(given)
    parents = {n: set() for n in nodes}
    children = {n: set() for n in nodes}
    for a, b in edges:
        parents[b].add(a)
        children[a].add(b)
    # seed: ball leaves x upward to parents and downward to children
    frontier = [(p, "up") for p in parents[x]] + [(c, "down") for c in children[x]]
    seen = set()
    while frontier:
        v, direction = frontier.pop()
        if (v, direction) in seen:
            continue
        seen.add((v, direction))
        if v == y:
            return True
        if direction == "up":
            # arrived from a child; passes through unless conditioned
            if v not in given:
                frontier += [(p, "up") for p in parents[v]]
                frontier += [(c, "down") for c in children[v]]
        else:
            # arrived from a parent; collider bounce when conditioned
            if v in given:
                frontier += [(p, "up") for p in parents[v]]
            else:
                frontier += [(c, "down") for c in children[v]]
    return False


def oracle_backdoor(nodes, edges, marks, treatment, outcome, candidate):
    """Classical criterion: no treatment descendants, back-door paths blocked."""
    desc = set()
    frontier = [b for a, b in edges if a == treatment]
    while frontier:
        v = frontier.pop()
        if v not in desc:
            desc.add(v)
            frontier += [b for a, b in edges if a == v]
    if set(candidate) & desc:
        return False
    if any(marks[c] == LATENT for c in candidate):
        return False
    trimmed = [(a, b) for a, b in edges if a != treatment]
    return not bayes_ball_connected(nodes, trimmed, treatment, outcome, candidate)


# --- the path enumerator, kept as the oracle for the pruned walk ------------


def _simple_paths(g, a, b):
    """All simple paths a..b over the skeleton, as node sequences."""
    adjacency = {n: set() for n in g.names()}
    for p, c in g.edges:
        adjacency[p].add(c)
        adjacency[c].add(p)

    def walk(path):
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


def _descendants(g, name):
    out = set()
    frontier = [c for p, c in g.edges if p == name]
    while frontier:
        v = frontier.pop()
        if v not in out:
            out.add(v)
            frontier += [c for p, c in g.edges if p == v]
    return out


def _path_blocked(g, path, cond):
    edge_set = set(g.edges)
    for i in range(1, len(path) - 1):
        prev, v, nxt = path[i - 1], path[i], path[i + 1]
        if (prev, v) in edge_set and (nxt, v) in edge_set:  # collider
            if not (v in cond or _descendants(g, v) & cond):
                return True
        elif v in cond:  # chain or fork
            return True
    return False


def oracle_open_paths(g, a, b, given=()):
    cond = frozenset(given) | g.selected_nodes()
    return [p for p in _simple_paths(g, a, b) if not _path_blocked(g, p, cond)]


def _format(g, path):
    bits = [path[0]]
    for a, b in zip(path, path[1:]):
        bits += ["->" if (a, b) in g.edges else "<-", b]
    return " ".join(bits)


def oracle_is_adjustment_set(g, treatment, outcome, candidate):
    """The adjustment check over enumerated paths (forbidden nodes, causal cut)."""
    cand = frozenset(candidate)
    marks = dict(g.nodes)
    if treatment in cand or outcome in cand:
        reasons = ("candidate set may not contain the treatment or outcome",)
        return AdjustmentReport(treatment, outcome, cand, False, reasons, ())
    latent = sorted(v for v in cand if marks[v] == LATENT)
    if latent:
        reasons = (f"latent node(s) {latent} cannot be conditioned on",)
        return AdjustmentReport(treatment, outcome, cand, False, reasons, ())
    reasons = []
    forbidden = set()
    frontier = [c for p, c in g.edges if p == treatment and c != outcome]
    while frontier:
        v = frontier.pop()
        if v not in forbidden:
            forbidden.add(v)
            frontier += [c for p, c in g.edges if p == v and c != outcome]
    forbidden &= cand
    for v in sorted(forbidden):
        reasons.append(
            f"{v} is a descendant of {treatment} off the causal pathway to "
            f"{outcome}, so conditioning on it distorts the treatment's effect"
        )
    pathway = {outcome}
    frontier = [outcome]
    while frontier:
        v = frontier.pop()
        for p, c in g.edges:
            if c == v and p not in pathway:
                pathway.add(p)
                frontier.append(p)
    cut = CausalDag(
        g.nodes, tuple(e for e in g.edges if not (e[0] == treatment and e[1] in pathway))
    )
    opened = oracle_open_paths(cut, treatment, outcome, cand)
    names = tuple(_format(cut, p) for p in opened)
    reasons += [f"open non-causal path: {text}" for text in names]
    valid = not forbidden and not opened
    if valid:
        sel = sorted(g.selected_nodes())
        detail = f" (selection nodes {sel} held conditioned)" if sel else ""
        reasons.append(
            f"every non-causal path between {treatment} and {outcome} is "
            f"blocked by {sorted(cand) or '{}'}{detail}"
        )
    return AdjustmentReport(treatment, outcome, cand, valid, tuple(reasons), names)


def oracle_minimal_adjustment_sets(g, treatment, outcome, max_size):
    pool = sorted(g.observed_nodes() - {treatment, outcome})
    valid = []
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(pool, size):
            cand = frozenset(combo)
            if any(prev < cand for prev in valid):
                continue
            if oracle_is_adjustment_set(g, treatment, outcome, cand).valid:
                valid.append(cand)
    return sorted(valid, key=lambda c: (len(c), sorted(c)))


def random_marked_dag(rng, max_nodes=9):
    """A random DAG over 2..max_nodes nodes in shuffled topological order,
    with observed, latent and selected marks."""
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"N{i}" for i in rng.permutation(n)]
    density = rng.uniform(0.15, 0.6)
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    marks = rng.choice([OBSERVED, LATENT, SELECTED], size=n, p=[0.6, 0.2, 0.2])
    nodes = sorted(zip(names, (str(m) for m in marks)))
    order = rng.permutation(len(edges))
    return CausalDag(tuple(nodes), tuple(edges[i] for i in order))


def test_pruned_walk_and_reachability_match_the_path_enumerator():
    rng = np.random.default_rng(20_261_018)
    queries = selected_endpoints = separated = 0
    for _ in range(600):
        g = random_marked_dag(rng)
        names = sorted(g.names())
        marks = dict(g.nodes)
        for _ in range(3):
            a, b = (str(v) for v in rng.choice(names, size=2, replace=False))
            conditionable = [
                v for v in names if v not in (a, b) and marks[v] != LATENT
            ]
            given = [v for v in conditionable if rng.random() < 0.3]
            want = oracle_open_paths(g, a, b, given)
            assert open_paths(g, a, b, given) == want, (g, a, b, given)
            sep = d_separated(g, a, b, given)
            assert sep == (not want), (g, a, b, given)
            ball = bayes_ball_connected(
                names, g.edges, a, b, set(given) | g.selected_nodes()
            )
            assert sep == (not ball), (g, a, b, given)
            queries += 1
            selected_endpoints += SELECTED in (marks[a], marks[b])
            separated += sep
    assert queries == 1800
    assert selected_endpoints > 100 and 100 < separated < queries - 100


def test_adjustment_verdicts_and_minimal_sets_match_the_path_enumerator():
    rng = np.random.default_rng(20_261_019)
    valid = 0
    for _ in range(500):
        g = random_marked_dag(rng)
        names = sorted(g.names())
        t, o = (str(v) for v in rng.choice(names, size=2, replace=False))
        candidates = [()] + [
            tuple(v for v in names if rng.random() < 0.3) for _ in range(3)
        ]
        for cand in candidates:
            got = is_adjustment_set(g, t, o, cand)
            assert got == oracle_is_adjustment_set(g, t, o, cand), (g, t, o, cand)
            valid += got.valid
        size = int(rng.integers(0, 4))
        assert minimal_adjustment_sets(g, t, o, size) == oracle_minimal_adjustment_sets(
            g, t, o, size
        ), (g, t, o, size)
    assert 200 < valid < 1800


def certify_scale_dag(rng):
    """A 12-14-node DAG shaped like the certify benchmark's graphs: a share
    of the forward pairs as edges, up to two parentless nodes with two or more
    children as latent roots, and in half the graphs one sink with two or more
    parents as a selection node."""
    n = int(rng.integers(12, 15))
    names = [f"V{i:02d}" for i in range(n)]
    forward = [(names[i], names[j]) for j in range(n) for i in range(j)]
    picked = rng.choice(len(forward), size=round(0.26 * len(forward)), replace=False)
    edges = [forward[k] for k in sorted(picked)]
    n_children = {v: sum(a == v for a, _ in edges) for v in names}
    n_parents = {v: sum(b == v for _, b in edges) for v in names}
    marks = dict.fromkeys(names, OBSERVED)
    for v in [v for v in names if n_parents[v] == 0 and n_children[v] >= 2][:2]:
        marks[v] = LATENT
    sinks = [v for v in names if n_children[v] == 0 and n_parents[v] >= 2]
    if sinks and rng.random() < 0.5:
        marks[sinks[int(rng.integers(len(sinks)))]] = SELECTED
    return CausalDag(tuple(marks.items()), tuple(edges))


def test_certify_scale_verdicts_paths_and_minimal_sets_match_the_path_enumerator():
    # The causal cut only matters when the treatment is an ancestor of the
    # outcome, and it changes which colliders a conditioned node opens only
    # when that node lies below the outcome's pathway: so every pair is such
    # an ancestor pair, and half the candidates hold a descendant of the
    # outcome (the anti-causal stratifier the check exists for).
    rng = np.random.default_rng(20_261_020)
    queries = valid = selected_graphs = below_outcome = 0
    for _ in range(150):
        g = certify_scale_dag(rng)
        observed = sorted(g.observed_nodes())
        pairs = [(t, o) for o in observed for t in sorted(g.ancestors(o)) if t in observed]
        if not pairs:
            continue
        selected_graphs += bool(g.selected_nodes())
        for _ in range(6):
            t, o = pairs[int(rng.integers(len(pairs)))]
            pool = [v for v in observed if v not in (t, o)]
            cand = {str(v) for v in rng.choice(pool, size=int(rng.integers(0, 2)), replace=False)}
            below = [v for v in pool if o in g.ancestors(v)]
            if below and rng.random() < 0.5:
                cand.add(below[int(rng.integers(len(below)))])
                below_outcome += 1
            got = is_adjustment_set(g, t, o, cand)
            assert got == oracle_is_adjustment_set(g, t, o, cand), (g, t, o, cand)
            assert open_paths(g, t, o, cand) == oracle_open_paths(g, t, o, cand)
            queries += 1
            valid += got.valid
        assert minimal_adjustment_sets(g, t, o, 2) == oracle_minimal_adjustment_sets(
            g, t, o, 2
        ), (g, t, o)
    assert queries > 800 and 150 < valid < queries - 150
    assert selected_graphs > 40 and below_outcome > 150


def test_collider_ancestry_is_taken_in_the_causal_cut():
    # W reaches the selection node S only through T -> O, the edge the cut
    # skips, so the collider W on T <- A -> W <- B -> O stays closed.
    g = dag(
        {"T": OBSERVED, "A": OBSERVED, "W": OBSERVED, "B": OBSERVED, "O": OBSERVED,
         "S": SELECTED},
        [("A", "T"), ("A", "W"), ("W", "T"), ("B", "W"), ("B", "O"), ("T", "O"),
         ("O", "S")],
    )
    report = is_adjustment_set(g, "T", "O", ())
    assert not report.valid
    assert report.open_path_names == ("T <- W <- B -> O",)


def test_a_treatment_that_is_its_outcome_is_refused_first():
    g = reference_graph("anticausal")
    for query in (
        lambda: is_adjustment_set(g, "Z", "Z", ()),
        lambda: is_adjustment_set(g, "Z", "Z", ("Z",)),
        lambda: minimal_adjustment_sets(g, "Z", "Z"),
    ):
        with pytest.raises(GraphError, match="treatment and outcome are the same node 'Z'"):
            query()


def layered_paths(source, sink, width=4, depth=10):
    """Edges source -> ten complete layers of four nodes -> sink, and the
    number of directed source..sink paths among them."""
    layers = [[f"L{i}_{j}" for j in range(width)] for i in range(depth)]
    edges = [(source, v) for v in layers[0]]
    for upper, lower in zip(layers, layers[1:]):
        edges += [(u, v) for u in upper for v in lower]
    edges += [(v, sink) for v in layers[-1]]
    count = {source: 1}
    for node in [v for layer in layers for v in layer] + [sink]:
        count[node] = sum(count.get(p, 0) for p, c in edges if c == node)
    return list(itertools.chain(*layers)), edges, count[sink]


def test_a_blocked_collider_cuts_off_a_million_paths():
    # T's only neighbour is the unconditioned collider C of T -> C <- D
    layer_nodes, edges, count = layered_paths("D", "X")
    assert count >= 10**6
    g = dag(["T", "C", "D", "X", *layer_nodes], [("T", "C"), ("D", "C"), *edges])
    assert open_paths(g, "T", "X") == []
    report = is_adjustment_set(g, "T", "X", ())
    assert report.valid and report.open_path_names == ()
    assert minimal_adjustment_sets(g, "T", "X") == [frozenset()]


def test_paths_blocked_only_at_their_last_collider_are_never_walked():
    # T <- D opens a million prefixes, each closed at the collider D..C <- X
    layer_nodes, edges, count = layered_paths("D", "C")
    assert count >= 10**6
    g = dag(["T", "C", "D", "X", *layer_nodes], [("D", "T"), ("X", "C"), *edges])
    assert open_paths(g, "T", "X") == []
    assert d_separated(g, "T", "X")
    assert is_adjustment_set(g, "T", "X", ()).valid
    assert minimal_adjustment_sets(g, "T", "X") == [frozenset()]


def test_minimal_sets_reject_a_negative_size():
    with pytest.raises(ValueError, match="max_size"):
        minimal_adjustment_sets(reference_graph("anticausal"), "Z", "X", max_size=-1)


def test_d_separated_hand_cases():
    g = dag(["A", "B", "C"], [("A", "B"), ("B", "C")])  # chain
    assert not d_separated(g, "A", "C")
    assert d_separated(g, "A", "C", ["B"])

    g = dag(["A", "B", "C"], [("B", "A"), ("B", "C")])  # fork
    assert not d_separated(g, "A", "C")
    assert d_separated(g, "A", "C", ["B"])

    g = dag(["A", "B", "C"], [("A", "B"), ("C", "B")])  # collider
    assert d_separated(g, "A", "C")
    assert not d_separated(g, "A", "C", ["B"])

    # conditioning on a collider's descendant also opens it
    g = dag(["A", "B", "C", "D"], [("A", "B"), ("C", "B"), ("B", "D")])
    assert not d_separated(g, "A", "C", ["D"])


def test_d_separation_matches_bayes_ball_on_random_dags():
    rng = np.random.default_rng(42)
    names = ["N0", "N1", "N2", "N3", "N4"]
    for _ in range(60):
        edges = [
            (names[i], names[j])
            for i in range(5)
            for j in range(i + 1, 5)
            if rng.random() < 0.4
        ]
        g = dag(names, edges)
        for a, b in [("N0", "N4"), ("N1", "N3")]:
            for r in range(3):
                given = [n for n in names if n not in (a, b) and rng.random() < 0.4]
                expected = not bayes_ball_connected(names, edges, a, b, given)
                assert d_separated(g, a, b, given) == expected, (edges, a, b, given)


def test_adjustment_matches_backdoor_oracle_on_childless_outcomes():
    # Restricted regime (no selection nodes, outcome has no children) where
    # the implemented rule and the classical criterion provably coincide.
    rng = np.random.default_rng(7)
    names = ["L", "A", "Z", "B", "X"]
    marks = {"L": LATENT, "A": OBSERVED, "Z": OBSERVED, "B": OBSERVED, "X": OBSERVED}
    observables = ["A", "B"]
    checked = 0
    for _ in range(40):
        order = ["L", "A", "Z", "B", "X"]  # X last, hence childless
        edges = [
            (order[i], order[j])
            for i in range(4)
            for j in range(i + 1, 5)
            if rng.random() < 0.45
        ]
        g = dag(marks, edges)
        candidates = [()] + [(c,) for c in observables] + [tuple(observables)]
        for cand in candidates:
            got = is_adjustment_set(g, "Z", "X", cand).valid
            want = oracle_backdoor(names, edges, marks, "Z", "X", cand)
            assert got == want, (edges, cand)
            checked += 1
    assert checked == 160


def test_reference_graph_verdicts():
    cases = [
        (reference_graph("anticausal"), ("Y",), True),
        (reference_graph("anticausal"), (), False),
        (reference_graph("confounded"), (), True),
        (reference_graph("selection"), ("Y",), True),
        (reference_graph("selection"), (), False),
    ]
    for g, cand, want in cases:
        assert is_adjustment_set(g, "Z", "X", cand).valid is want


def test_anticausal_rejection_names_the_confounding_path():
    report = is_adjustment_set(reference_graph("anticausal"), "Z", "X", ())
    assert not report.valid
    assert any("Z <- L -> Y -> X" in p for p in report.open_path_names)
    assert any("Z <- L -> Y -> X" in r for r in report.reasons)


def test_selection_rejection_mentions_selection_path():
    report = is_adjustment_set(reference_graph("selection"), "Z", "X", ())
    assert not report.valid
    # the opened path runs through the always-conditioned selection collider
    assert any("B" in p for p in report.open_path_names)


def test_minimal_sets_reference_graphs():
    assert minimal_adjustment_sets(reference_graph("anticausal"), "Z", "X") == [
        frozenset({"Y"})
    ]
    assert minimal_adjustment_sets(reference_graph("confounded"), "Z", "X") == [
        frozenset()
    ]
    assert minimal_adjustment_sets(reference_graph("selection"), "Z", "X") == [
        frozenset({"Y"})
    ]


def test_latent_candidate_rejected_with_reason():
    report = is_adjustment_set(reference_graph("anticausal"), "Z", "X", ("L",))
    assert not report.valid
    assert any("latent" in r.lower() for r in report.reasons)


def test_treatment_or_outcome_in_candidate_rejected():
    g = reference_graph("anticausal")
    assert not is_adjustment_set(g, "Z", "X", ("Z",)).valid
    assert not is_adjustment_set(g, "Z", "X", ("X",)).valid


def test_unknown_node_errors():
    g = reference_graph("anticausal")
    with pytest.raises(UnknownNode):
        is_adjustment_set(g, "Z", "Nope", ())
    with pytest.raises(UnknownNode):
        open_paths(g, "Z", "X", ["Nope"])


def test_cycle_rejected():
    with pytest.raises(GraphError):
        dag(["A", "B"], [("A", "B"), ("B", "A")])


def test_open_paths_lists_each_unblocked_route():
    g = dag(["Z", "U", "X"], [("U", "Z"), ("U", "X"), ("Z", "X")])
    paths = open_paths(g, "Z", "X", given=())
    assert ("Z", "X") in paths
    assert ("Z", "U", "X") in paths


def test_dag_json_round_trip(tmp_path):
    import json

    doc = json.loads((CONFIGS / "graph_selection.json").read_text(encoding="utf-8"))
    g = load_dag(doc)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    again = load_dag(path)
    assert again.nodes == g.nodes
    assert again.edges == g.edges
