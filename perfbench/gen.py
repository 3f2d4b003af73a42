"""Seeded input generators, one per workload.

Each generator takes the workload seed and an output directory, writes the
files the program will read, and returns a small dict describing the inputs
(paths, sizes and the measured property that made the workload worth having).
The same seed always gives byte-identical files.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DEMO_SCM = ROOT / "configs" / "demo_scm.json"
DEMO_TASK = ROOT / "configs" / "demo_task.json"
REFERENCE_GRAPHS = {
    "anticausal": ROOT / "configs" / "graph_anticausal.json",
    "confounded": ROOT / "configs" / "graph_confounded.json",
    "selection": ROOT / "configs" / "graph_selection.json",
}


def _simulate(seed: int, n: int, out: Path) -> Path:
    """Demo records through the public ``simulate`` subcommand."""
    from stratinv.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "simulate", "--scm", str(DEMO_SCM), "--n", str(n),
            "--seed", str(seed), "--out-dir", str(out),
        ])
    if code != 0:
        raise RuntimeError(f"simulate exited {code}")
    return out / "records.jsonl"


def demo_records(seed: int, out: Path, n: int) -> dict:
    """Low-diversity demo notes: eight distinct texts, so requests repeat."""
    path = _simulate(seed, n, out / "sim")
    return {"records": str(path), "task": str(DEMO_TASK), "n": n}


def unique_tail_records(seed: int, out: Path, n: int) -> dict:
    """Demo notes with a per-record free-text tail, so requests rarely repeat.

    The mock carries the tail through every rewrite unchanged, so labels and
    metrics are those of the plain demo notes.
    """
    sim = _simulate(seed, n, out / "sim")
    path = out / "records_tail.jsonl"
    with open(sim, encoding="utf-8") as src, open(path, "w", encoding="utf-8") as dst:
        for i, line in enumerate(src):
            doc = json.loads(line)
            doc["x"] = f"{doc['x']} id{seed % 1000:03d}{i:06d}"
            dst.write(json.dumps(doc, sort_keys=True) + "\n")
    return {"records": str(path), "task": str(DEMO_TASK), "n": n}


def prediction_log(
    seed: int,
    out: Path,
    n: int,
    n_strata: int = 200,
    n_contexts: int = 3,
    n_labels: int = 3,
    planted_share: float = 0.1,
) -> dict:
    """A prediction log with skewed stratum sizes and a planted context effect.

    Stratum k (by rank) gets a share of records proportional to 1/sqrt(k).
    Every (stratum, context) cell is populated. In a seeded minority of strata
    the prediction copies the context with probability 1/2; elsewhere it is
    independent of the context.
    """
    rng = np.random.default_rng([seed, 31])
    out.mkdir(parents=True, exist_ok=True)
    weights = 1.0 / np.sqrt(np.arange(1, n_strata + 1))
    sizes = np.floor(n * weights / weights.sum()).astype(int)
    sizes[: n - sizes.sum()] += 1
    if sizes.min() < 2 * n_contexts:
        raise ValueError("too few records for every (stratum, context) cell")
    planted = set(rng.choice(n_strata, size=max(1, int(planted_share * n_strata)),
                             replace=False).tolist())
    path = out / "predictions.jsonl"
    idx = 0
    with open(path, "w", encoding="utf-8") as fh:
        for k, size in enumerate(sizes):
            z = rng.integers(n_contexts, size=size)
            z[:n_contexts] = np.arange(n_contexts)
            y = rng.integers(n_labels, size=size)
            y_hat = np.where(rng.random(size) < 0.8, y, rng.integers(n_labels, size=size))
            if k in planted:
                copy = rng.random(size) < 0.5
                y_hat = np.where(copy, z % n_labels, y_hat)
            for zi, yi, hi in zip(z.tolist(), y.tolist(), y_hat.tolist()):
                doc = {
                    "record_id": f"p{idx:07d}", "x": f"item {idx}",
                    "s": f"s{k:03d}", "z": f"z{zi}", "y": f"y{yi}", "y_hat": f"y{hi}",
                }
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
                idx += 1
    return {
        "records": str(path), "n": n, "strata": n_strata,
        "stratum_size_min": int(sizes.min()), "stratum_size_max": int(sizes.max()),
        "planted_strata": len(planted),
    }


def _random_dag(rng: np.random.Generator, n_nodes: int, edge_p: float) -> dict:
    """A random DAG in JSON form: ``edge_p`` of the forward pairs, chosen at random.

    Two root-level nodes with at least two children become latent
    confounders; half the graphs mark one sink with two or more parents as a
    selection node.
    """
    names = [f"V{i:02d}" for i in range(n_nodes)]
    forward = [(names[i], names[j]) for j in range(n_nodes) for i in range(j)]
    picked = rng.choice(len(forward), size=round(edge_p * len(forward)), replace=False)
    edges = [forward[k] for k in sorted(picked)]
    children = {v: sum(1 for a, _ in edges if a == v) for v in names}
    parents = {v: sum(1 for _, b in edges if b == v) for v in names}
    marks = {v: "observed" for v in names}
    confounders = [v for v in names if parents[v] == 0 and children[v] >= 2]
    for v in confounders[:2]:
        marks[v] = "latent"
    sinks = [v for v in names if children[v] == 0 and parents[v] >= 2]
    if sinks and rng.random() < 0.5:
        marks[sinks[int(rng.integers(len(sinks)))]] = "selected"
    return {
        "nodes": [{"name": v, "mark": marks[v]} for v in names],
        "edges": [list(e) for e in edges],
    }


def _count_paths(doc: dict, a: str, b: str, cap: int) -> int:
    """Simple a..b paths over the skeleton, counted up to ``cap``.

    The search also gives up, returning ``cap``, once it has extended
    ``20 * cap`` partial paths, so a pair whose search tree is mostly dead
    ends counts as too large.
    """
    adjacency: dict[str, list[str]] = {d["name"]: [] for d in doc["nodes"]}
    for p, c in doc["edges"]:
        adjacency[p].append(c)
        adjacency[c].append(p)
    count = steps = 0
    stack = [(a, iter(adjacency[a]))]
    on_path = {a}
    while stack and count < cap:
        node, it = stack[-1]
        nxt = next(it, None)
        if nxt is None:
            stack.pop()
            on_path.discard(node)
        elif nxt == b:
            count += 1
        elif nxt not in on_path:
            steps += 1
            if steps > 20 * cap:
                return cap
            on_path.add(nxt)
            stack.append((nxt, iter(adjacency[nxt])))
    return count


def _without_causal_edges(doc: dict, t: str, o: str) -> dict:
    """The graph an adjustment check searches: the treatment's edges into the
    outcome or the outcome's ancestors removed."""
    pathway, frontier = {o}, [o]
    while frontier:
        v = frontier.pop()
        for p, c in doc["edges"]:
            if c == v and p not in pathway:
                pathway.add(p)
                frontier.append(p)
    edges = [e for e in doc["edges"] if not (e[0] == t and e[1] in pathway)]
    return {"nodes": doc["nodes"], "edges": edges}


def dag_family(
    seed: int,
    out: Path,
    n_graphs: int,
    queries_per_graph: int,
    n_nodes: int = 14,
    edge_p: float = 0.26,
    paths: tuple[int, int] = (150, 200),
    minimal_max_size: int = 1,
    minimal_every: int = 1,
) -> dict:
    """Random marked DAGs, each with candidate checks and one minimal search.

    Every query names an observed treatment and outcome joined by between
    ``paths[0]`` and ``paths[1]`` simple paths in the skeleton of the graph
    the check searches (the treatment's causal edges removed), and a
    candidate set of up to two other observed nodes. The last query of every
    ``minimal_every``-th graph also asks for the inclusion-minimal valid sets
    up to ``minimal_max_size``. Bounding the path count keeps the work per
    query within a narrow band, so totals do not hinge on one unlucky graph.
    """
    from stratinv import causal_graph as cg

    rng = np.random.default_rng([seed, 47])
    gdir = out / "graphs"
    gdir.mkdir(parents=True, exist_ok=True)
    queries = []
    skeleton_paths = 0
    g = 0
    while g < n_graphs:
        doc = _random_dag(rng, n_nodes, edge_p)
        observed = [d["name"] for d in doc["nodes"] if d["mark"] == "observed"]
        pairs = []
        for _ in range(8 * queries_per_graph):
            t, o = rng.choice(len(observed), size=2, replace=False)
            cut = _without_causal_edges(doc, observed[t], observed[o])
            n_paths = _count_paths(cut, observed[t], observed[o], paths[1] + 1)
            if paths[0] <= n_paths <= paths[1]:
                pairs.append((int(t), int(o), n_paths))
                if len(pairs) == queries_per_graph:
                    break
        if len(pairs) < queries_per_graph:
            continue
        minimal = g % minimal_every == 0
        if minimal:
            # The minimal search goes to a pair the empty set does not adjust, so
            # it checks every single-node candidate instead of stopping at {}.
            dag = cg.load_dag(doc)
            confounded = [p for p in pairs
                          if not cg.is_adjustment_set(dag, observed[p[0]], observed[p[1]], ()).valid]
            if not confounded:
                continue
            pairs.remove(confounded[0])
            pairs.append(confounded[0])
        path = gdir / f"g{g:03d}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        for q, (t, o, n_paths) in enumerate(pairs):
            pool = [v for i, v in enumerate(observed) if i not in (t, o)]
            size = int(rng.integers(0, 3))
            cand = sorted(rng.choice(pool, size=size, replace=False).tolist())
            query = {
                "graph": str(path), "treatment": observed[t], "outcome": observed[o],
                "candidate": cand,
            }
            if minimal and q == queries_per_graph - 1:
                query["minimal_max_size"] = minimal_max_size
            queries.append(query)
            skeleton_paths += n_paths
        g += 1
    return {"queries": queries, "graphs": n_graphs, "skeleton_paths": skeleton_paths}


def fixture_models(seed: int, out: Path, factors: tuple[int, ...]) -> dict:
    """Randomized three-context fixture models of growing size.

    ``factors`` lists the exogenous factor counts; a model with k binary
    factors has 3 * 2**k worlds.
    """
    from stratinv.fixtures import random_fixture_scm
    from stratinv.scm import dump_scm

    mdir = out / "models"
    mdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, k in enumerate(factors):
        scm = random_fixture_scm([seed, 59, i], n_contexts=3, n_factors=k)
        path = mdir / f"m{i:02d}_k{k}.json"
        path.write_text(json.dumps(dump_scm(scm), sort_keys=True) + "\n", encoding="utf-8")
        paths.append(str(path))
    return {"models": paths, "worlds": [3 * 2 ** k for k in factors]}
