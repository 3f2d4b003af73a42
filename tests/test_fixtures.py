"""The fixture families build the same models, byte for byte, on every change."""

import hashlib
import json
from pathlib import Path

from stratinv.causal_graph import load_dag
from stratinv.fixtures import (
    _anticausal_graph,
    adjustment_fixture_cases,
    chain_fixture,
    fixture_suite,
    random_fixture_scm,
    sampled_fixture_suite,
)
from stratinv.scm import dump_scm

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FIXTURE_DIGEST = "a52b423b7b740e686b9382194fb20b262d24b3ed9d2510fbf406e11d4b22219e"


def test_fixture_models_keep_their_bytes():
    models = [
        *(f.scm for f in fixture_suite(24)),
        *(f.scm for f in sampled_fixture_suite()),
        *(case.scm for case in adjustment_fixture_cases()),
        *(chain_fixture(level) for level in range(4)),
        *(random_fixture_scm(seed) for seed in range(200)),
    ]
    h = hashlib.sha256()
    for model in models:
        h.update(json.dumps(dump_scm(model), sort_keys=True).encode("utf-8"))
    assert h.hexdigest() == FIXTURE_DIGEST


def test_the_anticausal_fixture_graph_is_the_shipped_config():
    """Criterion 4 reads the config file; the adjustment cases build the same
    graph in code, node and edge order included."""
    shipped = load_dag(CONFIGS / "graph_anticausal.json")
    built = _anticausal_graph()
    assert built.nodes == shipped.nodes
    assert built.edges == shipped.edges
