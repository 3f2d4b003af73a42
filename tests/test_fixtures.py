"""The fixture families build the same models, byte for byte, on every change."""

import hashlib
import json

from stratinv.fixtures import (
    adjustment_fixture_cases,
    chain_fixture,
    fixture_suite,
    random_fixture_scm,
    sampled_fixture_suite,
)
from stratinv.scm import dump_scm

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
