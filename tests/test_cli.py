"""CLI behavior through main(): artifacts, exit codes, reproducible reruns."""

import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import re
import string
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratinv import causal_graph as cg
from stratinv import cli, ooc, reports
from stratinv import scm as scm_mod
from stratinv.chat import ChatTurnRequest
from stratinv.causal_graph import load_dag
from stratinv.cli import main
from stratinv.errors import DomainMismatch, GraphError, UnknownNode
from stratinv.fixtures import chain_fixture
from stratinv.metrics import (
    LabeledRecord,
    balanced_subsample,
    ci_permutation_test,
    dump_records,
    load_records,
    macro_f1,
    si_bias,
)
from stratinv.mock import MockStructuredLm
from stratinv.ooc import load_task
from stratinv.reports import ReportRow, load_rows, write_rows_csv, write_rows_json
from stratinv.scm import dump_scm, load_scm

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

def write_scm(path, scm):
    path.write_text(json.dumps(dump_scm(scm), indent=2, sort_keys=True))
    return path


def write_task(path, **overrides):
    doc = {
        "name": "toy",
        "sampled_contexts": ["male", "female"],
        "Z_description": "The channel marker token at the front of the note",
        "S_description": "A synthetic note",
        "labels": ["0", "1"],
        "standard_prompt": "Classify the topic bit of the note.",
        "transform_temperature": 0.0,
        "m": 1,
        "mock": {"label_rules": [{"read": "topic"}]},
        **overrides,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


def write_toy_records(path):
    records = []
    for z in ("male", "female"):
        for topic in ("0", "1"):
            for k in range(2):
                i = len(records)
                records.append(
                    LabeledRecord(
                        f"r{i}",
                        x=f"ctx={z} topic={topic} pad=0 routine note {i}",
                        s="all", z=z, y=topic,
                    )
                )
    dump_records(records, path)
    return path


# --- simulate ----------------------------------------------------------------


def test_simulate_empty_dataset_still_writes_artifacts(tmp_path):
    scm_path = write_scm(tmp_path / "scm.json", chain_fixture(0))
    out = tmp_path / "out"
    code = main(
        ["simulate", "--scm", str(scm_path), "--n", "0", "--out-dir", str(out)]
    )
    assert code == 0
    assert load_records(out / "records.jsonl") == []
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "simulate"
    assert doc["seed"] == 0
    assert str(scm_path) in doc["input_digests"]
    assert len(doc["digest"]) == 64


def test_simulate_frequencies_match_the_model(tmp_path):
    scm_path = write_scm(tmp_path / "scm.json", chain_fixture(0))
    out = tmp_path / "out"
    n = 10_000
    code = main(
        ["simulate", "--scm", str(scm_path), "--n", str(n), "--seed", "4",
         "--out-dir", str(out)]
    )
    assert code == 0
    records = load_records(out / "records.jsonl")
    assert len(records) == n
    sigma = (0.25 / n) ** 0.5
    za = sum(1 for r in records if r.z == "za") / n
    ones = sum(1 for r in records if r.y == 1) / n
    assert abs(za - 0.5) <= 3 * sigma
    assert abs(ones - 0.5) <= 3 * sigma
    assert all(r.x.startswith(f"ctx={r.z} ") for r in records)


def test_simulate_malformed_scm_names_the_table(tmp_path, capsys):
    doc = dump_scm(chain_fixture(0))
    key = next(iter(doc["y_table"]))
    del doc["y_table"][key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["simulate", "--scm", str(bad), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "y_table" in err and key in err


def test_simulate_rejects_a_negative_n(tmp_path, capsys):
    scm_path = write_scm(tmp_path / "scm.json", chain_fixture(0))
    out = tmp_path / "out"
    code = main(
        ["simulate", "--scm", str(scm_path), "--n", "-3", "--out-dir", str(out)]
    )
    assert code == 2
    assert "--n must be at least 0, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_requires_a_config(tmp_path, capsys):
    assert main(["simulate", "--out-dir", str(tmp_path)]) == 2
    assert "need --scm" in capsys.readouterr().err


# --- check-adjustment --------------------------------------------------------


def test_check_adjustment_valid_candidate(tmp_path, capsys):
    graph = CONFIGS / "graph_anticausal.json"
    out = tmp_path / "out"
    code = main(
        ["check-adjustment", "--graph", str(graph), "--treatment", "Z",
         "--outcome", "X", "--candidate", "Y", "--minimal",
         "--out-dir", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "candidate {Y} for treatment Z -> outcome X: VALID" in stdout
    assert "minimal valid sets: {Y}" in stdout
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["valid"] is True
    assert verdict["candidate"] == ["Y"]
    assert verdict["manifest"] == json.loads(
        (out / "manifest.json").read_text()
    )["digest"]


def test_check_adjustment_counts_a_repeated_candidate_once(tmp_path, capsys):
    graph = CONFIGS / "graph_anticausal.json"
    query = ["check-adjustment", "--graph", str(graph), "--treatment", "Z",
             "--outcome", "X"]
    seen = []
    for k, candidate in enumerate((["Y,Y"], ["Y", "--candidate", "Y"], ["Y"])):
        out = tmp_path / str(k)
        assert main(query + ["--candidate", *candidate, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        seen.append((capsys.readouterr().out, manifest["digest"]))
    assert seen[0][0].startswith("candidate {Y} for treatment Z")
    assert seen[0] == seen[1] == seen[2]


def test_check_adjustment_unknown_node(tmp_path, capsys):
    graph = CONFIGS / "graph_anticausal.json"
    code = main(
        ["check-adjustment", "--graph", str(graph), "--treatment", "Z",
         "--outcome", "X", "--candidate", "Bogus", "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    assert "Bogus" in capsys.readouterr().err


def test_check_adjustment_names_one_unknown_node_under_every_hash_seed(tmp_path):
    argv = ["check-adjustment", "--graph", str(CONFIGS / "graph_anticausal.json"),
            "--treatment", "Z", "--outcome", "X",
            "--candidate", "Bogus1,Bogus2,Bogus3", "--out-dir", str(tmp_path / "o")]
    code = "import sys; from stratinv.cli import main; sys.exit(main(sys.argv[1:]))"
    seen = set()
    for seed in range(1, 5):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        seen.add((done.returncode, done.stderr))
    assert seen == {(2, "error: node 'Bogus1' not in graph\n")}


def test_check_adjustment_rejects_a_negative_max_size(tmp_path, capsys):
    graph = CONFIGS / "graph_anticausal.json"
    out = tmp_path / "o"
    code = main(
        ["check-adjustment", "--graph", str(graph), "--treatment", "Z",
         "--outcome", "X", "--minimal", "--max-size", "-1", "--out-dir", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-size must be at least 0, got -1" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("candidate", [[], ["--candidate", "Z"]],
                         ids=["no-candidate", "candidate-is-the-node"])
def test_check_adjustment_refuses_a_treatment_that_is_its_outcome(
    tmp_path, capsys, candidate
):
    out = tmp_path / "o"
    code = main(
        ["check-adjustment", "--graph", str(CONFIGS / "graph_anticausal.json"),
         "--treatment", "Z", "--outcome", "Z", *candidate, "--out-dir", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: treatment and outcome are the same node 'Z'\n"
    assert not out.exists()


# --- audit -------------------------------------------------------------------


def biased_records(path):
    records = []

    def extend(s, z, y_hat, count):
        for _ in range(count):
            i = len(records)
            records.append(
                LabeledRecord(f"r{i}", x=f"x{i}", s=s, z=z, y="0", y_hat=y_hat)
            )

    # stratum s0: P(1|za)=3/4 vs P(1|zb)=1/2 -> bias 0.25
    extend("s0", "za", "1", 3)
    extend("s0", "za", "0", 1)
    extend("s0", "zb", "1", 2)
    extend("s0", "zb", "0", 2)
    dump_records(records, path)
    return path


def test_audit_writes_rows(tmp_path):
    records = biased_records(tmp_path / "records.jsonl")
    out = tmp_path / "out"
    code = main(
        ["audit", "--records", str(records), "--metrics", "si_bias",
         "--out-dir", str(out)]
    )
    assert code == 0
    rows = load_rows(out / "rows.json")
    assert len(rows) == 1
    row = rows[0]
    assert row.metric == "si_bias"
    assert row.value == pytest.approx(0.25)
    assert row.dataset == "records"
    assert row.z_pair == "za|zb"
    assert row.method == "standard"
    assert row.n == 8
    assert row.manifest == json.loads((out / "manifest.json").read_text())["digest"]
    assert (out / "rows.csv").read_text().splitlines()[0].startswith("dataset,")


def test_audit_empty_cell_fails_cleanly(tmp_path, capsys):
    records = [
        LabeledRecord("r0", x="", s="s0", z="za", y_hat="1"),
        LabeledRecord("r1", x="", s="s1", z="zb", y_hat="1"),
    ]
    path = tmp_path / "records.jsonl"
    dump_records(records, path)
    code = main(
        ["audit", "--records", str(path), "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    assert "no records with stratum=" in capsys.readouterr().err


@pytest.mark.parametrize("metrics", ["", ",", ",,"])
def test_audit_refuses_an_empty_metric_list(tmp_path, capsys, metrics):
    records = biased_records(tmp_path / "records.jsonl")
    out = tmp_path / "o"
    code = main(["audit", "--records", str(records), "--metrics", metrics,
                 "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "audit needs at least one metric" in err
    assert "'si_bias', 'macro_f1', 'permutation'" in err
    assert not out.exists()


def test_audit_infeasible_balance(tmp_path, capsys):
    records = biased_records(tmp_path / "records.jsonl")
    code = main(
        ["audit", "--records", str(records), "--balance", "100000",
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    assert "needs" in capsys.readouterr().err


def _balance_argv(command, tmp_path, records, balance):
    argv = [command, "--records", str(records), "--balance", balance,
            "--out-dir", str(tmp_path / "o")]
    if command == "ooc-run":
        argv += ["--task", str(write_task(tmp_path / "task.json"))]
    return argv


@pytest.mark.parametrize("command", ["audit", "ooc-run"])
def test_balance_on_an_empty_dataset_is_refused(tmp_path, capsys, command):
    empty = tmp_path / "records.jsonl"
    empty.write_text("")
    assert main(_balance_argv(command, tmp_path, empty, "10")) == 2
    assert "no records to draw a balanced subsample of 10" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["audit", "ooc-run"])
def test_balance_zero_is_refused(tmp_path, capsys, command):
    records = write_toy_records(tmp_path / "records.jsonl")
    assert main(_balance_argv(command, tmp_path, records, "0")) == 2
    assert "n=0 gives an empty per-cell quota" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["s", "z", "y", "y_hat"])
@pytest.mark.parametrize("value", [["a"], {"k": 1}])
def test_audit_names_a_record_with_a_list_or_object_field(
    tmp_path, capsys, field, value
):
    path = biased_records(tmp_path / "records.jsonl")
    lines = path.read_text().splitlines()
    doc = json.loads(lines[2])
    doc[field] = value
    lines[2] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    code = main(["audit", "--records", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"record 'r2': field {field!r} must be a scalar" in err


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "line 3: a record must be a JSON object, got [1, 2]"),
        ('"r2"', 'line 3: a record must be a JSON object, got "r2"'),
        ('{"x": "x2", "s": "s0", "z": "za"}', "line 3: missing field 'record_id'"),
        ('{"record_id": "r2", "s": "s0", "z": "za"}', "line 3: missing field 'x'"),
        ("{bad", "line 3: malformed JSON: Expecting property name enclosed in "
                 "double quotes at column 2"),
    ],
    ids=["list", "string", "no-record_id", "no-x", "malformed-json"],
)
def test_audit_names_a_line_that_is_not_a_record(tmp_path, capsys, line, message):
    path = biased_records(tmp_path / "records.jsonl")
    lines = path.read_text().splitlines()
    lines[2] = line
    path.write_text("\n".join(lines) + "\n")
    code = main(["audit", "--records", str(path), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert f"{path} {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["audit", "ooc-run"])
@pytest.mark.parametrize(
    "record_id", [5, [1], None, True], ids=["int", "list", "null", "bool"]
)
def test_a_record_id_that_is_not_a_string_is_refused(
    tmp_path, capsys, command, record_id
):
    """The refusal names the file and the line, and nothing is written."""
    path = write_toy_records(tmp_path / "records.jsonl")
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "record_id": record_id})
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = [command, "--records", str(path), "--out-dir", str(out)]
    if command == "ooc-run":
        argv += ["--task", str(write_task(tmp_path / "task.json"))]
    assert main(argv) == 2
    want = f"{path} line 2: record_id must be a string, got {record_id!r}"
    assert want in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["audit", "ooc-run"])
@pytest.mark.parametrize("permutations", ["0", "-1"])
def test_permutations_below_one_are_refused_before_any_work(
    tmp_path, capsys, monkeypatch, command, permutations
):
    calls = []
    complete = MockStructuredLm.complete
    monkeypatch.setattr(
        MockStructuredLm, "complete",
        lambda self, request: calls.append(request) or complete(self, request),
    )
    records = write_toy_records(tmp_path / "records.jsonl")
    out = tmp_path / "out"
    argv = [command, "--records", str(records), "--metrics", "permutation",
            "--permutations", permutations, "--out-dir", str(out)]
    if command == "ooc-run":
        argv += ["--task", str(write_task(tmp_path / "task.json"))]
    assert main(argv) == 2
    assert f"--permutations must be >= 1, got {permutations}" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


def skewed_records(path):
    """600 records over four strata, three contexts and three labels, with the
    prediction leaning slightly on the context in two strata."""
    rng = np.random.default_rng(11)
    records = []
    for i in range(600):
        s, z = f"s{i % 4}", ("za", "zb", "zc")[int(rng.integers(3))]
        lean = 0.06 if z == "za" and s in ("s0", "s1") else 0.0
        y_hat = str(int(rng.choice(3, p=[0.4 + lean, 0.4 - lean, 0.2])))
        records.append(LabeledRecord(f"r{i}", x=f"x{i}", s=s, z=z, y="0", y_hat=y_hat))
    dump_records(records, path)
    return path


def test_audit_rows_keep_their_bytes_with_one_count_table(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    skewed_records(tmp_path / "records.jsonl")
    code = main(["audit", "--records", "records.jsonl", "--seed", "5",
                 "--metrics", "si_bias,macro_f1,permutation",
                 "--permutations", "199", "--out-dir", "out"])
    assert code == 0
    got = {name: (tmp_path / "out" / name).read_bytes()
           for name in ("rows.json", "rows.csv")}
    # the same rows from one call per statistic, with the same stream
    records = load_records(tmp_path / "records.jsonl")
    bias = si_bias(records)
    test = ci_permutation_test(records, 199, np.random.default_rng(5))
    digest = json.loads((tmp_path / "out" / "manifest.json").read_text())["digest"]
    rows = [
        ReportRow("records", "za|zb|zc", "standard", metric, value, n=n,
                  manifest=digest)
        for metric, value, n in [
            ("si_bias", bias.value, bias.n),
            ("macro_f1", macro_f1(records), len(records)),
            ("perm_statistic", test.statistic, len(records)),
            ("p_value", test.p_value, len(records)),
        ]
    ]
    write_rows_json(rows, tmp_path / "want.json")
    write_rows_csv(rows, tmp_path / "want.csv")
    assert got["rows.json"] == (tmp_path / "want.json").read_bytes()
    assert got["rows.csv"] == (tmp_path / "want.csv").read_bytes()



def test_balanced_audit_rows_match_the_list_statistics(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    skewed_records(tmp_path / "records.jsonl")
    code = main(["audit", "--records", "records.jsonl", "--seed", "7",
                 "--balance", "240", "--metrics", "si_bias,macro_f1,permutation",
                 "--permutations", "199", "--out-dir", "out"])
    assert code == 0
    # the subsample and then the test draw from one stream, as in the command
    rng = np.random.default_rng(7)
    records = balanced_subsample(load_records(tmp_path / "records.jsonl"), 240, rng)
    assert len(records) == 240
    bias = si_bias(records)
    test = ci_permutation_test(records, 199, rng)
    digest = json.loads((tmp_path / "out" / "manifest.json").read_text())["digest"]
    rows = [
        ReportRow("records", "za|zb|zc", "standard", metric, value, n=240,
                  manifest=digest)
        for metric, value in [
            ("si_bias", bias.value),
            ("macro_f1", macro_f1(records)),
            ("perm_statistic", test.statistic),
            ("p_value", test.p_value),
        ]
    ]
    write_rows_json(rows, tmp_path / "want.json")
    write_rows_csv(rows, tmp_path / "want.csv")
    for name in ("rows.json", "rows.csv"):
        want = (tmp_path / name.replace("rows", "want")).read_bytes()
        assert (tmp_path / "out" / name).read_bytes() == want

# --- ooc-run -----------------------------------------------------------------


def test_ooc_run_traces_and_rows(tmp_path):
    task = write_task(tmp_path / "task.json")
    records = write_toy_records(tmp_path / "records.jsonl")
    out = tmp_path / "out"
    code = main(
        ["ooc-run", "--task", str(task), "--records", str(records),
         "--out-dir", str(out)]
    )
    assert code == 0
    traces = [
        json.loads(line)
        for line in (out / "traces.jsonl").read_text().splitlines()
    ]
    assert len(traces) == 8
    for t in traces:
        assert len(t["replicates"]) == 1  # task has m=1
        assert t["stratum_source"] == "given"
        assert t["failures"] == 0
    std = load_records(out / "records_standard.jsonl")
    ooc = load_records(out / "records_ooc.jsonl")
    assert len(std) == len(ooc) == 8
    values = {
        (r.method, r.metric): r.value for r in load_rows(out / "rows.json")
    }
    # the mock reads the true topic bit in both arms on this easy fixture
    assert values[("standard", "macro_f1")] == 1.0
    assert values[("ooc", "macro_f1")] == 1.0
    assert values[("standard", "si_bias")] == 0.0
    assert values[("ooc", "si_bias")] == 0.0


def test_ooc_run_rerun_hits_cache_and_matches_bytes(tmp_path):
    task = write_task(tmp_path / "task.json")
    records = write_toy_records(tmp_path / "records.jsonl")
    cache = tmp_path / "cache"
    args = [
        "ooc-run", "--task", str(task), "--records", str(records),
        "--cache", str(cache), "--balance", "8", "--seeds", "2",
        "--seed", "9",
    ]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    cached = sorted(p.name for p in cache.iterdir())
    assert cached  # the first run populated the cache
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    assert sorted(p.name for p in cache.iterdir()) == cached  # all hits
    for name in (
        "rows.json", "rows.csv", "records_standard.jsonl",
        "records_ooc.jsonl", "traces.jsonl",
    ):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_ooc_run_rejects_zero_seeds(tmp_path, capsys):
    task = write_task(tmp_path / "task.json")
    records = write_toy_records(tmp_path / "records.jsonl")
    out = tmp_path / "out"
    code = main(
        ["ooc-run", "--task", str(task), "--records", str(records),
         "--seeds", "0", "--out-dir", str(out)]
    )
    assert code == 2
    assert "--seeds must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_ooc_run_http_requires_endpoint(tmp_path, capsys):
    task = write_task(tmp_path / "task.json")
    records = write_toy_records(tmp_path / "records.jsonl")
    code = main(
        ["ooc-run", "--task", str(task), "--records", str(records),
         "--client", "http", "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    assert "requires --endpoint" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case, extra, message",
    [
        ("empty records", [], "no records in "),
        ("no endpoint", ["--client", "http"], "--client http requires --endpoint"),
        ("endpoint without scheme", ["--client", "http", "--endpoint", "localhost:9"],
         "endpoint must be an http(s)://host URL, got 'localhost:9'"),
        ("short cell", ["--balance", "48", "--seeds", "2"], "has 4 records, needs 24"),
        ("string m", [], "task config key 'm' must be an integer, got '3'"),
    ],
    ids=["empty-records", "no-endpoint", "bad-endpoint", "short-cell", "string-m"],
)
def test_ooc_run_checks_its_inputs_before_writing(
    tmp_path, capsys, case, extra, message
):
    task = write_task(tmp_path / "task.json")
    records = write_toy_records(tmp_path / "records.jsonl")
    if case == "empty records":
        records.write_text("")
    if case == "string m":
        task.write_text(json.dumps({**json.loads(task.read_text()), "m": "3"}))
    out = tmp_path / "out"
    code = main(["ooc-run", "--task", str(task), "--records", str(records),
                 "--out-dir", str(out), *extra])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("single_call", [False, True], ids=["ooc", "single-call"])
def test_ooc_run_builds_each_prompt_frame_once_per_stage(
    tmp_path, monkeypatch, single_call
):
    """A stage renders one frame per (instruction, stratum, z_plus), not one
    per request, and each predict frame once per batch of records."""
    assert main([
        "simulate", "--scm", str(CONFIGS / "demo_scm.json"), "--n", "300",
        "--seed", "5", "--out-dir", str(tmp_path / "sim"),
    ]) == 0
    batches = []  # per ooc_predict_many call: the frames it built, in order
    transforms = []
    run_batch, build, build_transform = (
        cli.ooc_predict_many, ooc._frame, ooc._transform_frame
    )

    def counted_batch(*args, **kwargs):
        batches.append([])
        transforms.append([])
        return run_batch(*args, **kwargs)

    def counted_frame(body, values):
        batches[-1].append((body, tuple(sorted(values.items()))))
        return build(body, values)

    def counted_transform(cfg, body, instruction, stratum=None, z_plus=None):
        transforms[-1].append((body, instruction, stratum, z_plus))
        return build_transform(cfg, body, instruction, stratum, z_plus)

    monkeypatch.setattr(cli, "ooc_predict_many", counted_batch)
    monkeypatch.setattr(ooc, "_frame", counted_frame)
    monkeypatch.setattr(ooc, "_transform_frame", counted_transform)
    out = tmp_path / "out"
    assert main([
        "ooc-run", "--task", str(CONFIGS / "demo_task.json"), "--records",
        str(tmp_path / "sim" / "records.jsonl"), "--client", "mock",
        "--seed", "5", "--out-dir", str(out),
        *(["--single-call"] if single_call else []),
    ]) == 0

    cfg = load_task(CONFIGS / "demo_task.json")
    distinct = {  # |pool| x |strata| x |contexts| for each transform stage
        ooc.OBFUSCATE_TEMPLATE: len(ooc.OBFUSCATE_PROMPTS) * len(cfg.strata),
        ooc.ADD_TEMPLATE: len(ooc.ADD_PROMPTS) * len(cfg.strata) * len(cfg.contexts),
        ooc.REWRITE_TEMPLATE:
            len(ooc.REWRITE_PROMPTS) * len(cfg.strata) * len(cfg.contexts),
    }
    assert len(batches) == math.ceil(300 / cli.STAGE_RECORDS)
    for frames, built in zip(batches, transforms):
        assert max(Counter(frames).values()) == 1
        assert max(Counter(built).values()) == 1
        assert len(frames) == 1 + len(built)  # the label frame, then these
        stages = Counter(body for body, *_key in built)
        assert len(stages) == (1 if single_call else 2)
        assert all(n <= distinct[body] for body, n in stages.items())
    requests = 300 * cfg.m * (1 if single_call else 2)
    assert sum(map(len, transforms)) < requests / 10
    traces = (out / "traces.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(traces) == 300


# --- report ------------------------------------------------------------------


def test_report_single_method_gives_zero_deltas(tmp_path):
    rows_path = tmp_path / "rows.json"
    write_rows_json(
        [ReportRow("demo", "za|zb", "standard", "si_bias", 0.3, n=10)], rows_path
    )
    out = tmp_path / "out"
    assert main(["report", "--rows", str(rows_path), "--out-dir", str(out)]) == 0
    deltas = load_rows(out / "deltas.json")
    assert len(deltas) == 1
    assert deltas[0].metric == "delta_si_bias"
    assert deltas[0].value == 0.0
    assert (out / "deltas.csv").exists()


def test_report_reads_the_rows_ooc_run_writes(tmp_path):
    run = tmp_path / "run"
    assert main(["ooc-run", "--task", str(write_task(tmp_path / "task.json")),
                 "--records", str(write_toy_records(tmp_path / "records.jsonl")),
                 "--out-dir", str(run)]) == 0
    out = tmp_path / "out"
    assert main(["report", "--rows", str(run / "rows.json"), "--out-dir", str(out)]) == 0
    rows = load_rows(run / "rows.json")
    assert {r.method for r in rows} == {"standard", "ooc"}
    assert len(load_rows(out / "deltas.json")) == len(rows)


def test_report_missing_baseline(tmp_path, capsys):
    rows_path = tmp_path / "rows.json"
    write_rows_json(
        [ReportRow("demo", "za|zb", "ooc", "si_bias", 0.3)], rows_path
    )
    code = main(["report", "--rows", str(rows_path), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "no 'standard' row" in capsys.readouterr().err


# --- malformed input files ---------------------------------------------------


def _reading(command, path, tmp_path):
    """Arguments that make ``command`` read ``path`` as its JSON input file."""
    if command == "simulate":
        return ["simulate", "--scm", str(path)]
    if command == "check-adjustment":
        return ["check-adjustment", "--graph", str(path), "--treatment", "Z",
                "--outcome", "X"]
    if command == "ooc-run":
        records = write_toy_records(tmp_path / "records.jsonl")
        return ["ooc-run", "--task", str(path), "--records", str(records)]
    return ["report", "--rows", str(path)]


_EMPTY_OBJECT_MESSAGES = {
    "simulate": "missing model keys 'u_domains', 'z_domain', 'p_u'",
    "check-adjustment": "missing graph keys 'nodes', 'edges'",
    "ooc-run": "missing task config keys 'name', 'sampled_contexts'",
    "report": "expected a JSON array, got object",
}


@pytest.mark.parametrize("command", list(_EMPTY_OBJECT_MESSAGES))
@pytest.mark.parametrize("content", ["[1, 2]", '{"a": }', "{}", '{"a": 1, "a": 1}'],
                         ids=["array", "bad-json", "empty-object", "repeated-key"])
def test_a_malformed_input_file_is_named_and_nothing_is_written(
    tmp_path, capsys, command, content
):
    path = tmp_path / "input.json"
    path.write_text(content + "\n")
    out = tmp_path / "out"
    code = main(_reading(command, path, tmp_path) + ["--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    if content == '{"a": }':
        assert "malformed JSON: Expecting value: line 1 column 7 (char 6)" in err
    elif content == "{}":
        assert _EMPTY_OBJECT_MESSAGES[command] in err
    elif content == '{"a": 1, "a": 1}':
        assert "malformed JSON: repeated key 'a'" in err
    else:
        assert "must be a JSON object" in err or "expected a JSON object" in err
    assert not out.exists()


def test_a_task_file_that_repeats_a_key_is_refused(tmp_path, capsys):
    text = (CONFIGS / "demo_task.json").read_text()
    assert text.count('  "m": 3,\n') == 1
    task = tmp_path / "task.json"
    task.write_text(text.replace('  "m": 3,\n', '  "m": 3,\n  "m": 5,\n'))
    out = tmp_path / "out"
    code = main(["ooc-run", "--task", str(task), "--records",
                 str(write_toy_records(tmp_path / "records.jsonl")),
                 "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {task}: malformed JSON: repeated key 'm'\n"
    )
    assert not out.exists()


_ROW = {"dataset": "toy", "method": "standard", "metric": "si_bias", "value": 0.5}


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("check-adjustment", {"nodes": [1], "edges": []},
         "expected a JSON object of graph node keys, got 1"),
        ("check-adjustment", {"nodes": [{"name": 1}], "edges": []},
         "graph node key 'name' must be a string, got 1"),
        ("check-adjustment", {"nodes": [{"name": "Z"}, {"name": "X"}], "edges": ["ZX"]},
         "graph edge must be an array of two node names, got 'ZX'"),
        ("check-adjustment",
         {"nodes": [{"name": "Z"}, {"name": "X"}], "edges": [{"Z": 1, "X": 2}]},
         "graph edge must be an array of two node names, got {'Z': 1, 'X': 2}"),
        ("report", [{**_ROW, "value": [0.5]}],
         "report field 'value' must be a number, got [0.5]"),
        ("ooc-run", {"mock": [1]},
         "task config key 'mock' must be an object or null, got [1]"),
        ("ooc-run", {"mock": {"label_rules": 5}},
         "mock config key 'label_rules' must be a list, got 5"),
        ("ooc-run", {"mock": {"label_rules": [5]}},
         "expected a JSON object of label rule keys, got 5"),
        ("report", [_ROW, {**_ROW, "dataset": 5}],
         "report field 'dataset' must be a string, got 5"),
        ("report", [{**_ROW, "value": True}],
         "report field 'value' must be a number, got True"),
        ("report", [{**_ROW, "n": 1.5}],
         "report field 'n' must be an integer or null, got 1.5"),
        ("ooc-run", {"standard_prompt": 5},
         "task config key 'standard_prompt' must be a string, got 5"),
        ("ooc-run", {"Z_description": 5},
         "task config key 'Z_description' must be a string, got 5"),
        ("ooc-run", {"name": 5}, "task config key 'name' must be a string, got 5"),
        ("ooc-run", {"model": 5}, "task config key 'model' must be a string, got 5"),
    ],
    ids=["graph-node-number", "graph-node-name-number", "graph-edge-string",
         "graph-edge-object", "row-value-list", "task-mock-list",
         "task-label-rules-number", "task-label-rules-number-list",
         "row-dataset-number", "row-value-bool", "row-n-fraction",
         "task-prompt-number", "task-z-description-number", "task-name-number",
         "task-model-number"],
)
def test_a_value_of_the_wrong_json_type_is_named_and_nothing_is_written(
    tmp_path, capsys, command, content, message
):
    path = tmp_path / "input.json"
    if command == "ooc-run":
        task = write_task(tmp_path / "task.json")
        content = {**json.loads(task.read_text()), **content}
    path.write_text(json.dumps(content) + "\n")
    out = tmp_path / "out"
    code = main(_reading(command, path, tmp_path) + ["--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert message in err
    assert not out.exists()


def _graph(nodes=("Z", "X"), edges=(), **marks):
    return {"nodes": [{"name": n, **({"mark": marks[n]} if n in marks else {})}
                      for n in nodes],
            "edges": [list(e) for e in edges]}


def _demo_scm(**change):
    return {**json.loads((CONFIGS / "demo_scm.json").read_text()), **change}


_DEMO_X = _demo_scm()["x_table"]


@pytest.mark.parametrize(
    "command, content, error, message",
    [
        ("check-adjustment", _graph(Z="hidden"), GraphError,
         "unknown node mark 'hidden'"),
        ("check-adjustment", _graph(edges=[("Z", "Q")]), UnknownNode,
         "edge ('Z', 'Q') references unknown node"),
        ("check-adjustment", _graph(edges=[("Z", "X"), ("X", "Z")]), GraphError,
         "graph has a directed cycle"),
        ("check-adjustment", _graph(nodes=("Z", "X", "Z")), GraphError,
         "duplicate node names"),
        ("check-adjustment", _graph(edges=[("Z", "Z")]), GraphError,
         "self-loop on 'Z'"),
        ("simulate",
         _demo_scm(x_table={k: v for k, v in _DEMO_X.items() if k != "a|amb|0"}),
         DomainMismatch, "x_table is missing entry 'a|amb|0'"),
        ("simulate", _demo_scm(p_u=[[0.5, 0.5]]), DomainMismatch,
         "p_u array level 0 has 1 entries, domain 'u1' has 2"),
        ("simulate",
         _demo_scm(u_domains=[{**d, "name": "u1"} for d in _demo_scm()["u_domains"]]),
         DomainMismatch, "duplicate exogenous factor names"),
        ("simulate", _demo_scm(z_parents=["u3"]), DomainMismatch,
         "z_parents reference unknown factors {'u3'}"),
        ("simulate", _demo_scm(p_u=[[0.5, -0.25], [0.5, 0.25]]), DomainMismatch,
         "p_u[()][('amb', '1')] is negative"),
        ("simulate",
         _demo_scm(s_table={k: v for k, v in _demo_scm()["s_table"].items()
                            if k != "b|clear|1|1"}),
         DomainMismatch, "s_table is missing entry 'b|clear|1|1'"),
    ],
    ids=["graph-mark", "graph-unknown-node", "graph-cycle", "graph-duplicate-node",
         "graph-self-loop", "scm-missing-entry", "scm-array-level", "scm-repeated-factor",
         "scm-unknown-z-parent", "scm-negative-probability", "scm-missing-s-entry"],
)
def test_a_structural_fault_names_the_file_and_keeps_its_class(
    tmp_path, capsys, command, content, error, message
):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content) + "\n")
    load = load_dag if command == "check-adjustment" else load_scm
    with pytest.raises(error) as got:
        load(path)
    assert str(got.value) == f"{path}: {message}"
    out = tmp_path / "out"
    assert main(_reading(command, path, tmp_path) + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


# The frame's templates and instruction pools, and the field-name spellings of
# the paper-spelled keys, each with a value of the type the field would take.
_NOT_TASK_KEYS = {
    **{key: "{prompt} {X}" for key in (
        "obfuscate_template", "add_template", "rewrite_template", "label_template",
        "stratifier_template", "z_description", "s_description",
    )},
    **{key: ["{prompt} {X}"] for key in (
        "obfuscate_prompts", "add_prompts", "rewrite_prompts", "contexts",
    )},
}


@pytest.mark.parametrize("key", list(_NOT_TASK_KEYS))
def test_a_task_file_cannot_replace_the_prompt_frame(tmp_path, capsys, key):
    task = write_task(tmp_path / "task.json")
    doc = {**json.loads(task.read_text()), key: _NOT_TASK_KEYS[key]}
    task.write_text(json.dumps(doc))
    records = write_toy_records(tmp_path / "records.jsonl")
    out = tmp_path / "out"
    code = main(["ooc-run", "--task", str(task), "--records", str(records),
                 "--out-dir", str(out)])
    assert code == 2
    assert f"unknown task config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


_GRAPH_CONFOUNDED = json.loads((CONFIGS / "graph_confounded.json").read_text())


def _renamed(doc, old, new):
    return {new if key == old else key: value for key, value in doc.items()}


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("check-adjustment",
         {**_GRAPH_CONFOUNDED,
          "nodes": [_renamed(n, "mark", "mrak") for n in _GRAPH_CONFOUNDED["nodes"]]},
         "unknown graph node key 'mrak'"),
        ("check-adjustment", {**_GRAPH_CONFOUNDED, "layout": "dot"},
         "unknown graph key 'layout'"),
        ("simulate", _renamed(_demo_scm(), "s_table", "s_tabel"), "unknown model key 's_tabel'"),
        ("simulate", _renamed(_demo_scm(z_parents=["u1"]), "z_parents", "z_parent"),
         "unknown model key 'z_parent'"),
        ("simulate", _demo_scm(z_domain={**_demo_scm()["z_domain"], "size": 2}),
         "unknown domain key 'size'"),
        ("ooc-run", {"mock": {"label_rules": [{"label": 5}]}},
         "label rule key 'label' must be a string or null, got 5"),
        ("ooc-run", {"mock": {"label_rules": [{"default": ["x"]}]}},
         "label rule key 'default' must be a string or null, got ['x']"),
        ("report", [_ROW, {**_ROW, "manifset": "abc"}], "unknown report field 'manifset'"),
    ],
    ids=["graph-node-mark-typo", "graph-unknown-key", "scm-s-table-typo",
         "scm-z-parents-typo", "scm-domain-key", "task-rule-label-number",
         "task-rule-default-list", "row-field-typo"],
)
def test_an_unknown_or_mistyped_key_is_named_and_nothing_is_written(
    tmp_path, capsys, command, content, message
):
    """A misspelt key is refused, not read past: a graph whose latent marks
    were misspelt would otherwise certify a latent candidate as VALID, and a
    model with a misspelt s_table would write a null stratum for every
    record."""
    path = tmp_path / "input.json"
    if command == "ooc-run":
        content = {**json.loads(write_task(tmp_path / "task.json").read_text()), **content}
    path.write_text(json.dumps(content) + "\n")
    out = tmp_path / "out"
    code = main(_reading(command, path, tmp_path) + ["--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("client", ["mock", "http"])
def test_a_mock_section_is_checked_whichever_client_runs(tmp_path, capsys, chat_server, client):
    task = write_task(tmp_path / "task.json", mock={"bogus": 1})
    server = chat_server(lambda doc: "0")
    out = tmp_path / "out"
    code = main(["ooc-run", "--task", str(task),
                 "--records", str(write_toy_records(tmp_path / "records.jsonl")),
                 "--client", client, "--endpoint", server.url, "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {task}: unknown mock config key 'bogus'\n"
    assert server.calls == []
    assert not out.exists()


def _demo_task(**change):
    return {**json.loads((CONFIGS / "demo_task.json").read_text()), **change}


_ELEMENT_FAULTS = {
    "task-null-context": (_demo_task(sampled_contexts=["unknown", "removed", None]),
                          "task config key 'sampled_contexts' must be a list of strings, "
                          "got ['unknown', 'removed', None]"),
    "task-number-labels": (_demo_task(labels=[1, 2]),
                           "task config key 'labels' must be a list of strings, got [1, 2]"),
    "task-object-stratum": (_demo_task(strata=[{"x": 1}]),
                            "task config key 'strata' must be a list of strings, "
                            "got [{'x': 1}]"),
    "rule-null-if": (_demo_task(mock={"label_rules": [{"if": {"kind": None}, "label": "yes"}]}),
                     "label rule key 'if' must be an object of strings, got {'kind': None}"),
    "rule-number-map": (_demo_task(mock={"label_rules": [{"read": "topic", "map": {"1": 2}}]}),
                        "label rule key 'map' must be an object of strings, got {'1': 2}"),
    "scm-list-domain-value": (
        _demo_scm(u_domains=[_demo_scm()["u_domains"][0], {"name": "u2", "values": [[0], "1"]}]),
        "domain key 'values' must be a list of scalars, got [[0], '1']"),
    "scm-list-y-value": (_demo_scm(y_values=[[0], {"a": 1}]),
                         "model key 'y_values' must be a list of scalars, got [[0], {'a': 1}]"),
    "scm-string-probability": (_demo_scm(p_u=[[0.25, "0.25"], [0.25, 0.25]]),
                               "p_u array leaf ('amb', '1') must be a number, got '0.25'"),
    "scm-bool-probability": (_demo_scm(p_z_given_parents=[True, 0.0]),
                             "p_z_given_parents array leaf ('a',) must be a number, got True"),
    "scm-number-level": (_demo_scm(p_u=[[0.25, 0.25], 0.5]),
                         "p_u array level 1 must be a list, got 0.5"),
    "scm-list-x": (_demo_scm(x_table={**_DEMO_X, "a|amb|0": ["ctx=a", "kind=amb"]}),
                   "model key 'x_table' must be an object of scalars, got "
                   + repr({**_DEMO_X, "a|amb|0": ["ctx=a", "kind=amb"]})),
}


@pytest.mark.parametrize("fault", list(_ELEMENT_FAULTS))
def test_an_element_of_the_wrong_json_type_is_named_and_nothing_is_written(
    tmp_path, capsys, chat_server, fault
):
    """A list or object element is never converted to the type its key
    takes: a null context would otherwise be sent to the service as the
    context "None"."""
    content, message = _ELEMENT_FAULTS[fault]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content) + "\n")
    server = chat_server(lambda doc: "0")
    out = tmp_path / "out"
    command = "simulate" if fault.startswith("scm") else "ooc-run"
    clients = [["--client", "http", "--endpoint", server.url]] if command == "ooc-run" else []
    for client in [[], *clients]:
        code = main(_reading(command, path, tmp_path) + client + ["--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert server.calls == []
    assert not out.exists()


@pytest.mark.parametrize("change, message", [
    ({"sampled_contexts": []}, "contexts must be nonempty"),
    ({"sampled_contexts": ["unknown", "unknown"]}, "duplicate context values"),
    ({"labels": []}, "labels must be nonempty"),
    ({"labels": ["0", "1", "0"]}, "duplicate label values"),
    ({"transform_temperature": 2.5}, "transform_temperature must lie in [0, 2], got 2.5"),
    ({"predict_temperature": -0.1}, "predict_temperature must lie in [0, 2], got -0.1"),
    ({"m": 0}, "m must be >= 1"),
    ({"max_in_flight": 0}, "max_in_flight must be >= 1"),
    ({"strata": ["amb0", "amb1", "amb0"]}, "duplicate stratum values"),
], ids=["no-contexts", "repeated-context", "no-labels", "repeated-label", "hot-transform",
        "negative-predict-temperature", "no-replicates", "no-requests-in-flight",
        "repeated-stratum"])
def test_a_task_value_out_of_range_is_named_and_nothing_is_written(
    tmp_path, capsys, change, message
):
    path = tmp_path / "task.json"
    path.write_text(json.dumps(_demo_task(**change)) + "\n")
    out = tmp_path / "out"
    code = main(_reading("ooc-run", path, tmp_path) + ["--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


# Each input file's command, a valid document, and where in it each object
# that a field table checks sits, as a path of keys and indexes.
_DEMO_TASK = _demo_task()
_DOCUMENTS = {
    "ooc-run": (_DEMO_TASK, [
        ((), ooc._TASK_FIELDS), (("mock",), ooc._MOCK_FIELDS),
        *((("mock", "label_rules", i), ooc._LABEL_RULE_FIELDS)
          for i in range(len(_DEMO_TASK["mock"]["label_rules"]))),
    ]),
    "check-adjustment": (_GRAPH_CONFOUNDED, [
        ((), cg._GRAPH_FIELDS),
        *((("nodes", i), cg._NODE_FIELDS) for i in range(len(_GRAPH_CONFOUNDED["nodes"]))),
    ]),
    "simulate": (_demo_scm(), [
        ((), scm_mod._MODEL_FIELDS), (("z_domain",), scm_mod._DOMAIN_FIELDS),
        *((("u_domains", i), scm_mod._DOMAIN_FIELDS)
          for i in range(len(_demo_scm()["u_domains"]))),
    ]),
    "report": ([_ROW, {**_ROW, "method": "ooc", "z_pair": "za|zb", "dispersion": 0.1,
                       "n": 4, "manifest": "abc"}],
               [((0,), reports._ROW_FIELDS), ((1,), reports._ROW_FIELDS)]),
}
# A value of each JSON type; a "number" key takes an integer too.
_JSON_VALUES = {
    "object": st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2),
    "list": st.lists(st.integers(0, 3), max_size=2),
    "string": st.text(alphabet="xyz", max_size=3),
    "integer": st.integers(-3, 3),
    "number": st.floats(-2, 2),
    "null": st.none(),
    "boolean": st.booleans(),
}
# The JSON types an element of a "list of ..." or "object of ..." type takes.
_ELEMENT_KINDS = {"strings": {"string"},
                  "scalars": {"string", "integer", "number", "null", "boolean"}}


def _leaves(node, where):
    """Where each leaf of a nested probability array sits."""
    if node.__class__ is not list:
        return [where]
    return [leaf for i, child in enumerate(node) for leaf in _leaves(child, (*where, i))]


def _elements(command):
    """Where each element of a typed list or object, and each probability
    leaf, of ``command``'s document sits, the JSON types it takes, and how
    the refusal of another type starts."""
    doc, objects = _DOCUMENTS[command]
    out = []
    for where, table in objects:
        target = functools.reduce(operator.getitem, where, doc)
        for key, spec in table.types.items():
            for alt in spec.split(" or "):
                container, _, elements = alt.partition(" of ")
                value = target.get(key)
                if elements and value.__class__ is {"list": list, "object": dict}[container]:
                    out += [((*where, key, i), _ELEMENT_KINDS[elements],
                             f"{table.what} {key!r} must be ")
                            for i in (value if container == "object" else range(len(value)))]
    if command == "simulate":
        out += [(leaf, {"integer", "number"}, f"{key} array leaf ")
                for key in ("p_u", "p_z_given_parents") for leaf in _leaves(doc[key], (key,))]
    return out


_ELEMENTS = {command: _elements(command) for command in _DOCUMENTS}


@st.composite
def _faulty_input(draw):
    """A command, one of its documents with one fault, and the fault's message:
    an unknown key in one checked object, a key's value swapped for one of a
    JSON type the key does not take, or one element of a typed list or object
    (or one probability leaf) swapped for one of a JSON type it does not take."""
    command = draw(st.sampled_from(sorted(_DOCUMENTS)))
    doc, objects = _DOCUMENTS[command]
    doc = copy.deepcopy(doc)
    fault = draw(st.sampled_from(["key", "value", "element"] if _ELEMENTS[command]
                                 else ["key", "value"]))
    if fault == "element":
        where, takes, message = draw(st.sampled_from(_ELEMENTS[command]))
        target = functools.reduce(operator.getitem, where[:-1], doc)
        target[where[-1]] = draw(_JSON_VALUES[draw(st.sampled_from(
            sorted(set(_JSON_VALUES) - takes)))])
        return command, doc, message
    where, table = draw(st.sampled_from(objects))
    target = functools.reduce(operator.getitem, where, doc)
    if fault == "key":
        key = draw(st.text(alphabet=string.ascii_letters + "_", min_size=1, max_size=8)
                   .filter(lambda k: k not in table.types))
        target[key] = draw(st.one_of(*_JSON_VALUES.values()))
        return command, doc, f"unknown {table.what} {key!r}"
    key = draw(st.sampled_from(list(table.types)))
    takes = {alt.partition(" of ")[0] for alt in table.types[key].split(" or ")}
    if "number" in takes:
        takes.add("integer")
    kind = draw(st.sampled_from(sorted(set(_JSON_VALUES) - takes)))
    target[key] = draw(_JSON_VALUES[kind])
    return command, doc, f"{table.what} {key!r} must be "


@settings(max_examples=200, deadline=None)
@given(case=_faulty_input())
def test_any_unknown_key_or_mistyped_value_in_an_input_file_exits_2(tmp_path_factory, case):
    command, doc, message = case
    base = tmp_path_factory.getbasetemp() / "faulty-input"
    base.mkdir(exist_ok=True)
    path, out = base / "input.json", base / "out"
    path.write_text(json.dumps(doc) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(_reading(command, path, base) + ["--out-dir", str(out)])
    assert code == 2
    assert err.getvalue().startswith(f"error: {path}: ")
    assert message in err.getvalue()
    assert not out.exists()


_README_OBJECTS = {
    "task file": ooc._TASK_FIELDS,
    "task `mock` section": ooc._MOCK_FIELDS,
    "label rule": ooc._LABEL_RULE_FIELDS,
    "graph file": cg._GRAPH_FIELDS,
    "graph node": cg._NODE_FIELDS,
    "SCM file": scm_mod._MODEL_FIELDS,
    "SCM domain (`u_domains` entry, `z_domain`)": scm_mod._DOMAIN_FIELDS,
    "rows file row": reports._ROW_FIELDS,
}


def test_the_readme_input_table_lists_exactly_the_field_tables():
    """Each object's keys in table order, with their JSON types, and which of
    them are required."""
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Input files\n", 1)[1].split("\n### ", 1)[0]
    listed: dict = {}
    for obj, key, kind, default in re.findall(
        r"^\| (.+?) \| `([^`]+)` \| ([a-z ]+) \| (.+) \|$", section, re.M
    ):
        listed.setdefault(obj, []).append((key, kind, default == "required"))
    assert listed == {
        obj: [(key, kind, key in table.required) for key, kind in table.types.items()]
        for obj, table in _README_OBJECTS.items()
    }


def _set_x(path, x):
    """Give the second record of the JSON-lines file at ``path`` the input ``x``."""
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "x": x})
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("x", [5, None])
def test_ooc_run_refuses_a_record_whose_x_is_not_text(tmp_path, capsys, chat_server, x):
    """The refusal names the file and record before any call is sent; audit
    still takes any JSON input."""
    records = _set_x(write_toy_records(tmp_path / "records.jsonl"), x)
    server = chat_server(lambda doc: "0")
    out = tmp_path / "out"
    code = main(["ooc-run", "--task", str(write_task(tmp_path / "task.json")),
                 "--records", str(records), "--client", "http",
                 "--endpoint", server.url, "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {records}: record 'r1' has x {x!r}")
    assert server.calls == []
    assert not out.exists()
    audited = _set_x(biased_records(tmp_path / "audit.jsonl"), x)
    assert main(["audit", "--records", str(audited), "--out-dir", str(out)]) == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "stratinv" in capsys.readouterr().out


# --- one parser per process --------------------------------------------------


def _two_confounder_graph(path):
    path.write_text(json.dumps({
        "nodes": [{"name": n, "mark": "observed"} for n in ("Z", "X", "A", "B")],
        "edges": [["A", "Z"], ["A", "X"], ["B", "Z"], ["B", "X"], ["Z", "X"]],
    }))
    return path


def test_shared_parser_carries_nothing_between_calls(tmp_path, capsys, monkeypatch):
    """Every call in one process gives what a call with a fresh parser gives:
    no appended --candidate or --rows value, and no state left by a rejected
    argv, reaches a later call."""
    graph = _two_confounder_graph(tmp_path / "g.json")
    rows_a, rows_b = tmp_path / "a.json", tmp_path / "b.json"
    write_rows_json([
        ReportRow("demo", "za|zb", "standard", "si_bias", 0.3, n=10),
        ReportRow("demo", "za|zb", "ooc", "si_bias", 0.1, n=10),
    ], rows_a)
    write_rows_json([
        ReportRow("other", "za|zb", "standard", "macro_f1", 0.9, n=12),
        ReportRow("other", "za|zb", "ooc", "macro_f1", 0.7, n=12),
    ], rows_b)
    query = ["check-adjustment", "--graph", str(graph), "--treatment", "Z",
             "--outcome", "X"]
    calls = [
        (query + ["--candidate", "A", "--candidate", "B"], "verdict.json"),
        (query, "verdict.json"),
        (["report", "--rows", str(rows_a)], "deltas.json"),
        (["report", "--rows", str(rows_b)], "deltas.json"),
        (["check-adjustment", "--graph", str(graph), "--treatment", "Z"], None),
        (query + ["--candidate", "A,B", "--minimal"], "verdict.json"),
    ]

    def run(argv, out):
        try:
            code = main(argv + ["--out-dir", str(out)])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out

    shared = [run(argv, tmp_path / f"shared{i}") for i, (argv, _) in enumerate(calls)]
    for i, (argv, artifact) in enumerate(calls):
        monkeypatch.setattr(cli, "_parser", None)
        alone = run(argv, tmp_path / f"alone{i}")
        assert shared[i] == alone, argv
        if artifact is not None:
            assert (tmp_path / f"shared{i}" / artifact).read_bytes() == (
                tmp_path / f"alone{i}" / artifact
            ).read_bytes(), argv
    assert [code for code, _ in shared] == [0, 0, 0, 0, 2, 0]
    assert ": VALID" in shared[0][1] and ": INVALID" in shared[1][1]
    assert "delta_si_bias" in shared[2][1] and "delta_si_bias" not in shared[3][1]


def test_main_builds_the_parser_once(tmp_path, monkeypatch, capsys):
    graph = _two_confounder_graph(tmp_path / "g.json")
    built = []
    real = cli.build_parser

    def spy():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", spy)
    for i in range(5):
        assert main(["check-adjustment", "--graph", str(graph), "--treatment", "Z",
                     "--outcome", "X", "--out-dir", str(tmp_path / f"o{i}")]) == 0
    assert len(built) == 1


def mock_reply(mock):
    """A loopback server's reply function answering from ``mock``."""

    def respond(doc):
        return mock.complete(ChatTurnRequest(
            messages=tuple((m["role"], m["content"]) for m in doc["messages"]),
            temperature=doc["temperature"], seed=doc.get("seed"),
            model=doc["model"],
        ))

    return respond


OOC_OUTPUTS = ("records_standard.jsonl", "records_ooc.jsonl", "traces.jsonl")


def test_ooc_run_http_fan_out_matches_serial_and_mock(tmp_path, chat_server):
    records = write_toy_records(tmp_path / "records.jsonl")
    outs, peak = {}, 0
    for label, client, max_in_flight in (
        ("mock", "mock", 4), ("http1", "http", 1), ("http4", "http", 4),
    ):
        task = write_task(tmp_path / f"{label}.json", m=3,
                          transform_temperature=0.7, max_in_flight=max_in_flight)
        server = chat_server(
            mock_reply(MockStructuredLm.for_task(load_task(task))), delay=0.001
        )
        out = tmp_path / label
        argv = ["ooc-run", "--task", str(task), "--records", str(records),
                "--client", client, "--seeds", "2", "--seed", "3",
                "--out-dir", str(out)]
        if client == "http":
            argv += ["--endpoint", server.url]
        assert main(argv) == 0
        if client == "http":
            assert 1 <= server.peak <= max_in_flight
            peak = server.peak
        rows = json.loads((out / "rows.json").read_text())
        for row in rows:
            del row["manifest"]  # the task files differ in max_in_flight
        outs[label] = [(out / name).read_bytes() for name in OOC_OUTPUTS] + [rows]
    assert peak > 1
    assert outs["http1"] == outs["http4"] == outs["mock"]


def test_ooc_run_http_null_content_fails_one_record(tmp_path, capsys, chat_server):
    """A completion whose content is not text fails its record, not the run."""
    task = write_task(tmp_path / "task.json")
    records = write_toy_records(tmp_path / "records.jsonl")
    answer = mock_reply(MockStructuredLm.for_task(load_task(task)))
    null = (200, '{"choices": [{"message": {"content": null}}]}')
    server = chat_server(
        lambda doc: null if "routine note 2" in json.dumps(doc) else answer(doc)
    )
    out = tmp_path / "out"
    assert main(["ooc-run", "--task", str(task), "--records", str(records),
                 "--client", "http", "--endpoint", server.url,
                 "--out-dir", str(out)]) == 0
    assert "failed r2: standard label: malformed completion payload: content is null" \
        in capsys.readouterr().out
    std = load_records(out / "records_standard.jsonl")
    assert {r.record_id for r in std} == {f"r{i}" for i in range(8)} - {"r2"}
    rates = {
        r.method: r.value for r in load_rows(out / "rows.json")
        if r.metric == "failure_rate"
    }
    assert rates["standard"] == 1 / 8


def test_ooc_run_on_the_mock_starts_no_thread(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("thread started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    task = write_task(tmp_path / "task.json", m=3)
    records = write_toy_records(tmp_path / "records.jsonl")
    assert main(["ooc-run", "--task", str(task), "--records", str(records),
                 "--out-dir", str(tmp_path / "out")]) == 0


def test_ooc_run_standard_arm_failure_drops_the_record_only(tmp_path, capsys):
    # the mock cannot answer for male topic-1 notes, in either arm
    task = write_task(
        tmp_path / "task.json",
        mock={"label_rules": [
            {"if": {"ctx": "male", "topic": "1"}, "label": "maybe"},
            {"read": "topic"},
        ]},
    )
    records = write_toy_records(tmp_path / "records.jsonl")
    out = tmp_path / "out"
    code = main(["ooc-run", "--task", str(task), "--records", str(records),
                 "--seed", "1", "--out-dir", str(out)])
    assert code == 0
    std = load_records(out / "records_standard.jsonl")
    ooc = load_records(out / "records_ooc.jsonl")
    assert len(std) == 6
    assert {r.record_id for r in std} == {"r0", "r1", "r4", "r5", "r6", "r7"}
    rates = {
        r.method: r.value for r in load_rows(out / "rows.json")
        if r.metric == "failure_rate"
    }
    assert rates == {"standard": 0.25, "ooc": (8 - len(ooc)) / 8}
    stdout = capsys.readouterr().out
    assert "failed r2: standard label: could not parse 'maybe'" in stdout
    assert "failed r3: standard label:" in stdout


def test_ooc_run_without_failures_has_no_failure_rate_rows(tmp_path):
    task = write_task(tmp_path / "task.json")
    records = write_toy_records(tmp_path / "records.jsonl")
    out = tmp_path / "out"
    assert main(["ooc-run", "--task", str(task), "--records", str(records),
                 "--out-dir", str(out)]) == 0
    assert all(r.metric != "failure_rate" for r in load_rows(out / "rows.json"))


def test_ooc_run_rows_stay_comparable_when_a_context_fails(tmp_path):
    # every male note fails the standard arm, so only female notes survive it;
    # macro_f1 alone, since a bias metric refuses such an arm
    task = write_task(
        tmp_path / "task.json",
        mock={"label_rules": [
            {"if": {"ctx": "male"}, "label": "maybe"}, {"read": "topic"},
        ]},
    )
    records = write_toy_records(tmp_path / "records.jsonl")
    out = tmp_path / "out"
    assert main(["ooc-run", "--task", str(task), "--records", str(records),
                 "--metrics", "macro_f1", "--out-dir", str(out)]) == 0
    rows = load_rows(out / "rows.json")
    assert {r.z_pair for r in rows} == {"female|male"}
    assert main(["report", "--rows", str(out / "rows.json"),
                 "--out-dir", str(tmp_path / "report")]) == 0


@pytest.mark.parametrize("metric", ["si_bias", "permutation"])
def test_ooc_run_refuses_an_arm_that_lost_a_context(tmp_path, capsys, metric):
    # the mock cannot answer any male note, so the standard arm holds only
    # female notes and would read as unbiased
    task = write_task(
        tmp_path / "task.json",
        mock={"label_rules": [
            {"if": {"ctx": "male"}, "label": "maybe"}, {"read": "topic"},
        ]},
    )
    records = write_toy_records(tmp_path / "records.jsonl")
    code = main(["ooc-run", "--task", str(task), "--records", str(records),
                 "--metrics", f"{metric},macro_f1", "--permutations", "9",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "the standard arm lost every record with context male" in err
    assert "could not parse 'maybe'" in err
    assert not (tmp_path / "out" / "rows.json").exists()


# --- a command that fails writes nothing -------------------------------------


def _failing_run(case, tmp_path, chat_server):
    """The argv of a run that fails in ``case`` and its expected exit and error."""
    records = biased_records(tmp_path / "records.jsonl")
    if case == "audit-empty":
        records.write_text("")
        return ["audit", "--records", str(records)], 2, f"no records in {records}"
    if case == "audit-zero-permutations":
        return (["audit", "--records", str(records), "--metrics", "permutation",
                 "--permutations", "0"], 2, "permutations must be >= 1")
    if case == "audit-no-predictions":
        dump_records([LabeledRecord("r0", x="", s="s0", z="za")], records)
        return ["audit", "--records", str(records)], 2, "'r0' has no prediction"
    if case == "report-no-baseline":
        rows = tmp_path / "rows.json"
        write_rows_json([ReportRow("demo", "za|zb", "ooc", "si_bias", 0.3)], rows)
        return ["report", "--rows", str(rows)], 2, "no 'standard' row"
    argv = ["ooc-run", "--records", str(write_toy_records(records))]
    if case == "ooc-every-standard-label-fails":
        task = write_task(tmp_path / "task.json",
                          mock={"label_rules": [{"label": "maybe"}]})
        return (argv + ["--task", str(task)], 2,
                "every record failed the standard arm; first error: standard "
                "label: could not parse 'maybe'")
    task = write_task(tmp_path / "task.json")
    argv += ["--task", str(task), "--client", "http"]
    if case == "ooc-service-error":
        server = chat_server(lambda doc: (400, "no such model"))
        return (argv + ["--endpoint", server.url], 3,
                "every record failed the standard arm; first error: standard "
                "label: HTTP 400: no such model")
    # the service fails every male note, so the standard arm loses a context
    answer = mock_reply(MockStructuredLm.for_task(load_task(task)))
    server = chat_server(
        lambda doc: (400, "refused") if "ctx=male" in json.dumps(doc) else answer(doc)
    )
    return (argv + ["--endpoint", server.url], 3,
            "the standard arm lost every record with context male, so its bias "
            "is not measurable; first error: standard label: HTTP 400: refused")


@pytest.mark.parametrize(
    "case",
    ["audit-empty", "audit-zero-permutations", "audit-no-predictions",
     "ooc-every-standard-label-fails", "ooc-service-error",
     "ooc-service-loses-a-context", "report-no-baseline"],
)
def test_a_failed_command_writes_nothing(tmp_path, capsys, chat_server, case):
    argv, code, message = _failing_run(case, tmp_path, chat_server)
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


# --- a rerun into a used out-dir ---------------------------------------------


def _older_and_newer(command, tmp_path):
    """The argv of a run whose artifacts are longer, then of a shorter run."""
    if command == "simulate":
        scm = write_scm(tmp_path / "scm.json", chain_fixture(0))
        base = ["simulate", "--scm", str(scm)]
        return base + ["--n", "40"], base + ["--n", "4"]
    if command == "check-adjustment":
        graph = _two_confounder_graph(tmp_path / "g.json")
        base = ["check-adjustment", "--graph", str(graph), "--treatment", "Z",
                "--outcome", "X"]
        return base, base + ["--candidate", "A,B"]  # INVALID, two open paths; VALID
    if command == "audit":
        base = ["audit", "--records", str(biased_records(tmp_path / "records.jsonl"))]
        return (base + ["--metrics", "si_bias,macro_f1,permutation",
                        "--permutations", "9"],
                base + ["--metrics", "si_bias"])
    if command == "ooc-run":
        records = str(write_toy_records(tmp_path / "records.jsonl"))
        older = ["ooc-run", "--task", str(write_task(tmp_path / "m3.json", m=3)),
                 "--records", records, "--metrics", "si_bias,macro_f1,permutation",
                 "--permutations", "9"]
        newer = ["ooc-run", "--task", str(write_task(tmp_path / "m1.json")),
                 "--records", records, "--balance", "4", "--metrics", "si_bias"]
        return older, newer
    rows = tmp_path / "rows.json"
    write_rows_json([ReportRow("demo", "za|zb", m, metric, 0.3, n=10)
                     for m in ("standard", "ooc", "single_call")
                     for metric in ("si_bias", "macro_f1")], rows)
    small = tmp_path / "small.json"
    write_rows_json([ReportRow("demo", "za|zb", "standard", "si_bias", 0.3)], small)
    return ["report", "--rows", str(rows)], ["report", "--rows", str(small)]


def _without_created_at(manifest: bytes) -> bytes:
    return re.sub(rb'"created_at": "[^"]*"', b"", manifest)


@pytest.mark.parametrize(
    "command", ["simulate", "check-adjustment", "audit", "ooc-run", "report"]
)
def test_a_rerun_into_a_used_out_dir_writes_a_fresh_runs_bytes(tmp_path, capsys, command):
    """Each artifact is overwritten in place with no stale tail of the longer
    old one, and a file the command does not write is left as it is."""
    older, newer = _older_and_newer(command, tmp_path)
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    assert main(newer + ["--out-dir", str(fresh)]) == 0
    assert main(older + ["--out-dir", str(used)]) == 0
    (used / "notes.txt").write_text("kept\n")
    old = {path.name: path.read_bytes() for path in used.iterdir()}
    assert main(newer + ["--out-dir", str(used)]) == 0
    artifacts = sorted(path.name for path in fresh.iterdir())
    assert sorted(path.name for path in used.iterdir()) == sorted(
        artifacts + ["notes.txt"]
    )
    assert (used / "notes.txt").read_bytes() == old["notes.txt"]
    for name in artifacts:
        want, got = (fresh / name).read_bytes(), (used / name).read_bytes()
        if name == "manifest.json":
            want, got = _without_created_at(want), _without_created_at(got)
        else:
            assert len(old[name]) > len(want), name
        assert got == want, name
