"""CLI behavior through main(): artifacts, exit codes, reproducible reruns."""

import json
import threading

import numpy as np
import pytest

from stratinv import causal_graph as cg
from stratinv import cli
from stratinv.chat import ChatTurnRequest
from stratinv.cli import main
from stratinv.fixtures import chain_fixture
from stratinv.metrics import (
    LabeledRecord,
    ci_permutation_test,
    dump_records,
    load_records,
    macro_f1,
    si_bias,
)
from stratinv.mock import MockStructuredLm
from stratinv.ooc import TaskConfig, dump_task, load_task
from stratinv.reports import ReportRow, load_rows, write_rows_csv, write_rows_json
from stratinv.scm import dump_scm


def write_scm(path, scm):
    path.write_text(json.dumps(dump_scm(scm), indent=2, sort_keys=True))
    return path


def write_graph(path, g):
    path.write_text(json.dumps(cg.dump_dag(g), indent=2, sort_keys=True))
    return path


def write_task(path, **overrides):
    kw = dict(
        name="toy",
        contexts=("male", "female"),
        z_description="The channel marker token at the front of the note",
        s_description="A synthetic note",
        labels=("0", "1"),
        standard_prompt="Classify the topic bit of the note.",
        transform_temperature=0.0,
        m=1,
        mock={"label_rules": [{"read": "topic"}]},
    )
    kw.update(overrides)
    dump_task(TaskConfig(**kw), path)
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
    graph = write_graph(tmp_path / "g.json", cg.anticausal_graph())
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


def test_check_adjustment_unknown_node(tmp_path, capsys):
    graph = write_graph(tmp_path / "g.json", cg.anticausal_graph())
    code = main(
        ["check-adjustment", "--graph", str(graph), "--treatment", "Z",
         "--outcome", "X", "--candidate", "Bogus", "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    assert "Bogus" in capsys.readouterr().err


def test_check_adjustment_rejects_a_negative_max_size(tmp_path, capsys):
    graph = write_graph(tmp_path / "g.json", cg.anticausal_graph())
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


def test_report_missing_baseline(tmp_path, capsys):
    rows_path = tmp_path / "rows.json"
    write_rows_json(
        [ReportRow("demo", "za|zb", "ooc", "si_bias", 0.3)], rows_path
    )
    code = main(["report", "--rows", str(rows_path), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "no 'standard' row" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "stratinv" in capsys.readouterr().out


# --- one parser per process --------------------------------------------------


def _two_confounder_graph(path):
    return write_graph(path, cg.dag(
        ["Z", "X", "A", "B"],
        [("A", "Z"), ("A", "X"), ("B", "Z"), ("B", "X"), ("Z", "X")],
    ))


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
