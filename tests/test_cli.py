"""CLI behavior through main(): artifacts, exit codes, reproducible reruns."""

import json
import threading
import time
import types

import pytest

from stratinv import causal_graph as cg
from stratinv import chat
from stratinv.chat import ChatTurnRequest
from stratinv.cli import main
from stratinv.fixtures import chain_fixture
from stratinv.metrics import LabeledRecord, dump_records, load_records
from stratinv.mock import MockStructuredLm
from stratinv.ooc import TaskConfig, dump_task, load_task
from stratinv.reports import ReportRow, load_rows, write_rows_json
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


def test_simulate_requires_a_config(tmp_path, capsys):
    assert main(["simulate", "--out-dir", str(tmp_path)]) == 2
    assert "need --config" in capsys.readouterr().err


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


def test_ooc_run_http_requires_endpoint(tmp_path, capsys):
    task = write_task(tmp_path / "task.json")
    records = write_toy_records(tmp_path / "records.jsonl")
    code = main(
        ["ooc-run", "--task", str(task), "--records", str(records),
         "--client", "http", "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    assert "requires --endpoint" in capsys.readouterr().err


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


class MockSession:
    """requests.Session stand-in answering from the mock, tracking overlap."""

    lock = threading.Lock()
    in_flight = 0
    peak = 0
    mock = None

    def post(self, url, json=None, headers=None, timeout=None):
        cls = type(self)
        with cls.lock:
            cls.in_flight += 1
            cls.peak = max(cls.peak, cls.in_flight)
        try:
            request = ChatTurnRequest(
                messages=tuple((m["role"], m["content"]) for m in json["messages"]),
                temperature=json["temperature"], seed=json.get("seed"),
                model=json["model"],
            )
            time.sleep(0.001)
            text = cls.mock.complete(request)
        finally:
            with cls.lock:
                cls.in_flight -= 1
        return types.SimpleNamespace(
            status_code=200, headers={},
            json=lambda: {"choices": [{"message": {"content": text}}]},
        )

    def close(self):
        pass


OOC_OUTPUTS = ("records_standard.jsonl", "records_ooc.jsonl", "traces.jsonl")


def test_ooc_run_http_fan_out_matches_serial_and_mock(tmp_path, monkeypatch):
    records = write_toy_records(tmp_path / "records.jsonl")
    outs = {}
    for label, client, max_in_flight in (
        ("mock", "mock", 4), ("http1", "http", 1), ("http4", "http", 4),
    ):
        task = write_task(tmp_path / f"{label}.json", m=3,
                          transform_temperature=0.7, max_in_flight=max_in_flight)
        MockSession.mock = MockStructuredLm.for_task(load_task(task))
        MockSession.peak = 0
        monkeypatch.setattr(chat.requests, "Session", MockSession)
        out = tmp_path / label
        argv = ["ooc-run", "--task", str(task), "--records", str(records),
                "--client", client, "--seeds", "2", "--seed", "3",
                "--out-dir", str(out)]
        if client == "http":
            argv += ["--endpoint", "http://unit.test"]
        assert main(argv) == 0
        if client == "http":
            assert 1 <= MockSession.peak <= max_in_flight
        rows = json.loads((out / "rows.json").read_text())
        for row in rows:
            del row["manifest"]  # the task files differ in max_in_flight
        outs[label] = [(out / name).read_bytes() for name in OOC_OUTPUTS] + [rows]
    assert MockSession.peak > 1
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
