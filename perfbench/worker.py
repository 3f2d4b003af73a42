"""The stratinv process of one benchmark run.

``run.py`` starts this script once per set-up sample and once for the timed
run. It imports the package, loads the workload's inputs with the public
loaders (the set-up), then repeats rounds of the workload until its share of
``--seconds`` is used. An untraced round drives the command line
(``stratinv.cli.main``) or, for model checks, the public library; a traced
round makes the same calls through the library with a span around each call
into a layer. The result goes to ``--result`` as JSON; spans go to
``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from stratinv import causal_graph as cg  # noqa: E402
from stratinv.augment import (  # noqa: E402
    AugmentedPredictor,
    exact_augmented_distribution,
    max_context_deviation,
)
from stratinv.chat import HttpChatClient  # noqa: E402
from stratinv.cli import main as cli_main, metric_rows  # noqa: E402
from stratinv.errors import OocFailed  # noqa: E402
from stratinv.fixtures import ctx_reader  # noqa: E402
from stratinv.metrics import (  # noqa: E402
    LabeledRecord,
    balanced_subsample,
    ci_permutation_test,
    dump_records,
    load_records,
    macro_f1,
    si_bias,
)
from stratinv.mock import MockStructuredLm  # noqa: E402
from stratinv.ooc import load_task, ooc_predict, predict_label  # noqa: E402
from stratinv.reports import ReportRow, write_rows_csv, write_rows_json  # noqa: E402
from stratinv.scm import (  # noqa: E402
    ExactConditionalSampler,
    ExactRecoverer,
    enumerate_joint,
    load_scm,
)
from tracing import Tracer, TracedClient, percentile  # noqa: E402

_OOC_SUMMARY = re.compile(r"ooc-run: (\d+) records traced, (\d+) failed")


def _digest_files(directory: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        path = directory / name
        h.update(name.encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def run_cli(argv) -> tuple[int, str]:
    """``stratinv.cli.main`` with its standard output captured."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli_main([str(a) for a in argv])
    return code, out.getvalue()


class OocWorkload:
    """``ooc-run`` end to end; one round is one run over the input records."""

    RECORDS = ("records_standard.jsonl", "records_ooc.jsonl")
    OUTPUTS = RECORDS + ("traces.jsonl", "rows.json", "rows.csv")

    def __init__(self, inputs: dict, seed: int, endpoint: str | None):
        self.inputs = inputs
        self.seed = seed
        self.endpoint = endpoint
        self.balance = inputs.get("balance")
        self.passes = inputs.get("passes", 1)
        self.mock_calls = 0

    def setup(self, tracer: Tracer | None) -> None:
        with _maybe(tracer, "ooc.load_task"):
            self.cfg = load_task(self.inputs["task"])
        with _maybe(tracer, "metrics.load_records"):
            self.items = self.balance or len(load_records(self.inputs["records"]))
        # Count completions that reach the in-process mock (the local bill).
        original = MockStructuredLm.complete
        lock = threading.Lock()

        def counted(mock, request):
            with lock:
                self.mock_calls += 1
            return original(mock, request)

        MockStructuredLm.complete = counted

    def cli_args(self, out: Path) -> list:
        argv = ["ooc-run", "--task", self.inputs["task"], "--records", self.inputs["records"],
                "--seed", self.seed, "--seeds", self.passes, "--out-dir", out]
        if self.balance:
            argv += ["--balance", self.balance]
        if self.endpoint:
            argv += ["--client", "http", "--endpoint", self.endpoint]
        else:
            argv += ["--client", "mock"]
        return argv

    def untraced_round(self, out: Path) -> dict:
        before = self.mock_calls
        code, text = run_cli(self.cli_args(out))
        calls = self.mock_calls - before
        match = _OOC_SUMMARY.search(text)
        failed = int(match.group(2)) if code == 0 and match else self.items
        return {"items": self.items, "failed": failed, "exit": code,
                "digest": _digest_files(out, self.OUTPUTS), "mock_calls": calls}

    def traced_round(self, out: Path, tracer: Tracer) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        inner = HttpChatClient(self.endpoint) if self.endpoint else MockStructuredLm.for_task(self.cfg)
        client = TracedClient(inner, tracer, "chat")
        with tracer.span("metrics.load_records"):
            records_all = load_records(self.inputs["records"])
        failed_records = 0
        rows = []
        for r in range(self.passes):
            pass_rng = np.random.default_rng([self.seed, r])
            records = records_all
            if self.balance:
                with tracer.span("metrics.balanced_subsample"):
                    records = balanced_subsample(records_all, self.balance, pass_rng)
            standard, ooc = [], []
            for idx, rec in enumerate(records):
                with tracer.span("ooc.predict_label", item=rec.record_id):
                    label = predict_label(self.cfg, client, rec.x)
                standard.append(LabeledRecord(rec.record_id, rec.x, rec.s, rec.z, y=rec.y, y_hat=label))
                rng_i = np.random.default_rng([self.seed, r, idx])
                with tracer.span("ooc.ooc_predict", item=rec.record_id) as span:
                    try:
                        result = ooc_predict(self.cfg, client, rec.x, s=rec.s, rng=rng_i)
                    except OocFailed:
                        failed_records += 1
                        span.attrs = {"record_failed": 1}
                        continue
                    span.attrs = {"replicate_failures": result.failures}
                ooc.append(LabeledRecord(rec.record_id, rec.x, rec.s, rec.z, y=rec.y, y_hat=result.label))
            for tag, recs in (("standard", standard), ("ooc", ooc)):
                with tracer.span("cli.metric_rows"):
                    rows += metric_rows(recs, self.cfg.name, tag, ("si_bias", "macro_f1"), 999,
                                        pass_rng, "traced")
            if r == 0:
                with tracer.span("metrics.dump_records"):
                    dump_records(standard, out / "records_standard.jsonl")
                    dump_records(ooc, out / "records_ooc.jsonl")
        with tracer.span("reports.write"):
            write_rows_json(rows, out / "rows.json")
            write_rows_csv(rows, out / "rows.csv")
        return {"items": self.items, "failed": failed_records, "exit": 0,
                "digest": _digest_files(out, self.RECORDS)}


class AuditWorkload:
    """``audit`` with the permutation test; one round is one audit of the log."""

    METRICS = "si_bias,macro_f1,permutation"
    PERMUTATIONS = 999

    def __init__(self, inputs: dict, seed: int, endpoint: str | None):
        self.inputs = inputs
        self.seed = seed

    def setup(self, tracer: Tracer | None) -> None:
        with _maybe(tracer, "metrics.load_records"):
            self.items = len(load_records(self.inputs["records"]))

    def untraced_round(self, out: Path) -> dict:
        code, _text = run_cli(["audit", "--records", self.inputs["records"], "--metrics", self.METRICS,
                            "--permutations", self.PERMUTATIONS, "--seed", self.seed, "--out-dir", out])
        return {"items": self.items, "failed": 0 if code == 0 else self.items, "exit": code,
                "digest": _digest_files(out, ("rows.json", "rows.csv"))}

    def traced_round(self, out: Path, tracer: Tracer) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        with tracer.span("metrics.load_records"):
            records = load_records(self.inputs["records"])
        rng = np.random.default_rng(self.seed)
        with tracer.span("metrics.si_bias"):
            bias = si_bias(records)
        with tracer.span("metrics.macro_f1"):
            f1 = macro_f1(records)
        with tracer.span("metrics.permutation_test"):
            test = ci_permutation_test(records, permutations=self.PERMUTATIONS, rng=rng)
        z_pair = "|".join(sorted({str(r.z) for r in records}))
        rows = [
            ReportRow("predictions", z_pair, "standard", metric, float(value), n=len(records),
                      manifest="traced").validate()
            for metric, value in (("si_bias", bias.value), ("macro_f1", f1),
                                  ("perm_statistic", test.statistic), ("p_value", test.p_value))
        ]
        with tracer.span("reports.write"):
            write_rows_json(rows, out / "rows.json")
            write_rows_csv(rows, out / "rows.csv")
        return {"items": len(records), "failed": 0, "exit": 0,
                "digest": json.dumps([test.statistic, test.p_value])}


class CertifyWorkload:
    """Adjustment verdicts on a DAG family, then exact invariance verdicts.

    One round runs every graph query through ``check-adjustment`` and one
    exact verdict per fixture model. A model verdict builds the model's
    recovery and sampling indexes, the exact augmented law and its largest
    context deviation, which is what a one-off certification costs.
    """

    def __init__(self, inputs: dict, seed: int, endpoint: str | None):
        self.inputs = inputs
        self.queries = inputs["queries"]

    def setup(self, tracer: Tracer | None) -> None:
        for path in sorted({q["graph"] for q in self.queries}):
            with _maybe(tracer, "causal_graph.load_dag"):
                cg.load_dag(path)
        self.models = []
        for path in self.inputs["models"]:
            with _maybe(tracer, "scm.load"):
                model = load_scm(path)
            with _maybe(tracer, "scm.enumerate_joint"):
                enumerate_joint(model)
            self.models.append(model)
        self.items = len(self.queries) + len(self.models)

    @staticmethod
    def _query_argv(q: dict, out: Path) -> list:
        argv = ["check-adjustment", "--graph", q["graph"], "--treatment", q["treatment"],
                "--outcome", q["outcome"], "--out-dir", out]
        for c in q["candidate"]:
            argv += ["--candidate", c]
        if "minimal_max_size" in q:
            argv += ["--minimal", "--max-size", q["minimal_max_size"]]
        return argv

    def untraced_round(self, out: Path) -> dict:
        """Every query through the command line, then every model verdict."""
        h = hashlib.sha256()
        failed = open_paths = 0
        verdicts, deviations, item_s = [], [], []
        for q in self.queries:
            start = time.perf_counter()
            code, text = run_cli(self._query_argv(q, out))
            item_s.append(time.perf_counter() - start)
            failed += code != 0
            h.update(text.encode())
            verdicts.append(text.split("\n", 1)[0].endswith(": VALID"))
            open_paths += text.count("open non-causal path:")
        for model in self.models:
            start = time.perf_counter()
            deviations.append(self._verdict(model, None))
            item_s.append(time.perf_counter() - start)
        h.update(json.dumps(deviations).encode())
        return {"items": self.items, "failed": failed, "exit": 0, "digest": h.hexdigest(),
                "verdicts": hashlib.sha256(json.dumps(verdicts).encode()).hexdigest(),
                "queries": len(self.queries), "item_s": item_s,
                "open_paths": open_paths, "max_deviation": max(deviations)}

    def _verdict(self, model, tracer: Tracer | None) -> float:
        with _maybe(tracer, "scm.index_build", worlds=model.n_worlds()):
            recoverer = ExactRecoverer(model)
            sampler = ExactConditionalSampler(model)
        ap = AugmentedPredictor(recoverer=recoverer, sampler=sampler, base=ctx_reader,
                                contexts=tuple(model.z_domain.values))
        with _maybe(tracer, "augment.exact_law", worlds=model.n_worlds()):
            table = exact_augmented_distribution(model, ap)
        with _maybe(tracer, "augment.max_deviation"):
            return max_context_deviation(table)

    def traced_round(self, out: Path, tracer: Tracer) -> dict:
        open_paths = 0
        verdicts = []
        t0 = time.perf_counter()
        for q in self.queries:
            with tracer.span("causal_graph.query", item=f"{q['graph']}:{q['treatment']}-{q['outcome']}"):
                with tracer.span("causal_graph.load_dag"):
                    g = cg.load_dag(q["graph"])
                with tracer.span("causal_graph.is_adjustment_set"):
                    report = cg.is_adjustment_set(g, q["treatment"], q["outcome"], q["candidate"])
                open_paths += len(report.open_path_names)
                verdicts.append(report.valid)
                if "minimal_max_size" in q:
                    with tracer.span("causal_graph.minimal_sets"):
                        cg.minimal_adjustment_sets(g, q["treatment"], q["outcome"],
                                                   max_size=q["minimal_max_size"])
        t1 = time.perf_counter()
        deviations = [self._verdict(model, tracer) for model in self.models]
        return {"items": self.items, "failed": 0, "exit": 0,
                "digest": hashlib.sha256(json.dumps(verdicts).encode()).hexdigest(),
                "graph_s": t1 - t0, "open_paths": open_paths, "max_deviation": max(deviations)}


WORKLOADS = {
    "ooc_service": OocWorkload,
    "ooc_local": OocWorkload,
    "audit": AuditWorkload,
    "certify": CertifyWorkload,
}


@contextlib.contextmanager
def _maybe(tracer: Tracer | None, name: str, **attrs):
    if tracer is None:
        yield None
    else:
        with tracer.span(name, **attrs) as span:
            yield span


def _rounds(fn, work: Path, tag: str, seconds: float, keep_first: bool) -> list[dict]:
    """Repeat ``fn(out_dir)`` for about ``seconds``; at least two rounds.

    The last round starts only if at least half of it fits in the time left,
    so the measured time lies within half a round of ``seconds``.

    Output directories are removed after each round, outside the timed part,
    except the first one when ``keep_first`` is set.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        out = work / f"{tag}{len(rounds):03d}"
        cpu0, wall0, mono0 = time.process_time(), time.perf_counter(), time.monotonic()
        result = fn(out)
        result["wall"] = time.perf_counter() - wall0
        result["cpu"] = time.process_time() - cpu0
        result["window"] = [mono0, time.monotonic()]
        rounds.append(result)
        if not (keep_first and len(rounds) == 1):
            shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(rounds) >= 2 and elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            return rounds


def layer_metrics(tracer: Tracer, traced: list[dict]) -> dict:
    """Per-layer figures from the spans, per traced round where they are sums."""
    n = max(1, len(traced))
    spans = tracer.spans
    chat = [s for s in spans if s.name == "chat"]
    roles = {}
    for s in chat:
        roles[s.attrs["role"]] = roles.get(s.attrs["role"], 0) + 1
    items = sum(r["items"] for r in traced) or 1
    ooc_spans = [s for s in spans if s.name == "ooc.ooc_predict"]
    worlds = sum(s.attrs["worlds"] for s in spans if s.name == "augment.exact_law")
    law_s = tracer.total("augment.exact_law")
    perm_s = tracer.total("metrics.permutation_test")
    out = {
        "chat.requests": len(chat) / n,
        "chat.unique_share": sum(r["unique_share"] for r in traced) / n,
        "chat.call_mean_ms": 1e3 * sum(s.seconds for s in chat) / len(chat) if chat else 0.0,
        **{f"chat.requests.{role}": roles.get(role, 0) / n
           for role in ("obfuscate", "add", "label", "stratifier", "reminder")},
        "chat.call_p50_ms": percentile([s.seconds * 1e3 for s in chat], 50),
        "chat.call_p95_ms": percentile([s.seconds * 1e3 for s in chat], 95),
        "ooc.predict_label_s": tracer.total("ooc.predict_label") / n,
        "ooc.ooc_predict_s": tracer.total("ooc.ooc_predict") / n,
        "ooc.self_s": (tracer.self_seconds("ooc.predict_label")
                       + tracer.self_seconds("ooc.ooc_predict")) / n,
        "ooc.requests_per_record": len(chat) / items if chat else 0.0,
        "ooc.replicate_failures": sum((s.attrs or {}).get("replicate_failures", 0) for s in ooc_spans) / n,
        "ooc.record_failures": sum((s.attrs or {}).get("record_failed", 0) for s in ooc_spans) / n,
        "metrics.load_records_s": tracer.total("metrics.load_records") / n,
        "metrics.balanced_subsample_s": tracer.total("metrics.balanced_subsample") / n,
        "metrics.si_bias_s": tracer.total("metrics.si_bias") / n,
        "metrics.macro_f1_s": tracer.total("metrics.macro_f1") / n,
        "metrics.permutation_test_s": perm_s / n,
        "metrics.permutation_ns_per_record_perm": (
            1e9 * perm_s / (items * AuditWorkload.PERMUTATIONS) if perm_s else 0.0),
        "metrics.dump_records_s": tracer.total("metrics.dump_records") / n,
        "reports.write_s": tracer.total("reports.write") / n,
        "cli.metric_rows_s": tracer.total("cli.metric_rows") / n,
        "scm.load_s": tracer.total("scm.load"),
        "scm.enumerate_joint_s": tracer.total("scm.enumerate_joint"),
        "scm.index_build_s": tracer.total("scm.index_build") / n,
        "scm.worlds": worlds / n,
        "augment.exact_law_s": law_s / n,
        "augment.worlds_per_s": worlds / law_s if law_s else 0.0,
        "augment.max_deviation": max((r.get("max_deviation", 0.0) for r in traced), default=0.0),
        "causal_graph.load_dag_s": tracer.total("causal_graph.load_dag") / n,
        "causal_graph.is_adjustment_set_s": tracer.total("causal_graph.is_adjustment_set") / n,
        "causal_graph.minimal_sets_s": tracer.total("causal_graph.minimal_sets") / n,
        "causal_graph.open_paths_named": sum(r.get("open_paths", 0) for r in traced) / n,
    }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, help="JSON file written by run.py")
    parser.add_argument("--work", required=True, help="working directory for round outputs")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, required=True, help="monotonic time of spawn")
    parser.add_argument("--endpoint", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))[args.workload]
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](inputs, args.seed, args.endpoint)
    workload.setup(tracer)
    result = {"setup_s": time.monotonic() - args.t_spawn}
    if not args.setup_only:
        work = Path(args.work)
        share = args.seconds / 2 if args.trace else args.seconds
        result["rounds"] = _rounds(workload.untraced_round, work, "round", share, keep_first=True)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["kept"] = str(work / "round000")
        if args.trace:
            def traced_round(out: Path) -> dict:
                first = len(tracer.spans)
                done = workload.traced_round(out, tracer)
                digests = [s.attrs["digest"] for s in tracer.spans[first:] if s.name == "chat"]
                done["unique_share"] = len(set(digests)) / len(digests) if digests else 0.0
                return done

            traced = _rounds(traced_round, work, "traced", share, keep_first=False)
            result["traced_rounds"] = traced
            result["layers"] = layer_metrics(tracer, traced)
            if isinstance(workload, OocWorkload):
                result["cli_records_digest"] = _digest_files(work / "round000", OocWorkload.RECORDS)
            if args.spans:
                tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
