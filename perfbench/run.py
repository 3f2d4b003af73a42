"""Offline benchmark for stratinv: one workload, one seed, one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload ooc_service --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from the seed, measures set-up time
over several fresh stratinv processes, then runs the workload for about
``--seconds`` in one more stratinv process (``worker.py``). It checks the
outputs, prints every metric by name and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` half of the time runs
traced and the metrics are the per-layer ones. Exit code 1 means a check
failed; 2 means the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SERVICE = HERE / "service.py"
SETUP_SAMPLES = 7
SERVICE_DELAY_S = 0.02
RUN_TIMEOUT_S = 170

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

# Metric names, units and workload reasons live in BENCHMARK.json only.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

# End-to-end figures that exist on some workloads only. They are printed on
# every run and reported among the per-layer metrics of a traced run.
WORKLOAD_FIGURES = (
    ("service_calls_per_record", "count"), ("graph_checks_per_s", "1/s"),
    ("graph_check_p50_ms", "ms"), ("graph_check_p95_ms", "ms"), ("model_checks_per_s", "1/s"),
    ("error_rate", "ratio"),
)


def make_inputs(workload: str, seed: int, out: Path) -> dict:
    import gen

    if workload == "ooc_service":
        return {**gen.demo_records(seed, out, 1600), "balance": 24}
    if workload == "ooc_local":
        return {**gen.unique_tail_records(seed, out, 400), "passes": 2}
    if workload == "audit":
        return gen.prediction_log(seed, out, 50_000)
    if workload == "certify":
        return {**gen.dag_family(seed, out, n_graphs=40, queries_per_graph=6, minimal_every=2),
                **gen.fixture_models(seed, out, factors=(4, 5, 6, 7, 8, 9, 10))}
    raise ValueError(workload)


class Service:
    """The simulated chat service process; its log arrives when it stops."""

    def __init__(self, task: str, delay: float, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVICE), "--task", task, "--delay", str(delay)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("simulated service did not start (is a loopback port free?)")
        self.endpoint = f"http://127.0.0.1:{json.loads(line)['port']}"

    def stop(self) -> list[dict]:
        """Close the service's input, read its request log, wait for it."""
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return []
        lines = [ln for ln in out.splitlines() if ln.startswith('{"log"')]
        return json.loads(lines[-1])["log"] if lines else []


def run_worker(argv: list[str], env: dict, timeout: float) -> dict:
    """Start one stratinv process and return the result it wrote."""
    result = Path(argv[argv.index("--result") + 1])
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv, "--t-spawn", repr(t_spawn)],
                            env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited {code}")
    return json.loads(result.read_text(encoding="utf-8"))


def _in(window, entry) -> bool:
    return window[0] <= entry["arrival"] <= window[1]


def service_figures(log: list[dict], rounds: list[dict], traced: list[dict]) -> dict:
    """Requests, repeats and concurrency seen by the service, per round."""
    untraced = [[e for e in log if _in(r["window"], e)] for r in rounds]
    seen = [e for reqs in untraced for e in reqs]
    in_traced = [e for e in log if any(_in(r["window"], e) for r in traced)]
    busy = [e["finish"] - e["arrival"] for e in in_traced]
    return {
        "requests": len(seen),
        "unique_share": statistics.mean(
            len({e["digest"] for e in reqs}) / len(reqs) for reqs in untraced if reqs
        ) if seen else 0.0,
        "in_flight_mean": statistics.mean(e["in_flight"] for e in seen) if seen else 0.0,
        "in_flight_max": max((e["in_flight"] for e in seen), default=0),
        "traced_wait_s": sum(busy),
        "traced_service_ms": 1e3 * statistics.mean(busy) if busy else 0.0,
    }


def summarize(workload: str, rounds: list[dict], traced: list[dict], result: dict,
              setups: list[float], log: list[dict]) -> dict:
    """Every figure of the run: end-to-end, workload-specific and per-layer."""
    from tracing import percentile

    items = sum(r["items"] for r in rounds)
    fig = {
        "setup_s": statistics.median(setups),
        "records_per_s": items / sum(r["wall"] for r in rounds),
        "cpu_ms_per_record": 1e3 * sum(r["cpu"] for r in rounds) / items,
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": sum(r["failed"] for r in rounds) / items,
        "service_calls_per_record": 0.0, "graph_checks_per_s": 0.0, "graph_check_p50_ms": 0.0,
        "graph_check_p95_ms": 0.0, "model_checks_per_s": 0.0,
    }
    svc = service_figures(log, rounds, traced)
    if workload == "ooc_service":
        fig["service_calls_per_record"] = svc["requests"] / items
    elif workload == "ooc_local":
        fig["service_calls_per_record"] = sum(r["mock_calls"] for r in rounds) / items
    elif workload == "certify":
        queries = rounds[0]["queries"]
        graph_s = [s for r in rounds for s in r["item_s"][:queries]]
        model_s = [s for r in rounds for s in r["item_s"][queries:]]
        fig["graph_checks_per_s"] = len(graph_s) / sum(graph_s)
        fig["graph_check_p50_ms"] = 1e3 * percentile(graph_s, 50)
        fig["graph_check_p95_ms"] = 1e3 * percentile(graph_s, 95)
        fig["graph_check_samples"] = len(graph_s)
        fig["model_checks_per_s"] = len(model_s) / sum(model_s)
        fig["open_paths_named"] = rounds[0]["open_paths"]
    fig["rounds"] = len(rounds)
    fig["unique_share"] = svc["unique_share"]
    if not traced:
        return fig

    layers = dict(result["layers"])
    rate_key = "graph_checks_per_s" if workload == "certify" else "records_per_s"
    if workload == "certify":
        traced_rate = queries * len(traced) / sum(t["graph_s"] for t in traced)
    else:
        traced_rate = sum(t["items"] for t in traced) / sum(t["wall"] for t in traced)
    layers.update({
        "mock.complete_ms": 0.0,
        "chat.wait_s": svc["traced_wait_s"] / len(traced),
        "chat.wait_share": svc["traced_wait_s"] / sum(t["wall"] for t in traced),
        "chat.in_flight_mean": svc["in_flight_mean"],
        "chat.in_flight_max": svc["in_flight_max"],
        "chat.client_overhead_ms": 0.0,
        "trace.untraced_rate": fig[rate_key],
        "trace.traced_rate": traced_rate,
        "trace.overhead_share": 1.0 - traced_rate / fig[rate_key],
    })
    if workload == "ooc_service":
        layers["chat.unique_share"] = svc["unique_share"]
        layers["chat.client_overhead_ms"] = layers["chat.call_mean_ms"] - svc["traced_service_ms"]
    elif workload == "ooc_local":
        # The pipeline calls the mock directly, so a chat call is a mock call.
        layers["mock.complete_ms"] = layers["chat.call_mean_ms"]
    for name, _unit in WORKLOAD_FIGURES:
        layers[name] = fig[name]
    fig["layers"] = {name: layers[name] for name, _unit in PER_LAYER}
    fig["traced_round_s"] = sum(t["wall"] for t in traced) / len(traced)
    return fig


def stress_line(workload: str, layers: dict, round_s: float) -> str:
    """Whether a traced run loads the layer its workload was chosen for."""
    if workload == "ooc_service":
        ok, detail = layers["chat.wait_share"] >= 0.8, f"chat.wait_share {layers['chat.wait_share']:.3f} >= 0.8"
    elif workload == "ooc_local":
        ok, detail = layers["chat.wait_share"] < 0.05, f"chat.wait_share {layers['chat.wait_share']:.3f} about 0"
    elif workload == "audit":
        times = {name: value for name, value in layers.items() if name.endswith("_s")}
        top = max(times, key=times.get)
        ok, detail = top == "metrics.permutation_test_s", f"largest layer time is {top}"
    else:
        busy = sum(layers[name] for name in (
            "causal_graph.load_dag_s", "causal_graph.is_adjustment_set_s",
            "causal_graph.minimal_sets_s", "augment.exact_law_s"))
        ok, detail = busy > 0.5 * round_s, f"causal_graph + augment take {busy / round_s:.0%} of a round"
    return f"  stress: {'yes' if ok else 'NO'} ({detail})"


def report(args, inputs: dict, fig: dict, attempted: int, failed: int, problems: list[str]) -> None:
    """Human-readable lines: workload, inputs, every figure with its unit."""
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {WHY[args.workload]}")
    if args.workload.startswith("ooc_"):
        line = f"  inputs: {fig['rounds']} rounds of {attempted // fig['rounds']} records"
        if args.workload == "ooc_service":
            line += f"; repeated-request share at the service {1 - fig['unique_share']:.3f}"
        print(line)
    elif args.workload == "audit":
        print(f"  inputs: {inputs['n']} records, {inputs['strata']} strata sized "
              f"{inputs['stratum_size_min']}..{inputs['stratum_size_max']} "
              f"(spread {inputs['stratum_size_max'] / inputs['stratum_size_min']:.1f}x), "
              f"{inputs['planted_strata']} with a planted context effect; {fig['rounds']} rounds")
    else:
        print(f"  inputs: {inputs['graphs']} graphs, {len(inputs['queries'])} queries "
              f"({inputs['skeleton_paths']} treatment-outcome skeleton paths, "
              f"{fig['open_paths_named']} open paths named), models of {inputs['worlds']} worlds; "
              f"{fig['rounds']} rounds")
    notes = {"setup_s": f"median of {SETUP_SAMPLES} set-ups",
             "records_per_s": "over all rounds; on certify, graph and model verdicts",
             "graph_check_p95_ms": f"{fig.get('graph_check_samples', 0)} samples"}
    for name, unit in END_TO_END + WORKLOAD_FIGURES:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {fig[name]:.6g} {unit}{note}")
    print(f"  attempted {attempted}, failed {failed}")
    if "layers" in fig:
        for name, unit in PER_LAYER:
            print(f"  [layer] {name} = {fig['layers'][name]:.6g} {unit}")
        print(stress_line(args.workload, fig["layers"], fig["traced_round_s"]))
    print("  check: PASS" if not problems else "  check: FAIL: " + "; ".join(problems))


def _rows(path: Path) -> dict:
    return {(r["method"], r["metric"]): r["value"]
            for r in json.loads(path.read_text(encoding="utf-8"))}


def check_ooc(inputs: dict, seed: int, kept: Path, work: Path) -> list[str]:
    """Bias figures, and byte-identity with an in-process mock run."""
    from worker import OocWorkload, run_cli

    problems = []
    rows = _rows(kept / "rows.json")
    if rows.get(("standard", "si_bias")) != 1.0:
        problems.append(f"standard si_bias {rows.get(('standard', 'si_bias'))} != 1.0")
    if rows.get(("ooc", "si_bias")) != 0.0:
        problems.append(f"ooc si_bias {rows.get(('ooc', 'si_bias'))} != 0.0")
    ref = work / "reference"
    code, _text = run_cli(OocWorkload(inputs, seed, endpoint=None).cli_args(ref))
    if code != 0:
        problems.append(f"reference mock run exited {code}")
    for name in OocWorkload.RECORDS + ("traces.jsonl",):
        if not (ref / name).exists() or (ref / name).read_bytes() != (kept / name).read_bytes():
            problems.append(f"{name} differs from an in-process --client mock run")
    return problems


def check_audit(inputs: dict, seed: int, kept: Path) -> list[str]:
    """The CLI's statistic and p-value equal a direct call with the same RNG."""
    import numpy as np
    from stratinv.metrics import ci_permutation_test, load_records
    from worker import AuditWorkload

    rows = _rows(kept / "rows.json")
    direct = ci_permutation_test(load_records(inputs["records"]),
                                 permutations=AuditWorkload.PERMUTATIONS,
                                 rng=np.random.default_rng(seed))
    problems = []
    if rows.get(("standard", "perm_statistic")) != direct.statistic:
        problems.append(f"statistic {rows.get(('standard', 'perm_statistic'))} != {direct.statistic}")
    if rows.get(("standard", "p_value")) != direct.p_value:
        problems.append(f"p-value {rows.get(('standard', 'p_value'))} != {direct.p_value}")
    return problems


def check_certify(rounds: list[dict], work: Path) -> list[str]:
    """Reference graph verdicts and exact invariance of every model."""
    import gen
    from worker import run_cli

    problems = []
    expected = {"anticausal": "{Y}", "confounded": "{}", "selection": "{Y}"}
    for name, want in expected.items():
        code, text = run_cli(["check-adjustment", "--graph", gen.REFERENCE_GRAPHS[name],
                              "--treatment", "Z", "--outcome", "X", "--minimal",
                              "--out-dir", work / "reference"])
        if code != 0 or f"minimal valid sets: {want}\n" not in text:
            problems.append(f"{name} graph: expected minimal sets {want}")
    worst = max(r["max_deviation"] for r in rounds)
    if worst > 1e-12:
        problems.append(f"max_deviation {worst:.3e} > 1e-12")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "stratinv" / "__init__.py").is_file():
        print(f"run.py: no stratinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    runs = ROOT / ".perfbench_runs"
    work = runs / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "STRATINV_API_TOKEN"}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    # requests looks for credentials in ~/.netrc unless NETRC names a file.
    env["NETRC"] = str(work / "no-netrc")
    service = None
    log: list[dict] = []
    try:
        inputs = make_inputs(args.workload, args.seed, work / "inputs")
        inputs_file = work / "inputs.json"
        inputs_file.write_text(json.dumps({args.workload: inputs}), encoding="utf-8")
        base = ["--workload", args.workload, "--inputs", str(inputs_file), "--work", str(work),
                "--seed", str(args.seed)]
        if args.workload == "ooc_service":
            service = Service(inputs["task"], SERVICE_DELAY_S, env)
            base += ["--endpoint", service.endpoint]

        def setup_sample(i: int) -> float:
            argv = base + ["--setup-only", "--result", str(work / f"setup{i}.json")]
            return run_worker(argv, env, 60)["setup_s"]

        # Set-up samples come before and after the timed run, so a stretch of
        # slow machine time shifts fewer of them.
        setups = [setup_sample(i) for i in range(SETUP_SAMPLES // 2)]
        spans = runs / f"spans-{args.workload}.jsonl"
        timeout = RUN_TIMEOUT_S - (time.monotonic() - started)
        result = run_worker(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                    "--result", str(work / "result.json"), "--spans", str(spans)],
                            env, timeout)
        shutil.copyfile(work / "result.json", runs / f"result-{args.workload}.json")
        if service is not None:
            log = service.stop()
            service = None
        setups.append(result["setup_s"])
        setups += [setup_sample(i) for i in range(len(setups), SETUP_SAMPLES)]
        rounds = result["rounds"]
        kept = Path(result["kept"])

        problems = []
        if any(r["exit"] != 0 for r in rounds):
            problems.append("a command exited non-zero")
        if len({r["digest"] for r in rounds}) != 1:
            problems.append("output digest differs between repeats of the same inputs")
        if not problems:
            if args.workload.startswith("ooc_"):
                problems += check_ooc(inputs, args.seed, kept, work)
            elif args.workload == "audit":
                problems += check_audit(inputs, args.seed, kept)
            else:
                problems += check_certify(rounds, work)
        traced = result.get("traced_rounds", [])
        if traced:
            if args.workload == "audit":
                rows = _rows(kept / "rows.json")
                want = json.dumps([rows[("standard", "perm_statistic")], rows[("standard", "p_value")]])
            elif args.workload == "certify":
                want = rounds[0]["verdicts"]
            else:
                want = result["cli_records_digest"]
            if any(t["digest"] != want for t in traced):
                problems.append("traced pass outputs differ from the command-line run")
            if any(t["failed"] for t in traced):
                problems.append("traced pass dropped items")

        figures = summarize(args.workload, rounds, traced, result, setups, log)
        attempted = sum(r["items"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        report(args, inputs, figures, attempted, failed, problems)
        if args.trace:
            metrics = {name: {"value": figures["layers"][name], "unit": unit}
                       for name, unit in PER_LAYER}
        else:
            metrics = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END}
        print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if not problems else 1
    finally:
        if service is not None:
            service.stop()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the run could not be made: report it and print no result
        traceback.print_exc()
        sys.exit(2)
