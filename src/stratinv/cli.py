"""Command-line surface: simulate, check-adjustment, audit, ooc-run, report.

Every command that writes artifacts stamps them with the digest of a run
manifest (command, arguments, seed, package version, input-file digests), so
any report row can be traced back to the exact inputs that produced it.
Offline commands are bit-reproducible from (inputs, seed); only the manifest
file itself carries a timestamp, which is excluded from the digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import closing
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import causal_graph as cg
from ._version import __version__
from .chat import CachingChatClient, ChatClient, HttpChatClient
from .errors import OocFailed, ServiceError, StratinvError
from .metrics import (
    LabeledRecord,
    balanced_subsample,
    ci_permutation_test,
    dump_records,
    load_records,
    macro_f1,
    si_bias,
)
from .mock import MockStructuredLm
from .ooc import TaskConfig, load_task, ooc_predict_many
from .reports import (
    ReportRow,
    delta_vs_baseline,
    load_rows,
    write_rows_csv,
    write_rows_json,
)
from .scm import load_scm, observed, sample_world

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SERVICE = 3

_METRIC_CHOICES = ("si_bias", "macro_f1", "permutation")

# Records whose calls ooc-run plans and sends together, one batch per stage.
# Large enough to keep max_in_flight requests busy through each stage, small
# enough that a stage's rendered prompts stay a few hundred kilobytes.
STAGE_RECORDS = 128


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------

def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    arguments: Mapping[str, Any]
    seed: int | None
    package_version: str
    input_digests: Mapping[str, str]

    def core(self) -> dict:
        return {
            "command": self.command,
            "arguments": dict(self.arguments),
            "seed": self.seed,
            "package_version": self.package_version,
            "input_digests": dict(self.input_digests),
        }

    def digest(self) -> str:
        doc = json.dumps(self.core(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def build_manifest(
    command: str, arguments: Mapping[str, Any], seed: int | None, inputs: Sequence
) -> RunManifest:
    digests = {str(p): file_digest(p) for p in inputs}
    return RunManifest(command, dict(arguments), seed, __version__, digests)


def write_manifest(manifest: RunManifest, out_dir: Path) -> str:
    """Write manifest.json and return the digest embedded in artifacts."""
    digest = manifest.digest()
    doc = manifest.core()
    doc["digest"] = digest
    doc["created_at"] = datetime.now(timezone.utc).isoformat()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return digest


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_path(args, alias: str, what: str) -> str:
    value = getattr(args, alias, None) or args.config
    if not value:
        raise ValueError(f"need --config (or --{alias}) pointing at {what}")
    return value


# ---------------------------------------------------------------------------
# Shared metric-row builder (audit and ooc-run)
# ---------------------------------------------------------------------------

def _z_pair(records) -> str:
    return "|".join(str(z) for z in sorted({str(r.z) for r in records}))


def metric_rows(
    records: Sequence[LabeledRecord],
    dataset: str,
    method: str,
    metrics: Sequence[str],
    permutations: int,
    rng: np.random.Generator,
    manifest_digest: str,
    z_pair: str | None = None,
) -> list[ReportRow]:
    """Rows for ``records``; ``z_pair`` defaults to the contexts they hold."""
    rows: list[ReportRow] = []
    z_pair = z_pair or _z_pair(records)

    def add(metric, value, dispersion=None, n=None):
        rows.append(
            ReportRow(
                dataset=dataset, z_pair=z_pair, method=method, metric=metric,
                value=float(value), dispersion=dispersion, n=n,
                manifest=manifest_digest,
            ).validate()
        )

    if "si_bias" in metrics:
        rep = si_bias(records)
        add("si_bias", rep.value, n=rep.n)
    if "macro_f1" in metrics:
        add("macro_f1", macro_f1(records), n=len(records))
    if "permutation" in metrics:
        rep = ci_permutation_test(records, permutations=permutations, rng=rng)
        add("perm_statistic", rep.statistic, n=len(records))
        add("p_value", rep.p_value, n=len(records))
    return rows


def _print_rows(rows: Sequence[ReportRow]) -> None:
    for r in rows:
        extra = "" if r.dispersion is None else f" +/- {r.dispersion:.6g}"
        print(f"  {r.dataset} [{r.method}] {r.metric} = {r.value:.6g}{extra} (n={r.n})")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    scm_path = _config_path(args, "scm", "an SCM table file")
    scm = load_scm(scm_path)
    rng = np.random.default_rng(args.seed)
    records = []
    for i in range(args.n):
        world = sample_world(scm, rng)
        x, y, s = observed(scm, world)
        records.append(LabeledRecord(f"r{i:06d}", x=x, s=s, z=world.z, y=y))
    out = _out_dir(args)
    manifest = build_manifest(
        "simulate", {"scm": str(scm_path), "n": args.n}, args.seed, [scm_path]
    )
    digest = write_manifest(manifest, out)
    dump_records(records, out / "records.jsonl")
    print(
        f"simulate: {len(records)} records -> {out / 'records.jsonl'} "
        f"(manifest {digest[:12]})"
    )
    return EXIT_OK


def _format_set(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def cmd_check_adjustment(args) -> int:
    graph_path = _config_path(args, "graph", "a graph file")
    g = cg.load_dag(graph_path)
    candidate = tuple(
        name
        for chunk in (args.candidate or [])
        for name in chunk.split(",")
        if name
    )
    report = cg.is_adjustment_set(g, args.treatment, args.outcome, candidate)
    verdict = "VALID" if report.valid else "INVALID"
    print(
        f"candidate {_format_set(candidate)} for treatment {args.treatment} "
        f"-> outcome {args.outcome}: {verdict}"
    )
    for reason in report.reasons:
        print(f"  - {reason}")
    if args.minimal:
        sets = cg.minimal_adjustment_sets(
            g, args.treatment, args.outcome, max_size=args.max_size
        )
        if sets:
            print(
                "minimal valid sets: "
                + "; ".join(_format_set(s) for s in sets)
            )
        else:
            print(f"minimal valid sets: none up to size {args.max_size}")
    if args.out_dir:
        out = _out_dir(args)
        manifest = build_manifest(
            "check-adjustment",
            {
                "graph": str(graph_path),
                "treatment": args.treatment,
                "outcome": args.outcome,
                "candidate": sorted(candidate),
            },
            args.seed,
            [graph_path],
        )
        digest = write_manifest(manifest, out)
        (out / "verdict.json").write_text(
            json.dumps(
                {
                    "treatment": report.treatment,
                    "outcome": report.outcome,
                    "candidate": sorted(report.candidate),
                    "valid": report.valid,
                    "reasons": list(report.reasons),
                    "open_paths": list(report.open_path_names),
                    "manifest": digest,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
    return EXIT_OK


def _parse_metrics(raw: str) -> tuple[str, ...]:
    metrics = tuple(m for m in raw.split(",") if m)
    unknown = set(metrics) - set(_METRIC_CHOICES)
    if unknown:
        raise ValueError(
            f"unknown metrics {sorted(unknown)}; choose from {_METRIC_CHOICES}"
        )
    return metrics


def cmd_audit(args) -> int:
    records = load_records(args.records)
    metrics = _parse_metrics(args.metrics)
    rng = np.random.default_rng(args.seed)
    if args.balance:
        records = balanced_subsample(records, args.balance, rng)
    out = _out_dir(args)
    manifest = build_manifest(
        "audit",
        {
            "records": str(args.records),
            "metrics": list(metrics),
            "balance": args.balance,
            "permutations": args.permutations,
            "dataset": args.dataset,
            "method": args.method,
        },
        args.seed,
        [args.records],
    )
    digest = write_manifest(manifest, out)
    dataset = args.dataset or Path(args.records).stem
    rows = metric_rows(
        records, dataset, args.method, metrics, args.permutations, rng, digest
    )
    write_rows_json(rows, out / "rows.json")
    write_rows_csv(rows, out / "rows.csv")
    print(f"audit: {len(records)} records (manifest {digest[:12]})")
    _print_rows(rows)
    return EXIT_OK


def _make_client(args, cfg: TaskConfig) -> ChatClient:
    if args.client == "mock":
        client: ChatClient = MockStructuredLm.for_task(cfg)
    else:
        if not args.endpoint:
            raise ValueError("--client http requires --endpoint")
        client = HttpChatClient(args.endpoint, max_in_flight=cfg.max_in_flight)
    if args.cache:
        client = CachingChatClient(client, args.cache)
    return client


def _trace_doc(record, result) -> dict:
    return {
        "record_id": record.record_id,
        "s": record.s,
        "z": record.z,
        "stratum": result.stratum,
        "stratum_source": result.stratum_source,
        "label": result.label,
        "failures": result.failures,
        "notes": list(result.notes),
        "replicates": [
            {
                "j": rep.j,
                "obfuscate_instruction": rep.obfuscate_instruction,
                "x_minus": rep.x_minus,
                "z_plus": rep.z_plus,
                "add_instruction": rep.add_instruction,
                "x_plus": rep.x_plus,
                "label": rep.label,
            }
            for rep in result.replicates
        ],
    }


def _ooc_outcomes(cfg, client, records, seed, r, single_call):
    """Staged predictions for a pass, ``STAGE_RECORDS`` records per batch."""
    for lo in range(0, len(records), STAGE_RECORDS):
        yield from ooc_predict_many(
            cfg, client,
            (
                (record.x, record.s, np.random.default_rng([seed, r, idx]))
                for idx, record in enumerate(
                    records[lo:lo + STAGE_RECORDS], start=lo
                )
            ),
            single_call=single_call, standard=True,
        )


def _ooc_pass(cfg, client, records, seed, r, single_call, trace_sink, failed_sink):
    """One full standard+OOC pass over the records with per-record rng streams.

    A record whose standard label or OOC prediction fails is dropped from that
    arm only and listed in ``failed_sink``.
    """
    outcomes = _ooc_outcomes(cfg, client, records, seed, r, single_call)
    standard_records, ooc_records = [], []
    for record, (std_label, result) in zip(records, outcomes):
        if isinstance(std_label, StratinvError):
            failed_sink.append((record.record_id, f"standard label: {std_label}"))
        else:
            standard_records.append(
                LabeledRecord(record.record_id, record.x, record.s, record.z,
                              y=record.y, y_hat=std_label)
            )
        if isinstance(result, OocFailed):
            failed_sink.append((record.record_id, str(result)))
            continue
        if trace_sink is not None:
            trace_sink.append(_trace_doc(record, result))
        ooc_records.append(
            LabeledRecord(record.record_id, record.x, record.s, record.z,
                          y=record.y, y_hat=result.label)
        )
    return standard_records, ooc_records


def cmd_ooc_run(args) -> int:
    task_path = _config_path(args, "task", "a task file")
    cfg = load_task(task_path)
    records_all = load_records(args.records)
    metrics = _parse_metrics(args.metrics)
    out = _out_dir(args)
    manifest = build_manifest(
        "ooc-run",
        {
            "task": str(task_path),
            "records": str(args.records),
            "client": args.client,
            "balance": args.balance,
            "metrics": list(metrics),
            "seeds": args.seeds,
            "single_call": bool(args.single_call),
        },
        args.seed,
        [task_path, args.records],
    )
    digest = write_manifest(manifest, out)

    per_seed: dict[tuple, list[float]] = {}
    ordered_keys: list[tuple] = []
    sizes: dict[tuple, int] = {}
    failed: list[tuple[str, str]] = []
    traces: list[dict] | None = None
    with closing(_make_client(args, cfg)) as client:
        for r in range(args.seeds):
            pass_rng = np.random.default_rng([args.seed, r])
            records = records_all
            if args.balance:
                records = balanced_subsample(records_all, args.balance, pass_rng)
            trace_sink = [] if r == 0 else None
            standard_records, ooc_records = _ooc_pass(
                cfg, client, records, args.seed, r, args.single_call,
                trace_sink, failed,
            )
            if trace_sink is not None:
                traces = trace_sink
            method = "single_call" if args.single_call else "ooc"
            arms = (("standard", standard_records), (method, ooc_records))
            first_error = failed[0][1] if failed else "none recorded"
            for tag, recs in arms:
                if not recs:
                    raise StratinvError(
                        f"every record failed the {tag} arm; "
                        f"first error: {first_error}"
                    )
                # An arm that lost a context reads as unbiased, so refuse it.
                lost = {r.z for r in records} - {r.z for r in recs}
                if lost and {"si_bias", "permutation"} & set(metrics):
                    raise StratinvError(
                        f"the {tag} arm lost every record with context "
                        f"{', '.join(sorted(map(str, lost)))}, so its bias "
                        f"is not measurable; first error: {first_error}"
                    )
            if r == 0:
                dump_records(standard_records, out / "records_standard.jsonl")
                dump_records(ooc_records, out / "records_ooc.jsonl")
            # Both arms' rows name the contexts attempted, so they stay
            # comparable when failures empty a context in one arm.
            z_pair = _z_pair(records)
            for tag, recs in arms:
                rows_r = metric_rows(
                    recs, cfg.name, tag, metrics, args.permutations, pass_rng,
                    digest, z_pair,
                )
                rows_r.append(ReportRow(
                    dataset=cfg.name, z_pair=z_pair, method=tag,
                    metric="failure_rate",
                    value=(len(records) - len(recs)) / len(records),
                    n=len(records), manifest=digest,
                ).validate())
                for row in rows_r:
                    key = (row.dataset, row.z_pair, tag, row.metric)
                    if key not in per_seed:
                        per_seed[key] = []
                        ordered_keys.append(key)
                    per_seed[key].append(row.value)
                    sizes[key] = row.n

    rows = []
    for key in ordered_keys:
        values = per_seed[key]
        dataset, z_pair, method_tag, metric = key
        if metric == "failure_rate" and not failed:
            continue  # failure_rate rows appear only when something failed
        if len(values) > 1:
            dispersion = float(np.std(values, ddof=1) / np.sqrt(len(values)))
        else:
            dispersion = None
        rows.append(
            ReportRow(
                dataset=dataset, z_pair=z_pair, method=method_tag,
                metric=metric, value=float(np.mean(values)),
                dispersion=dispersion, n=sizes[key], manifest=digest,
            ).validate()
        )
    write_rows_json(rows, out / "rows.json")
    write_rows_csv(rows, out / "rows.csv")
    with open(out / "traces.jsonl", "w", encoding="utf-8") as fh:
        for doc in traces or []:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
    print(
        f"ooc-run: {len(traces or [])} records traced, {len(failed)} failed "
        f"(manifest {digest[:12]})"
    )
    for record_id, message in failed:
        print(f"  failed {record_id}: {message}")
    _print_rows(rows)
    return EXIT_OK


def cmd_report(args) -> int:
    rows: list[ReportRow] = []
    for path in args.rows:
        rows.extend(load_rows(path))
    deltas = delta_vs_baseline(rows, baseline=args.baseline)
    out = _out_dir(args)
    manifest = build_manifest(
        "report",
        {"rows": [str(p) for p in args.rows], "baseline": args.baseline},
        args.seed,
        list(args.rows),
    )
    digest = write_manifest(manifest, out)
    write_rows_json(deltas, out / "deltas.json")
    write_rows_csv(deltas, out / "deltas.csv")
    print(f"report: {len(deltas)} delta rows (manifest {digest[:12]})")
    for row in deltas:
        print(
            f"  {row.dataset} {row.metric} [{args.baseline} - {row.method}] "
            f"= {row.value:+.6g}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratinv",
        description=(
            "Stratified-invariance audits: simulate discrete models, check "
            "adjustment sets, measure invariance metrics, and run "
            "out-of-context rewriting against a chat service or its mock."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")
    common.add_argument(
        "--config", default=None,
        help="main input file for the subcommand (scm / graph / task)",
    )
    common.add_argument(
        "--out-dir", default="out", help="directory for artifacts"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "simulate", parents=[common],
        help="sample labeled records from an SCM table file",
    )
    p.add_argument("--scm", default=None, help="SCM table file (alias of --config)")
    p.add_argument("--n", type=int, default=1000, help="number of records")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "check-adjustment", parents=[common],
        help="test a candidate adjustment set on a graph file",
    )
    p.add_argument("--graph", default=None, help="graph file (alias of --config)")
    p.add_argument("--treatment", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument(
        "--candidate", action="append", default=[],
        help="candidate node (repeat or comma-separate; omit for the empty set)",
    )
    p.add_argument(
        "--minimal", action="store_true",
        help="also search for inclusion-minimal valid sets",
    )
    p.add_argument("--max-size", type=int, default=3)
    p.set_defaults(func=cmd_check_adjustment)

    p = sub.add_parser(
        "audit", parents=[common],
        help="compute invariance metrics over a JSONL dataset",
    )
    p.add_argument("--records", required=True, help="JSONL dataset")
    p.add_argument(
        "--metrics", default="si_bias",
        help=f"comma list from {', '.join(_METRIC_CHOICES)}",
    )
    p.add_argument(
        "--balance", type=int, default=None,
        help="balanced subsample size over (s, z) cells before measuring",
    )
    p.add_argument("--permutations", type=int, default=999)
    p.add_argument("--dataset", default=None, help="dataset tag for rows")
    p.add_argument("--method", default="standard", help="method tag for rows")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "ooc-run", parents=[common],
        help="standard vs out-of-context predictions over a dataset",
    )
    p.add_argument("--task", default=None, help="task file (alias of --config)")
    p.add_argument("--records", required=True, help="JSONL dataset")
    p.add_argument("--client", choices=("mock", "http"), default="mock")
    p.add_argument("--endpoint", default=None, help="service base URL for http")
    p.add_argument("--cache", default=None, help="completion cache directory")
    p.add_argument("--balance", type=int, default=None)
    p.add_argument("--metrics", default="si_bias,macro_f1")
    p.add_argument("--permutations", type=int, default=999)
    p.add_argument(
        "--seeds", type=int, default=1,
        help="independent passes; dispersion = standard error over passes",
    )
    p.add_argument(
        "--single-call", action="store_true",
        help="one-shot rewrite instead of obfuscate-then-add",
    )
    p.set_defaults(func=cmd_ooc_run)

    p = sub.add_parser(
        "report", parents=[common],
        help="difference-vs-baseline tables from rows.json files",
    )
    p.add_argument(
        "--rows", action="append", required=True,
        help="rows.json produced by audit or ooc-run (repeatable)",
    )
    p.add_argument("--baseline", default="standard")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except StratinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
