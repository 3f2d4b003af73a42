"""Command-line surface: simulate, check-adjustment, audit, ooc-run, report.

Every command that writes artifacts stamps them with the digest of a run
manifest (command, arguments, seed, package version, input-file digests), so
any report row can be traced back to the exact inputs that produced it.
Offline commands are bit-reproducible from (inputs, seed); only the manifest
file itself carries a timestamp, which is excluded from the digest.

Each command checks its inputs and computes everything first, then writes the
manifest and its artifacts in one step at the end, so a command that exits
non-zero writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import closing
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


def run_manifest(
    command: str, arguments: Mapping[str, Any], seed: int | None, inputs: Sequence
) -> dict:
    """The manifest fields and, under ``digest``, the digest over them."""
    manifest = {
        "command": command,
        "arguments": dict(arguments),
        "seed": seed,
        "package_version": __version__,
        "input_digests": {str(p): file_digest(p) for p in inputs},
    }
    doc = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    manifest["digest"] = hashlib.sha256(doc.encode("utf-8")).hexdigest()
    return manifest


def write_manifest(manifest: dict, out_dir) -> Path:
    """Make ``out_dir``, write manifest.json stamped with the time, return it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {**manifest, "created_at": datetime.now(timezone.utc).isoformat()}
    (out / "manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


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

    # The test's observed statistic is si_bias, from the same count table;
    # si_bias and macro_f1 draw nothing, so the stream is unchanged.
    test = (
        ci_permutation_test(records, permutations=permutations, rng=rng)
        if "permutation" in metrics
        else None
    )
    if "si_bias" in metrics:
        value = si_bias(records).value if test is None else test.statistic
        add("si_bias", value, n=len(records))
    if "macro_f1" in metrics:
        add("macro_f1", macro_f1(records), n=len(records))
    if test is not None:
        add("perm_statistic", test.statistic, n=len(records))
        add("p_value", test.p_value, n=len(records))
    return rows


def _print_rows(rows: Sequence[ReportRow]) -> None:
    for r in rows:
        extra = "" if r.dispersion is None else f" +/- {r.dispersion:.6g}"
        print(f"  {r.dataset} [{r.method}] {r.metric} = {r.value:.6g}{extra} (n={r.n})")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    if not args.scm:
        raise ValueError("need --scm pointing at an SCM table file")
    if args.n < 0:
        raise StratinvError(f"--n must be at least 0, got {args.n}")
    scm = load_scm(args.scm)
    rng = np.random.default_rng(args.seed)
    records = []
    for i in range(args.n):
        world = sample_world(scm, rng)
        x, y, s = observed(scm, world)
        records.append(LabeledRecord(f"r{i:06d}", x=x, s=s, z=world.z, y=y))
    manifest = run_manifest(
        "simulate", {"scm": str(args.scm), "n": args.n}, args.seed, [args.scm]
    )
    out = write_manifest(manifest, args.out_dir)
    dump_records(records, out / "records.jsonl")
    print(
        f"simulate: {len(records)} records -> {out / 'records.jsonl'} "
        f"(manifest {manifest['digest'][:12]})"
    )
    return EXIT_OK


def _format_set(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def cmd_check_adjustment(args) -> int:
    if args.max_size < 0:
        raise StratinvError(f"--max-size must be at least 0, got {args.max_size}")
    if not args.graph:
        raise ValueError("need --graph pointing at a graph file")
    g = cg.load_dag(args.graph)
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
    manifest = run_manifest(
        "check-adjustment",
        {
            "graph": str(args.graph),
            "treatment": args.treatment,
            "outcome": args.outcome,
            "candidate": sorted(candidate),
        },
        args.seed,
        [args.graph],
    )
    out = write_manifest(manifest, args.out_dir)
    (out / "verdict.json").write_text(
        json.dumps(
            {
                "treatment": report.treatment,
                "outcome": report.outcome,
                "candidate": sorted(report.candidate),
                "valid": report.valid,
                "reasons": list(report.reasons),
                "open_paths": list(report.open_path_names),
                "manifest": manifest["digest"],
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
    if args.balance is not None:
        records = balanced_subsample(records, args.balance, rng)
    if not records:
        raise StratinvError(f"no records in {args.records}")
    manifest = run_manifest(
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
    digest = manifest["digest"]
    dataset = args.dataset or Path(args.records).stem
    rows = metric_rows(
        records, dataset, args.method, metrics, args.permutations, rng, digest
    )
    out = write_manifest(manifest, args.out_dir)
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
    # vars() of the frozen dataclasses gives asdict's keys without its deep copy
    return {
        "record_id": record.record_id,
        "s": record.s,
        "z": record.z,
        **vars(result),
        "replicates": [vars(rep) for rep in result.replicates],
    }


def _ooc_pass(cfg, client, records, seed, r, single_call):
    """One full standard+OOC pass over the records with per-record rng streams,
    ``STAGE_RECORDS`` records per staged batch.

    A record whose standard label or OOC prediction fails is dropped from that
    arm only and listed in the failures as ``(record_id, message, cause)``.
    Returns the standard and OOC records, the OOC traces (pass 0 only) and
    the failures.
    """
    standard_records, ooc_records, traces, failed = [], [], [], []
    for lo in range(0, len(records), STAGE_RECORDS):
        stage = records[lo:lo + STAGE_RECORDS]
        outcomes = ooc_predict_many(
            cfg, client,
            (
                (record.x, record.s, np.random.default_rng([seed, r, idx]))
                for idx, record in enumerate(stage, start=lo)
            ),
            single_call=single_call, standard=True,
        )
        for record, (std_label, result) in zip(stage, outcomes):
            if isinstance(std_label, StratinvError):
                failed.append((
                    record.record_id, f"standard label: {std_label}", std_label
                ))
            else:
                standard_records.append(
                    LabeledRecord(record.record_id, record.x, record.s, record.z,
                                  y=record.y, y_hat=std_label)
                )
            if isinstance(result, OocFailed):
                failed.append((record.record_id, str(result), result.__cause__))
                continue
            if r == 0:
                traces.append(_trace_doc(record, result))
            ooc_records.append(
                LabeledRecord(record.record_id, record.x, record.s, record.z,
                              y=record.y, y_hat=result.label)
            )
    return standard_records, ooc_records, traces, failed


def _arm_error(failed, message) -> StratinvError:
    """The refusal of an arm its failures spoiled, naming the first failure:
    a ServiceError (exit 3) when the chat service gave it."""
    _, first_error, cause = failed[0]
    error = ServiceError if isinstance(cause, ServiceError) else StratinvError
    return error(f"{message}; first error: {first_error}")


def cmd_ooc_run(args) -> int:
    if not args.task:
        raise ValueError("need --task pointing at a task file")
    if args.seeds < 1:
        raise StratinvError(f"--seeds must be at least 1, got {args.seeds}")
    cfg = load_task(args.task)
    records_all = load_records(args.records)
    metrics = _parse_metrics(args.metrics)
    manifest = run_manifest(
        "ooc-run",
        {
            "task": str(args.task),
            "records": str(args.records),
            "client": args.client,
            "balance": args.balance,
            "metrics": list(metrics),
            "seeds": args.seeds,
            "single_call": bool(args.single_call),
        },
        args.seed,
        [args.task, args.records],
    )
    digest = manifest["digest"]
    method = "single_call" if args.single_call else "ooc"

    # (dataset, z_pair, method, metric) -> each pass's (value, n), in row order
    per_seed: dict[tuple, list[tuple[float, int]]] = {}
    failed: list[tuple[str, str, BaseException | None]] = []
    with closing(_make_client(args, cfg)) as client:
        for r in range(args.seeds):
            # Each pass draws its subsample, then its metric rows, from one stream.
            pass_rng = np.random.default_rng([args.seed, r])
            records = records_all
            if args.balance is not None:
                records = balanced_subsample(records_all, args.balance, pass_rng)
            if not records:
                raise StratinvError(f"no records in {args.records}")
            standard_records, ooc_records, traces_r, failed_r = _ooc_pass(
                cfg, client, records, args.seed, r, args.single_call
            )
            failed += failed_r
            arms = (("standard", standard_records), (method, ooc_records))
            for tag, recs in arms:
                if not recs:
                    raise _arm_error(failed, f"every record failed the {tag} arm")
                # An arm that lost a context reads as unbiased, so refuse it.
                lost = {r.z for r in records} - {r.z for r in recs}
                if lost and {"si_bias", "permutation"} & set(metrics):
                    raise _arm_error(
                        failed,
                        f"the {tag} arm lost every record with context "
                        f"{', '.join(sorted(map(str, lost)))}, so its bias "
                        f"is not measurable",
                    )
            if r == 0:
                first_pass = standard_records, ooc_records, traces_r
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
                    per_seed.setdefault(key, []).append((row.value, row.n))

    rows = []
    for (dataset, z_pair, method_tag, metric), passes in per_seed.items():
        values = [value for value, _n in passes]
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
                dispersion=dispersion, n=passes[-1][1], manifest=digest,
            ).validate()
        )
    standard_records, ooc_records, traces = first_pass
    out = write_manifest(manifest, args.out_dir)
    write_rows_json(rows, out / "rows.json")
    write_rows_csv(rows, out / "rows.csv")
    dump_records(standard_records, out / "records_standard.jsonl")
    dump_records(ooc_records, out / "records_ooc.jsonl")
    with open(out / "traces.jsonl", "w", encoding="utf-8") as fh:
        for doc in traces:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
    print(
        f"ooc-run: {len(traces)} records traced, {len(failed)} failed "
        f"(manifest {digest[:12]})"
    )
    for record_id, message, _cause in failed:
        print(f"  failed {record_id}: {message}")
    _print_rows(rows)
    return EXIT_OK


def cmd_report(args) -> int:
    rows: list[ReportRow] = []
    for path in args.rows:
        rows.extend(load_rows(path))
    deltas = delta_vs_baseline(rows, baseline=args.baseline)
    manifest = run_manifest(
        "report",
        {"rows": [str(p) for p in args.rows], "baseline": args.baseline},
        args.seed,
        list(args.rows),
    )
    out = write_manifest(manifest, args.out_dir)
    write_rows_json(deltas, out / "deltas.json")
    write_rows_csv(deltas, out / "deltas.csv")
    print(f"report: {len(deltas)} delta rows (manifest {manifest['digest'][:12]})")
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
        "--out-dir", default="out", help="directory for artifacts"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "simulate", parents=[common],
        help="sample labeled records from an SCM table file",
    )
    p.add_argument("--scm", default=None, help="SCM table file")
    p.add_argument("--n", type=int, default=1000, help="number of records")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "check-adjustment", parents=[common],
        help="test a candidate adjustment set on a graph file",
    )
    p.add_argument("--graph", default=None, help="graph file")
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
    p.add_argument(
        "--max-size", type=int, default=3,
        help="largest set size the minimal search tries (at least 0)",
    )
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
    p.add_argument("--task", default=None, help="task file")
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


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # One parser per process: parsing leaves no state in it, and building it
    # costs more than most check-adjustment queries.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
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
