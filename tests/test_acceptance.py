"""Release acceptance checks.

Each test covers one numbered criterion from the project's acceptance list
(see README) and prints a single ``criterion N: PASS/FAIL`` line, so a log
scan gives the verdict without digging through tracebacks.  Together they pin
the headline claims: the augmented predictor's exactly invariant law, its
sampled counterpart within the concentration envelope, the equivalence of
potential and observational laws under a certified adjustment set, the graph
verdicts, the counterfactual-invariance ladder, permutation-test calibration,
the mock end-to-end pipeline, golden prompt bytes, and rerun determinism.
"""

import itertools
import json
import time
from pathlib import Path

from numpy.random import default_rng

from stratinv import causal_graph as cg
from stratinv.augment import (
    AugmentedPredictor,
    IdentitySampler,
    augment_predict,
    exact_augmented_distribution,
    hoeffding_envelope,
    max_context_deviation,
)
from stratinv.cli import main
from stratinv.fixtures import (
    adjustment_fixture_cases,
    base_predictor_suite,
    chain_fixture,
    ctx_reader,
    fixture_suite,
    metric_predictor,
    r_reader,
    sampled_fixture_suite,
    u1_reader,
    ylab_reader,
)
from stratinv.metrics import (
    LabeledRecord,
    check_stratified_invariance_exact,
    ci_permutation_test,
    ci_probability,
    exact_prediction_law,
    potential_prediction_map,
    si_bias,
)
from stratinv.ooc import (
    ADD_PROMPTS,
    ADD_TEMPLATE,
    OBFUSCATE_PROMPTS,
    OBFUSCATE_TEMPLATE,
    builtin_task,
    render_transform_prompt,
)
from stratinv.scm import (
    ExactConditionalSampler,
    ExactRecoverer,
    enumerate_joint,
    observed,
    sample_world_conditional,
    stratum_values,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = Path(__file__).parent / "golden"


def _verdict(capsys, criterion: int, ok: bool, detail: str) -> None:
    """One scannable line per criterion, printed even when capture is on."""
    with capsys.disabled():
        print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _exact_ap(scm, base, **kw) -> AugmentedPredictor:
    return AugmentedPredictor(
        recoverer=ExactRecoverer(scm),
        sampler=ExactConditionalSampler(scm),
        base=base,
        contexts=tuple(scm.z_domain.values),
        **kw,
    )


# --- criterion 1: exact invariance of the augmented law ----------------------


def test_criterion_1_exact_augmented_law_is_context_free(capsys):
    t0 = time.monotonic()
    suite = fixture_suite()
    worst = 0.0
    pairs = 0
    for fx in suite:
        bases = base_predictor_suite(fx.scm)
        assert len(bases) >= 3
        for base in bases.values():
            table = exact_augmented_distribution(fx.scm, _exact_ap(fx.scm, base))
            worst = max(worst, max_context_deviation(table))
            pairs += 1
    elapsed = time.monotonic() - t0
    ok = len(suite) >= 20 and worst <= 1e-12 and elapsed < 10.0
    _verdict(
        capsys, 1, ok,
        f"max deviation {worst:.2e} over {pairs} model/predictor pairs "
        f"(allowed 1e-12), {elapsed:.1f}s",
    )


# --- criterion 2: sampled invariance within the envelope ---------------------


def _balanced_draws(scm, ap, rng, n=4000):
    """n balanced draws through the augmented predictor, as labeled records."""
    strata = stratum_values(scm)
    zs = scm.z_domain.values
    per_cell = n // (len(strata) * len(zs))
    out = []
    for s in strata:
        for z in zs:
            for _ in range(per_cell):
                w = sample_world_conditional(scm, rng, stratum=s, z=z)
                x, _y, s_obs = observed(scm, w)
                label = augment_predict(ap, x, s_obs, rng).label
                out.append(
                    LabeledRecord(f"r{len(out)}", x=x, s=s_obs, z=w.z, y_hat=label)
                )
    return out, len(strata), len(zs)


def test_criterion_2_sampled_bias_stays_inside_envelope(capsys):
    t0 = time.monotonic()
    failures = []
    for i, fx in enumerate(sampled_fixture_suite()):
        ap = _exact_ap(fx.scm, ctx_reader)
        recs, n_s, n_z = _balanced_draws(fx.scm, ap, default_rng([20240701, i]))
        bias = si_bias(recs).value
        envelope = hoeffding_envelope(len(recs), n_s, n_z)
        if bias > envelope:
            failures.append(f"{fx.name}: {bias:.4f} > {envelope:.4f}")

    # negative control: skipping the conditional resample leaves the
    # context-reading base fully exposed, far outside the envelope
    control_scm = sampled_fixture_suite()[0].scm
    control = AugmentedPredictor(
        recoverer=ExactRecoverer(control_scm),
        sampler=IdentitySampler(),
        base=ctx_reader,
        contexts=tuple(control_scm.z_domain.values),
    )
    recs, n_s, n_z = _balanced_draws(control_scm, control, default_rng([20240701, 99]))
    control_bias = si_bias(recs).value
    control_env = hoeffding_envelope(len(recs), n_s, n_z)

    elapsed = time.monotonic() - t0
    ok = not failures and control_bias > control_env and elapsed < 30.0
    _verdict(
        capsys, 2, ok,
        f"6 fixtures inside envelope at n=4000{'; ' + '; '.join(failures) if failures else ''}, "
        f"control bias {control_bias:.2f} > {control_env:.3f}, {elapsed:.1f}s",
    )


# --- criterion 3: potential law == conditional law under adjustment ----------


def _observational_law(scm, base):
    """P(base(X) = y | Z = z, S = s) from the observational joint."""
    mass: dict = {}
    law: dict = {}
    for w, m in enumerate_joint(scm):
        x, _y, s = observed(scm, w)
        key = (w.z, s)
        mass[key] = mass.get(key, 0.0) + m
        label = base(x)
        law.setdefault(key, {})
        law[key][label] = law[key].get(label, 0.0) + m
    return {k: {y: p / mass[k] for y, p in d.items()} for k, d in law.items()}


def _law_gap(table) -> float:
    strata = {s for (_z, s) in table}
    zs = list(dict.fromkeys(z for (z, _s) in table))
    labels = {y for law in table.values() for y in law}
    gap = 0.0
    for s in strata:
        for z1, z2 in itertools.combinations(zs, 2):
            for y in labels:
                gap = max(
                    gap,
                    abs(
                        table.get((z1, s), {}).get(y, 0.0)
                        - table.get((z2, s), {}).get(y, 0.0)
                    ),
                )
    return gap


def test_criterion_3_adjustment_set_equivalence(capsys):
    cases = adjustment_fixture_cases()
    problems = []
    certified = rejected = 0
    for case in cases:
        verdict = cg.is_adjustment_set(case.graph, "Z", "X", case.candidate)
        if verdict.valid != case.certified:
            problems.append(f"{case.name}: verdict {verdict.valid}")
            continue
        if not case.certified:
            rejected += 1
            continue
        certified += 1
        for name, base in base_predictor_suite(case.scm).items():
            potential = exact_prediction_law(case.scm, metric_predictor(base))
            conditional = _observational_law(case.scm, base)
            if set(potential) != set(conditional):
                problems.append(f"{case.name}/{name}: cell sets differ")
                continue
            entry_gap = max(
                abs(potential[k].get(y, 0.0) - conditional[k].get(y, 0.0))
                for k in potential
                for y in set(potential[k]) | set(conditional[k])
            )
            scalar_gap = abs(_law_gap(potential) - _law_gap(conditional))
            if entry_gap > 1e-9 or scalar_gap > 1e-9:
                problems.append(f"{case.name}/{name}: gap {entry_gap:.2e}")

    # without an adjustment set the two laws come apart: these predictors are
    # exactly invariant in the potential sense, yet conditionally dependent
    by_name = {c.name: c for c in cases}
    splits = []
    for cname, base in [
        ("confounded-unadjusted", u1_reader),
        ("anticausal-unadjusted", ylab_reader),
    ]:
        case = by_name[cname]
        pot_dev = check_stratified_invariance_exact(
            case.scm, metric_predictor(base)
        ).deviation
        obs_gap = _law_gap(_observational_law(case.scm, base))
        splits.append((cname, pot_dev, obs_gap))
    split_shown = all(d <= 1e-12 and g >= 0.1 for _, d, g in splits)

    ok = not problems and certified >= 4 and rejected >= 5 and split_shown
    _verdict(
        capsys, 3, ok,
        f"{certified} certified cases match within 1e-9, {rejected} rejected; "
        "invariance-without-conditional-independence shown on "
        + ", ".join(f"{n} (gap {g:.2f})" for n, _d, g in splits)
        + ("" if not problems else "; " + "; ".join(problems)),
    )


# --- criterion 4: reference graph verdicts via the CLI -----------------------


def test_criterion_4_reference_graph_verdicts(capsys, tmp_path):
    def run(name):
        rc = main([
            "check-adjustment", "--graph", str(CONFIGS / name),
            "--treatment", "Z", "--outcome", "X", "--minimal",
            "--out-dir", str(tmp_path / name.removesuffix(".json")),
        ])
        out = capsys.readouterr().out
        return rc, out

    rc_a, out_a = run("graph_anticausal.json")
    rc_b, out_b = run("graph_confounded.json")
    rc_c, out_c = run("graph_selection.json")
    ok = (
        rc_a == rc_b == rc_c == 0
        and "candidate {} for treatment Z -> outcome X: INVALID" in out_a
        and "Z <- L -> Y -> X" in out_a
        and "minimal valid sets: {Y}" in out_a
        and "candidate {} for treatment Z -> outcome X: VALID" in out_b
        and "minimal valid sets: {}" in out_b
        and "candidate {} for treatment Z -> outcome X: INVALID" in out_c
        and "B" in out_c
        and "minimal valid sets: {Y}" in out_c
    )
    _verdict(
        capsys, 4, ok,
        "minimal sets {Y}, {}, {Y} for the anticausal, confounded and "
        "selection graphs, with the open paths named",
    )


# --- criterion 5: counterfactual-invariance endpoints and ladder -------------


def test_criterion_5_ci_probability_endpoints_and_ladder(capsys):
    base_scm = chain_fixture(0)
    constant = ci_probability(
        potential_prediction_map(base_scm, lambda x, s, rng: "1", seed=77)
    )
    copying = ci_probability(
        potential_prediction_map(base_scm, lambda x, s, rng: ctx_reader(x), seed=77)
    )

    ladder = []
    for level in range(4):
        scm = chain_fixture(level)
        ap = _exact_ap(scm, r_reader)
        pred_map = potential_prediction_map(
            scm, lambda x, s, rng: augment_predict(ap, x, s, rng).label, seed=77
        )
        ladder.append(ci_probability(pred_map))

    monotone = all(a <= b for a, b in zip(ladder, ladder[1:]))
    ok = (
        constant == 1.0
        and copying == 0.0
        and monotone
        and ladder[-1] == 1.0
        and ladder == [0.5, 0.75, 1.0, 1.0]
    )
    _verdict(
        capsys, 5, ok,
        f"endpoints {constant}/{copying}, ladder {ladder} non-decreasing to 1.0",
    )


# --- criterion 6: permutation-test calibration and power ---------------------


def test_criterion_6_permutation_test_calibration(capsys):
    t0 = time.monotonic()

    def draws(rng, n=200):
        return rng.integers(0, 2, n), rng.integers(0, 2, n)

    rejections = 0
    for rep in range(200):
        rng = default_rng([606, rep])
        si, zi = draws(rng)
        yi = rng.integers(0, 2, 200)
        recs = [
            LabeledRecord(f"r{i}", x="", s=f"s{si[i]}", z=f"z{zi[i]}", y_hat=str(yi[i]))
            for i in range(200)
        ]
        report = ci_permutation_test(recs, permutations=199, rng=rng)
        rejections += report.p_value <= 0.05
    rate = rejections / 200

    hits = 0
    for rep in range(50):
        rng = default_rng([707, rep])
        si, zi = draws(rng)
        recs = [
            LabeledRecord(f"r{i}", x="", s=f"s{si[i]}", z=f"z{zi[i]}", y_hat=f"z{zi[i]}")
            for i in range(200)
        ]
        hits += ci_permutation_test(recs, permutations=199, rng=rng).p_value <= 0.05
    power = hits / 50

    elapsed = time.monotonic() - t0
    ok = 0.01 <= rate <= 0.09 and power >= 0.95 and elapsed < 60.0
    _verdict(
        capsys, 6, ok,
        f"null rejection rate {rate:.3f} in [0.01, 0.09], "
        f"power {power:.2f} >= 0.95, {elapsed:.1f}s",
    )


# --- criterion 7: mock end-to-end pipeline -----------------------------------


def _simulate_demo(out_dir: Path) -> Path:
    rc = main([
        "simulate", "--scm", str(CONFIGS / "demo_scm.json"),
        "--n", "1600", "--seed", "11", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    return out_dir / "records.jsonl"


def _ooc_run_demo(records: Path, out_dir: Path) -> Path:
    rc = main([
        "ooc-run", "--task", str(CONFIGS / "demo_task.json"),
        "--records", str(records), "--balance", "400",
        "--seed", "11", "--client", "mock", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    return out_dir


def test_criterion_7_mock_pipeline_reduces_bias(capsys, tmp_path):
    assert json.loads((CONFIGS / "demo_task.json").read_text(encoding="utf-8"))["m"] == 3
    run = _ooc_run_demo(_simulate_demo(tmp_path / "sim"), tmp_path / "run")
    rows = json.loads((run / "rows.json").read_text(encoding="utf-8"))
    value = {(r["method"], r["metric"]): r["value"] for r in rows}
    assert all(r["n"] == 400 for r in rows)
    first_trace = json.loads(
        (run / "traces.jsonl").read_text(encoding="utf-8").splitlines()[0]
    )
    assert len(first_trace["replicates"]) == 3

    f1_shift = abs(value[("standard", "macro_f1")] - value[("ooc", "macro_f1")])
    ok = (
        value[("standard", "si_bias")] >= 0.5
        and value[("ooc", "si_bias")] <= 0.08
        and f1_shift <= 0.02
    )
    _verdict(
        capsys, 7, ok,
        f"si_bias {value[('standard', 'si_bias')]:.2f} -> "
        f"{value[('ooc', 'si_bias')]:.2f} at n=400, m=3; "
        f"|macro-F1 shift| {f1_shift:.4f} <= 0.02",
    )


# --- criterion 8: golden prompt bytes ----------------------------------------

_BIOS_OBFUSCATE_X = (
    "He completed his residency at a teaching hospital and now leads the "
    "cardiac surgery unit."
)
_BIOS_ADD_X = (
    "This person completed a residency at a teaching hospital and now "
    "leads the cardiac surgery unit."
)


def _render_bios_prompts() -> tuple[str, str]:
    task = builtin_task("bios")
    obfuscate = render_transform_prompt(
        OBFUSCATE_TEMPLATE, OBFUSCATE_PROMPTS[0], task, _BIOS_OBFUSCATE_X,
        stratum="surgeon",
    )
    add = render_transform_prompt(
        ADD_TEMPLATE, ADD_PROMPTS[0], task, _BIOS_ADD_X,
        stratum="surgeon", z_plus="female",
    )
    return obfuscate, add


def test_criterion_8_golden_prompt_bytes(capsys):
    obfuscate, add = _render_bios_prompts()
    want_obfuscate = (GOLDEN / "obfuscate_bios.txt").read_text(encoding="utf-8")
    want_add = (GOLDEN / "add_bios.txt").read_text(encoding="utf-8")
    ok = obfuscate == want_obfuscate and add == want_add
    _verdict(
        capsys, 8, ok,
        "rendered obfuscation and addition prompts match the golden files "
        "byte for byte",
    )


# --- criterion 9: rerun determinism ------------------------------------------


def test_criterion_9_reruns_are_byte_identical(capsys, tmp_path):
    records_a = _simulate_demo(tmp_path / "sim_a")
    records_b = _simulate_demo(tmp_path / "sim_b")
    simulate_stable = records_a.read_bytes() == records_b.read_bytes()

    run_a = _ooc_run_demo(records_a, tmp_path / "run_a")
    run_b = _ooc_run_demo(records_a, tmp_path / "run_b")
    artifacts = [
        "rows.json", "rows.csv", "records_standard.jsonl",
        "records_ooc.jsonl", "traces.jsonl",
    ]
    drifted = [
        name for name in artifacts
        if (run_a / name).read_bytes() != (run_b / name).read_bytes()
    ]
    digest_a = json.loads((run_a / "manifest.json").read_text(encoding="utf-8"))["digest"]
    digest_b = json.loads((run_b / "manifest.json").read_text(encoding="utf-8"))["digest"]

    # repeated in-process computations are bit-stable too
    fx = fixture_suite(count=1)[0]
    law_stable = exact_augmented_distribution(
        fx.scm, _exact_ap(fx.scm, ctx_reader)
    ) == exact_augmented_distribution(fx.scm, _exact_ap(fx.scm, ctx_reader))
    renders_stable = _render_bios_prompts() == _render_bios_prompts()

    ok = (
        simulate_stable
        and not drifted
        and digest_a == digest_b
        and law_stable
        and renders_stable
    )
    _verdict(
        capsys, 9, ok,
        "simulated records, pipeline artifacts, manifest digests, exact laws "
        "and rendered prompts identical across reruns"
        f"{'; drifted: ' + ', '.join(drifted) if drifted else ''}",
    )
