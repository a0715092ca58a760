"""Tests of the benchmark itself: metric arithmetic, seeded job lists, the
correctness gate, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import known_answers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
KNOWN = json.loads((HERE / "known_answers.json").read_text())["answers"]


def test_percentiles_on_synthetic_samples():
    xs = [float(x) for x in range(1, 11)]  # 1..10
    assert metrics.percentile(xs, 50) == 5.5
    assert metrics.percentile(xs, 90) == pytest.approx(9.1)
    assert metrics.percentile(list(reversed(xs)), 90) == pytest.approx(9.1)
    assert metrics.percentile([3.0], 90) == 3.0
    # 100 samples 0.01..1.00: exactly ten lie beyond the 90th percentile
    ys = [i / 100 for i in range(1, 101)]
    p90 = metrics.percentile(ys, 90)
    assert p90 == pytest.approx(0.901)
    assert sum(y > p90 for y in ys) == 10
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_fractions_and_throughput():
    m = metrics.end_to_end(
        # three passes over four jobs: per-job medians 0.2, 0.4, 0.2, 0.7
        pass_times=[[0.1, 0.4, 0.2, 0.8], [0.5, 0.3, 0.2, 0.6], [0.2, 0.9, 0.2, 0.7]],
        failed=3,
        undecided=6,
        setup_samples=[0.9, 0.5, 0.7],
        peak_rss_mb=64.0,
    )
    assert m["jobs_per_s"]["value"] == pytest.approx(4 / 1.5)
    assert m["correct_frac"]["value"] == 9 / 12
    assert m["decided_frac"]["value"] == 6 / 12
    assert m["setup_s"]["value"] == 0.7
    assert m["verdict_s_p50"]["value"] == pytest.approx(0.3)
    assert m["verdict_s_p90"]["value"] == pytest.approx(0.4 + 0.7 * (0.7 - 0.4))
    assert m["peak_rss_mb"] == {"value": 64.0, "unit": "MB"}


def test_host_adjustment_rescales_by_the_nearby_reference_samples():
    n = 3 * metrics.WINDOW
    times = [1.0] * n
    # the host runs at half speed for the second half of the pass
    refs = [0.5] * (n // 2) + [1.0] * (n - n // 2)
    adjusted = metrics.host_adjusted(times, refs, nominal=0.5)
    assert adjusted[0] == 1.0
    assert adjusted[-1] == pytest.approx(0.5**metrics.EXPONENT) and adjusted[-1] < 1.0
    # a steady host leaves the times alone, and a lone outlier sample is ignored
    refs = [0.5] * n
    refs[n // 2] = 5.0
    assert metrics.host_adjusted(times, refs, nominal=0.5) == times
    with pytest.raises(ValueError):
        metrics.host_adjusted(times, refs[1:], nominal=0.5)


def test_reference_sample_is_a_positive_time():
    import reference

    assert 0 < reference.sample(repeats=2) < 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(workload):
    a = workloads.job_list(workload, 7)
    b = workloads.job_list(workload, 7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert workloads.job_list_hash(a) == workloads.job_list_hash(b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_structures_not_amounts(workload):
    lists = [workloads.job_list(workload, seed) for seed in range(12)]
    ops = [Counter(job["op"] for job in jobs) for jobs in lists]
    assert all(o == ops[0] for o in ops)
    assert len({workloads.job_list_hash(jobs) for jobs in lists}) > 1


def test_verify_draw_is_stratified_by_size():
    drawn = [workloads.draw_structures("verify", seed) for seed in range(12)]
    for names in drawn:
        sizes = Counter(workloads.carrier_size(n) for n in names)
        assert sizes == {2: 10, 3: 7, 4: 3, 5: 5, 6: 1, 7: 1}
    assert len({names[-1] for names in drawn}) == 3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_job_has_a_known_answer(workload):
    for seed in range(20):
        for job in workloads.job_list(workload, seed):
            assert job["key"] in KNOWN, job["key"]


def test_known_answer_file_is_generated():
    text = (HERE / "known_answers.json").read_text()
    assert text == known_answers.dumps(known_answers.build())


def _enumerate_runner(known, workdir):
    jobs = [job for job in workloads.job_list("enumerate", 0) if job["key"] in (
        "enumerate_gp:krasner:3:1",
        "basis_exchange_oracle:3:2",
        "cli-matroids-oracle:3:1",
    )]
    ctx = workloads.build_context("enumerate", 0, jobs, workdir)
    runner = run.Runner(workloads, jobs, ctx, known)
    runner.run_pass()
    return runner


def test_gate_passes_known_answers(tmp_path):
    runner = _enumerate_runner(KNOWN, tmp_path)
    assert runner.attempted() == 3 and runner.failed == 0


@pytest.mark.parametrize(
    "key,wrong",
    [
        ("enumerate_gp:krasner:3:1", {"count": 8}),
        ("cli-matroids-oracle:3:1", {"exit": 0, "stdout_contains": ["8 Grassmann"]}),
    ],
)
def test_gate_counts_a_wrong_expected_answer_as_failed(key, wrong, tmp_path):
    known = {**KNOWN, key: {"expect": wrong, "source": "injected"}}
    runner = _enumerate_runner(known, tmp_path)
    m = metrics.end_to_end(runner.times, runner.failed, runner.undecided, [1.0], 1.0)
    assert runner.failed == 1
    assert 1 - m["correct_frac"]["value"] > 0
    assert runner.failures[0]["key"] == key


def test_gate_counts_a_missing_answer_as_failed(tmp_path):
    known = dict(KNOWN)
    del known["basis_exchange_oracle:3:2"]
    assert _enumerate_runner(known, tmp_path).failed == 1


def test_matches_rules():
    got = {"exit": 1, "stdout": "no iso"}
    assert workloads.matches({"exit": 1, "stdout_contains": ["no"]}, got)
    assert not workloads.matches({"exit": 1}, {"exit": 2, "stdout": ""})
    assert workloads.matches({"one_of": ["unknown", "extends"]}, {"verdict": "unknown"})
    assert not workloads.matches({"one_of": ["extends"]}, {"verdict": "unknown"})
    assert workloads.undecided({"verdict": "unknown"})


def _declared(section):
    return [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[section]]


def test_workloads_match_benchmark_json():
    assert workloads.WORKLOADS == run.WORKLOADS
    listed = [w["name"] for w in BENCHMARK["workloads"]]
    assert listed == [w for w in run.WORKLOADS if w != "decide"]


def test_end_to_end_metrics_match_benchmark_json():
    assert list(metrics.END_TO_END) == _declared("end_to_end")
    printed = metrics.end_to_end([[1.0]], 0, 0, [1.0], 1.0)
    assert list(printed) == [name for name, _, _ in _declared("end_to_end")]


def test_per_layer_metrics_match_benchmark_json():
    assert spans.metric_names() == _declared("per_layer")


def test_traced_pass_reports_every_layer_metric():
    tracer = spans.Tracer()
    tracer.install()
    try:
        from hyperalg import cli, fuzzy

        tracer.job = 0
        root = tracer.open("bench.job")
        assert cli.main(["check", "signfuzzy"]) == 0
        fuzzy.check_fuzzy_axioms(fuzzy.krasner_fuzzy())
        tracer.close(root)
    finally:
        tracer.uninstall()
    origin, end = tracer.spans[root][1], tracer.spans[root][2]
    layer_metrics, summary = spans.layer_report(tracer, origin, end - origin, end - origin)
    assert list(layer_metrics) == [name for name, _, _ in _declared("per_layer")]
    assert layer_metrics["fuzzy.check_fuzzy_axioms.calls"]["value"] == 2
    assert layer_metrics["fuzzy.check_fuzzy_axioms.elements"]["value"] == 4 + 3
    assert layer_metrics["cli.main.calls"]["value"] == 1
    assert summary["uncovered_s"] == pytest.approx(0.0, abs=1e-9)
    # the wrappers are gone again
    assert fuzzy.check_fuzzy_axioms.__module__ == "hyperalg.fuzzy"


def test_span_accounting_rejects_bad_nesting():
    tracer = spans.Tracer()
    # a child that outlasts its parent, then two overlapping top-level spans
    tracer.spans = [["a", 0.0, 1.0, None, 0], ["b", 0.5, 1.5, 0, 0]]
    with pytest.raises(RuntimeError):
        spans.layer_report(tracer, 0.0, 2.0, 2.0)
    tracer.spans = [["a", 0.0, 1.0, None, 0], ["b", 0.5, 1.5, None, 1]]
    with pytest.raises(RuntimeError):
        spans.layer_report(tracer, 0.0, 2.0, 2.0)
