"""Tests of the benchmark's own parts: cohort generator, tracer, entry point.

Run with ``python3 -m pytest perfbench``.
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import poosurv as ps
import pytest

import run
from calibrate import REFERENCE_SECONDS, calibrated, reference_seconds
from cohort import COUSIN_MARRIAGE, SMALL_SHARE, cohort_properties, generate_cohort, is_looped
from tracer import Span, SpanStats, Tracer, self_times
from workloads import BRUTE_MAX_MEMBERS, WORKLOADS, Outcome

BENCH = Path(__file__).resolve().parents[1]


def _record(iid, father=None, mother=None, *, sex):
    return ps.IndividualRecord(
        family_id="L", individual_id=iid, father_id=father, mother_id=mother,
        sex=sex, age=50.0, status=0,
    )


def test_cohort_is_byte_identical_for_a_seed():
    assert generate_cohort(30, seed=7) == generate_cohort(30, seed=7)
    assert generate_cohort(30, seed=7) != generate_cohort(30, seed=8)


@pytest.fixture(scope="module")
def workload_cohort():
    n = WORKLOADS["hetero_fit"].n_families
    return ps.parse_ped(generate_cohort(n, seed=1))


def test_cohort_structure_properties(workload_cohort):
    props = cohort_properties(workload_cohort)
    assert props["distinct_structures"] >= 0.8 * props["families"]
    assert all(8 <= len(f) <= 40 for f in workload_cohort)
    assert props["looped_families"] >= 1
    # a fixed share, so the costliest families do not vary in number by seed
    assert props["looped_families"] == round(COUSIN_MARRIAGE * props["families"])
    # the brute-force check of hetero_fit needs small families to compare
    small = sum(len(f) <= BRUTE_MAX_MEMBERS for f in workload_cohort)
    assert small >= round(SMALL_SHARE * props["families"]) >= 1


def test_cohort_reveals_tests_under_s1(workload_cohort):
    tested = [r for f in workload_cohort for r in f if r.gene_test is not None]
    affected = [r for f in workload_cohort for r in f if r.status == 1]
    assert tested and len(tested) < sum(len(f) for f in workload_cohort)
    assert sum(r.gene_test is not None for r in affected) > 0.5 * len(affected)


def test_loop_detection():
    template_family = ps.simulate_families(1, -0.6, 0.2, seed=0)[0][0]
    male, female = ps.Sex.MALE, ps.Sex.FEMALE
    # first cousins 7 and 8 have a child: a loop through grandparents 1 and 2
    cousins = ps.Pedigree([
        _record("1", sex=male), _record("2", sex=female),
        _record("3", "1", "2", sex=male), _record("4", "1", "2", sex=female),
        _record("5", sex=female), _record("6", sex=male),
        _record("7", "3", "5", sex=male), _record("8", "6", "4", sex=female),
        _record("9", "7", "8", sex=male),
    ])
    assert not is_looped(template_family)
    assert is_looped(cousins)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),   # overlaps a: the union counts once
        Span("a.x", 2.0, 3.0, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_span_stats_keep_only_operation_spans():
    spans = [
        Span("pass", 0.0, 4.0, None, 0),
        Span("fit", 0.0, 1.0, 0, 0, value=2),
        Span("evaluate", 0.1, 0.2, 1, 0),
        Span("evaluate", 0.3, 0.4, 1, 0),
        Span("evaluate", 0.5, 0.6, 1, 0),
        Span("evaluate", 5.0, 5.1, None, 5),  # outside any pass
    ]
    stats = SpanStats(spans, "pass")
    assert stats.count("evaluate") == 3
    assert stats.child_count("fit", "evaluate") == [3]
    assert stats.self_total("fit") == pytest.approx(0.7)
    assert stats.total("evaluate") == pytest.approx(0.3)


def test_tracer_wraps_and_restores():
    class Layer:
        def work(self, n):
            return n * 2

    original = Layer.work
    tracer = Tracer()
    tracer.wrap(Layer, "work", "layer.work", value_of=lambda r: r)
    assert Layer.work is original
    with tracer.installed(), tracer.span("pass"):
        assert Layer().work(3) == 6
    assert Layer.work is original
    Layer().work(4)  # not installed: not recorded
    outer, inner = tracer.spans
    assert (inner.name, inner.parent, inner.root, inner.value) == ("layer.work", 0, 0, 6)
    assert outer.start <= inner.start <= inner.end <= outer.end


class FakeWorkload:
    attempts_per_pass = 1

    def __init__(self, pause=0.0):
        self.pause = pause
        self.calls, self.full = [], []

    @staticmethod
    def probe():
        return None

    def prepare(self, item):
        return item

    def run(self, prepared, tracer):
        self.calls.append((prepared, getattr(tracer, "label", None)))
        FakeWorkload.probe()
        time.sleep(self.pause)
        return prepared

    def check(self, prepared, output, full):
        self.full.append(full)
        return Outcome(families=1, attempted=1)


def test_measure_runs_each_entry_under_each_tracer_in_turn(monkeypatch):
    monkeypatch.setattr(run, "reference_seconds", lambda: 0.05)
    workload, tracers = FakeWorkload(), []
    for label in ("plain", "traced"):
        tracer = Tracer()
        tracer.label = label
        tracer.wrap(FakeWorkload, "probe", "probe")
        tracers.append(tracer)
    plain, traced = run.measure(workload, ["a", "b", "c"], 0.0, tracers)
    assert workload.calls == [
        ("a", "plain"), ("a", "traced"), ("b", "traced"), ("b", "plain"),
        ("c", "plain"), ("c", "traced"),
    ]
    assert workload.full == [True] * 6
    # each tracer saw exactly the probes of its own passes
    for tracer, passes in zip(tracers, (plain, traced)):
        probes = [s for s in tracer.spans if s.name == "probe"]
        assert len(probes) == len(passes) == 3
        assert [p.entry for p in passes] == [0, 1, 2]
        assert all(p.reference == 0.05 for p in passes)
        assert all(tracer.spans[s.parent].name == "pass" for s in probes)
    assert "probe" in vars(FakeWorkload) and not hasattr(FakeWorkload.probe, "__wrapped__")
    assert all(p.outcome.failed == 0 for p in plain + traced)


def test_measure_cycles_the_pool_until_the_time_is_measured(monkeypatch):
    monkeypatch.setattr(run, "reference_seconds", lambda: 0.05)
    workload = FakeWorkload(pause=0.01)
    (passes,) = run.measure(workload, ["a", "b"], 0.05, [Tracer()])
    assert len(passes) >= 5
    assert [p.entry for p in passes] == [i % 2 for i in range(len(passes))]
    # only the first pass of each entry gets the full checks
    assert workload.full == [True, True] + [False] * (len(passes) - 2)


def test_end_to_end_calibrates_each_pass():
    class Workload:
        op_span = "em"

    nominal = REFERENCE_SECONDS
    tracer = Tracer()
    passes = []
    # (entry, wall seconds, reference): the first pass ran on a host at half speed
    for entry, seconds, reference in (
        (0, 2.0, 2 * nominal), (1, 3.0, nominal), (0, 1.0, nominal), (1, 5.0, nominal),
    ):
        start = len(passes) * 10.0
        root = len(tracer.spans)
        span = Span("pass", start, start + seconds, None, root)
        tracer.spans += [span, Span("em", start, start + seconds, root, root)]
        passes.append(run.Pass(entry, span, Outcome([20], families=50, attempted=1), reference))
    setup = {"setup_s": 1.0, "import_s": 0.75, "parse_s": 0.25, "peak_rss_mb": 100.0}
    # set-up is scaled by the median reference of the given passes
    assert run.calibrated_setup(setup, passes[:1])["import_s"] == pytest.approx(0.375)
    setup = run.calibrated_setup(setup, passes)
    assert setup["setup_s"] == pytest.approx(1.0)
    metrics, _, _ = run.end_to_end(Workload(), ["x", "y"], passes, tracer, setup)
    # entry 0: 1.0 and 1.0 calibrated; entry 1: median of 3.0 and 5.0
    assert metrics["fit_s"][0] == pytest.approx((1.0 + 4.0) / 2)
    assert metrics["families_per_s"][0] == pytest.approx(100 / (1.0 + 4.0))
    assert metrics["em_iterations"][0] == 20


def test_reference_task_is_timed_and_calibrates():
    assert 0 < reference_seconds() < 10
    assert calibrated(3.0, 2 * REFERENCE_SECONDS) == pytest.approx(1.5)


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "template_fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
