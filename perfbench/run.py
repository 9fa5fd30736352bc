"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload template_fit --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the end-to-end metrics are printed, with
``--trace 1`` the per-layer metrics of a traced run. Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A result file (and,
when traced, the span file) lands in ``perfbench/out/``. The exit code is 1
when any correctness check failed and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from calibrate import REFERENCE_SECONDS, calibrated, reference_seconds
from tracer import Span, SpanStats, Tracer

if TYPE_CHECKING:  # workloads imports the package, which main() locates first
    from workloads import Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Fresh interpreters per run; set-up time is their median.
SETUP_REPEATS = 4
SETUP_TIMEOUT_S = 60


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "poosurv" / "__init__.py").is_file():
        _fail(f"no poosurv package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import poosurv

    if Path(poosurv.__file__).resolve().parent != (SRC / "poosurv").resolve():
        _fail(f"imported poosurv from {poosurv.__file__}, not from {SRC}")


def environment():
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(workload, item):
    """Median import and parse times over fresh interpreters, wall clock.

    The last interpreter also runs one operation after its set-up has been
    timed, for the peak memory of a process that runs only the workload.
    """
    child = [sys.executable, str(HERE / "setup_child.py"), str(SRC)]

    def spawn(extra=()):
        proc = subprocess.run(
            child + list(extra), input=item[0], capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            _fail(f"set-up interpreter failed:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    samples = [spawn() for _ in range(SETUP_REPEATS - 1)]
    samples.append(spawn([workload.name, str(item[1])]))
    return {
        "setup_s": statistics.median(s["import_s"] + s["parse_s"] for s in samples),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "parse_s": statistics.median(s["parse_s"] for s in samples),
        "peak_rss_mb": samples[-1]["peak_rss_mb"],
        "samples": samples,
    }


def calibrated_setup(setup, passes):
    """Set-up times scaled by the median reference of the run's passes.

    One interpreter's import does not track the reference timed around it
    (scaling each by its own reference made the figure less steady), but
    the host's drift over minutes shows in the median of a run's references;
    scaling by that keeps set-up comparable between runs made at different
    times.
    """
    reference = statistics.median(p.reference for p in passes)
    return {
        **setup,
        **{key: calibrated(setup[key], reference) for key in ("setup_s", "import_s", "parse_s")},
        "wall_setup_s": setup["setup_s"],
    }


@dataclass
class Pass:
    """One timed pass of pool entry ``entry`` and its checked outcome.

    ``reference`` is the mean time of the reference task run right before
    and right after the pass (see ``calibrate.py``).
    """

    entry: int
    span: Span
    outcome: Outcome
    reference: float


def _one_pass(workload, prepared, tracer):
    with tracer.installed(), tracer.span("pass") as span:
        try:
            return span, workload.run(prepared, tracer), None
        except Exception:  # a failed operation is counted, not fatal
            return span, None, traceback.format_exc()


def _checked(workload, prepared, output, error, full):
    from workloads import Outcome

    if error is None:
        try:
            return workload.check(prepared, output, full)
        except Exception:
            error = traceback.format_exc()
    n = workload.attempts_per_pass
    return Outcome(attempted=n, failed=n, errors=[error])


def measure(workload, pool, seconds, tracers):
    """Cycle through the pool until ``seconds`` are measured.

    Every pool entry is prepared once and runs at least once, whatever
    ``seconds`` says. Each visit to an entry runs it once under each tracer,
    which is installed for that pass only; the order of the tracers turns by
    one from visit to visit, so that neither always runs first. The
    reference task runs before the first pass and after every pass. Returns,
    per tracer, its passes in the order they ran. Parsing, the reference and
    the checks stay outside the pass spans and so outside the measured time;
    the first pass of each entry gets the full checks.
    """
    prepared = [workload.prepare(item) for item in pool]
    runs = [[] for _ in tracers]
    measured, visit = 0.0, 0
    reference_seconds()  # warm-up: the first run of the task is slower
    before = reference_seconds()
    while visit < len(pool) or measured < seconds:
        item = prepared[visit % len(pool)]
        for k in range(len(tracers)):
            i = (visit + k) % len(tracers)
            span, output, error = _one_pass(workload, item, tracers[i])
            after = reference_seconds()
            outcome = _checked(workload, item, output, error, full=visit < len(pool))
            runs[i].append(Pass(visit % len(pool), span, outcome, (before + after) / 2))
            measured += span.duration
            before = after
        visit += 1
    return runs


def _tracer(workload, layers):
    from poosurv import genetics, inference, pedigree, simulate, survival

    tracer = Tracer()
    for owner, attr, name in workload.boundaries:
        tracer.wrap(owner, attr, name)
    if layers:
        for owner, attr, name, value_of in (
            (inference.MarginalEngine, "__init__", "inference.build", None),
            (inference.MarginalEngine, "run", "inference.estep", None),
            (genetics, "evidence_matrix", "genetics.evidence", None),
            (survival.CoxProblem, "__init__", "survival.problem_build", None),
            (survival.CoxProblem, "fit", "survival.newton", lambda r: r[3]),
            (survival.CoxProblem, "evaluate", "survival.evaluate", None),
            (survival.CoxProblem, "breslow", "survival.breslow", None),
            (simulate, "simulate_families", "simulate", None),
            (simulate, "em_fit", "em", lambda r: r.iterations),
            (pedigree, "parse_ped", "pedigree.parse", None),
        ):
            tracer.wrap(owner, attr, name, value_of)
    return tracer


def pass_ops(tracer, workload, passes):
    """The operation times of each pass."""
    ops = {tracer.spans.index(p.span): [] for p in passes}
    for s in tracer.spans:
        if s.name == workload.op_span and s.root in ops:
            ops[s.root].append(s.duration)
    return list(ops.values())


def percentile_note(samples):
    """Highest of p90/p99 with at least ten samples beyond it."""
    for p in (99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            return f"p{p} {float(np.percentile(samples, p)):.4f} s"
    return "too few samples for a p90"


def end_to_end(workload, pool, passes, tracer, setup):
    """Times are calibrated for host speed, pass by pass (``calibrate.py``).

    A pass's operation time is the mean of its operations (a study pass
    mixes rows whose EM runs take 5 to 45 iterations), scaled by the
    reference task timed around the pass. ``fit_s`` is the mean over pool
    entries of each entry's median calibrated operation time, so the
    variation of the data is averaged over the pool. ``families_per_s`` is
    the pool's families over the sum of the entries' median calibrated pass
    times, curve export and simulation included. The raw wall-clock figures
    are printed beside them.
    """
    ops = pass_ops(tracer, workload, passes)
    op_times, pass_times, families = {}, {}, {}
    for p, times in zip(passes, ops):
        if times:
            op_times.setdefault(p.entry, []).append(
                calibrated(statistics.mean(times), p.reference)
            )
        pass_times.setdefault(p.entry, []).append(calibrated(p.span.duration, p.reference))
        families[p.entry] = max(families.get(p.entry, 0), p.outcome.families)
    single = [t for times in ops for t in times]
    wall = sum(p.span.duration for p in passes)
    iterations = [n for p in passes[: len(pool)] for n in p.outcome.iterations]
    references = [p.reference for p in passes]
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "fit_s": (statistics.mean(map(statistics.median, op_times.values())), "s"),
        "families_per_s": (
            sum(families.values()) / sum(map(statistics.median, pass_times.values())), "1/s"
        ),
        "em_iterations": (statistics.mean(iterations), "count"),
        "peak_rss_mb": (setup["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": (
            f"calibrated by the run's median reference; median of {SETUP_REPEATS} "
            f"fresh interpreters, wall clock {setup['wall_setup_s']:.4f} s"
        ),
        "fit_s": (
            f"calibrated; {len(passes)} passes over {len(pool)} pool entries; wall clock "
            f"over all {len(single)} {workload.op_span} operations: median "
            f"{statistics.median(single):.4f} s, {percentile_note(single)}"
        ),
        "families_per_s": (
            f"calibrated; wall clock {sum(p.outcome.families for p in passes) / wall:.4g}/s "
            f"over {wall:.2f} s; reference median {statistics.median(references) * 1e3:.1f} ms "
            f"against {REFERENCE_SECONDS * 1e3:.1f} ms nominal"
        ),
        "em_iterations": f"mean over the {len(iterations)} fits of the input pool",
        "peak_rss_mb": "a fresh interpreter: import, parse, one operation",
    }
    samples = {
        "fit_seconds": single,
        "passes": [
            {"entry": p.entry, "seconds": p.span.duration, "reference": p.reference}
            for p in passes
        ],
        "iterations": iterations,
    }
    return metrics, notes, samples


def per_layer(workload, plain, untraced, tracer, passes, setup):
    stats = SpanStats(tracer.spans, "pass")
    n_pass = len(passes)
    wall = sum(p.span.duration for p in passes)
    newton = stats.named("survival.newton")
    evaluations = stats.child_count("survival.newton", "survival.evaluate")
    extra_evaluations = sum(evaluations) - len(newton)
    steps = sum(s.value for s in newton)
    em_iterations = sum(s.value for s in stats.named("em"))
    overhead = [
        calibrated(statistics.mean(t), pt.reference) / calibrated(statistics.mean(u), pu.reference)
        for t, u, pt, pu in zip(
            pass_ops(tracer, workload, passes), pass_ops(plain, workload, untraced),
            passes, untraced,
        )
        if t and u
    ]

    def ms(name):
        return stats.median(name) * 1e3

    def share(*names):
        return 100.0 * sum(stats.total(n) for n in names) / wall

    metrics = {
        "poosurv.import_s": (setup["import_s"], "s"),
        "pedigree.parse_s": (setup["parse_s"], "s"),
        "simulate.calls": (stats.count("simulate") / n_pass, "count"),
        "simulate.ms": (ms("simulate"), "ms"),
        "simulate.share": (share("simulate"), "%"),
        "genetics.evidence_ms": (ms("genetics.evidence"), "ms"),
        "inference.build_s": (stats.median("inference.build"), "s"),
        "inference.estep_calls": (stats.count("inference.estep") / n_pass, "count"),
        "inference.estep_ms": (ms("inference.estep"), "ms"),
        "inference.estep_share": (share("inference.estep"), "%"),
        "survival.problem_build_ms": (ms("survival.problem_build"), "ms"),
        "survival.newton_ms": (ms("survival.newton"), "ms"),
        "survival.breslow_ms": (ms("survival.breslow"), "ms"),
        "survival.mstep_share": (share("survival.newton", "survival.breslow"), "%"),
        "survival.evaluations": (sum(evaluations) / n_pass, "count"),
        "survival.step_accept_ratio": (
            steps / extra_evaluations if extra_evaluations else 1.0, "ratio"
        ),
        "survival.curve_ms": (ms("survival.curve"), "ms"),
        "em.self_ms_per_iter": (1e3 * stats.self_total("em") / em_iterations, "ms"),
        "trace.overhead_pct": (100.0 * (statistics.median(overhead) - 1.0), "%"),
    }
    notes = {
        "simulate.calls": "per pass",
        "inference.estep_calls": "per pass",
        "survival.evaluations": "per pass",
        "trace.overhead_pct": (
            f"median over {len(overhead)} visits to a pool entry of traced over untraced "
            f"calibrated {workload.op_span} time, the entry run both ways back to back"
        ),
    }
    return metrics, notes, {"overhead_ratios": overhead}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    pool = workload.inputs(args.seed)
    properties = workload.properties(workload.prepare(pool[0]))
    setup = measure_setup(workload, pool[0])

    plain = _tracer(workload, layers=False)
    if args.trace:
        tracer = _tracer(workload, layers=True)
        untraced, passes = measure(workload, pool, args.seconds, [plain, tracer])
        setup = calibrated_setup(setup, untraced + passes)
        metrics, notes, samples = per_layer(workload, plain, untraced, tracer, passes, setup)
        passes = untraced + passes
    else:
        (passes,) = measure(workload, pool, args.seconds, [plain])
        setup = calibrated_setup(setup, passes)
        metrics, notes, samples = end_to_end(workload, pool, passes, plain, setup)

    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    errors = [e for p in passes for e in p.outcome.errors]
    env = environment()

    print(f"workload {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {workload.why}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("inputs " + " ".join(f"{k}={v}" for k, v in properties.items()))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {value:>14.6g} {unit:<6}{note}")
    print(f"  {'error_rate':<28} {failed / attempted:>14.6g} share   "
          f"({failed} of {attempted} attempts failed a check or raised)")
    for error in errors[:10]:
        print("ERROR " + error.strip().replace("\n", "\n      "))

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as out:
        json.dump({
            **result, "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "environment": env,
            "inputs": properties, "error_rate": failed / attempted,
            "setup_samples": setup["samples"], **samples, "errors": errors,
        }, out, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
