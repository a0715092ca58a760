"""Run one workload of the hyperalg benchmark and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
Jobs run one at a time in one process (closed loop, numpy pinned to one
thread), in at least three whole passes over the seeded job list, and more
until the next pass would end well past ``--seconds``.  Times are rescaled
towards a reference host speed measured after every job (``reference.py``).
Every verdict is checked against ``known_answers.json``; the command exits
1 if any verdict differs.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``; with ``--trace 1`` one untraced and
one traced pass, and the per-layer metrics of the traced one.  Spans, the
per-layer summary and the full result are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("verify", "refute", "decide", "enumerate")
# the metrics that are times, also reported without the host-speed adjustment
TIMED = ("setup_s", "jobs_per_s", "verdict_s_p50", "verdict_s_p90")
SETUP_SAMPLES = 7
# every job runs at least three times; its time to verdict is the median
MIN_PASSES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help="build the inputs and exit")
    p.add_argument("--workdir", help="directory for the inputs of --setup-only")
    return p.parse_args(argv)


def import_package():
    """Import hyperalg from this checkout's src/, refusing any other copy."""
    if not (SRC / "hyperalg" / "__init__.py").is_file():
        raise SystemExit(f"error: no hyperalg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperalg

    if Path(hyperalg.__file__).resolve().parent != SRC / "hyperalg":
        raise SystemExit(f"error: imported hyperalg from {hyperalg.__file__}")
    return hyperalg


def machine_facts(load_at_start) -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            models = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
        cpu = models[0] if models else ""
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "loadavg_at_start": load_at_start,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def time_setup(args, reference) -> tuple[list[float], list[float]]:
    """Wall time of a fresh interpreter that imports hyperalg and builds the
    workload's inputs, several times, each with a reference sample taken
    before and after it."""
    samples, refs = [], []
    for i in range(SETUP_SAMPLES):
        workdir = OUT / f"setup-{args.workload}-{os.getpid()}-{i}"
        cmd = [
            sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir),
        ]
        before = reference.sample()
        t0 = time.perf_counter()
        # a blocking wait: Popen.wait(timeout) polls with sleeps of up to
        # 50 ms, which would quantise the samples
        code = subprocess.Popen(cmd, stdout=subprocess.DEVNULL).wait()
        samples.append(time.perf_counter() - t0)
        refs.append((before + reference.sample()) / 2)
        if code != 0:
            raise RuntimeError(f"set-up run exited with {code}")
        shutil.rmtree(workdir, ignore_errors=True)
    return samples, refs


class Runner:
    """Runs passes over one job list and keeps every job's outcome."""

    def __init__(self, workloads, jobs, ctx, known, reference=None):
        self.w = workloads
        self.jobs = jobs
        self.ctx = ctx
        self.known = known
        self.reference = reference
        # per pass: each job's time to verdict, and the reference sample after it
        self.times: list[list[float]] = []
        self.refs: list[list[float]] = []
        self.failed = 0
        self.undecided = 0
        self.failures: list[dict] = []

    def run_pass(self, tracer=None) -> float:
        """Run every job once and return the pass's wall time.  Untraced
        passes take a reference sample after each job, outside that time."""
        times, refs = [], []
        sampling = 0.0
        start = time.perf_counter()
        for index, job in enumerate(self.jobs):
            got, error = None, None
            if tracer is not None:
                tracer.job = index
                span = tracer.open("bench.job")
            t0 = time.perf_counter()
            try:
                got = self.w.run_job(job, self.ctx, index)
            except Exception:  # a job that raises is a failed job, not a crash
                error = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
            times.append(t1 - t0)
            self._judge(job, got, error)
            if tracer is None and self.reference is not None:
                r0 = time.perf_counter()
                refs.append(self.reference.sample())
                sampling += time.perf_counter() - r0
        self.times.append(times)
        self.refs.append(refs)
        return time.perf_counter() - start - sampling

    def attempted(self) -> int:
        return sum(len(ts) for ts in self.times)

    def _judge(self, job, got, error) -> None:
        answer = self.known.get(job["key"])
        if got is not None and answer is not None and self.w.matches(answer["expect"], got):
            self.undecided += self.w.undecided(got)
            return
        self.failed += 1
        if len(self.failures) < 20:
            if got is not None and "stdout" in got:
                got = {**got, "stdout": got["stdout"][-400:]}
            reason = "no known answer" if answer is None else error or "verdict differs"
            self.failures.append({"key": job["key"], "got": got, "reason": reason})


def main(argv=None) -> int:
    load_at_start = list(os.getloadavg())
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_package()
    sys.path.insert(0, str(HERE))
    import metrics
    import reference
    import spans
    import workloads

    jobs = workloads.job_list(args.workload, args.seed)
    if args.setup_only:
        workloads.build_context(args.workload, args.seed, jobs, Path(args.workdir))
        return 0

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        setup_samples, setup_refs = time_setup(args, reference)
        known = json.loads((HERE / "known_answers.json").read_text())["answers"]
        ctx = workloads.build_context(args.workload, args.seed, jobs, workdir)
        runner = Runner(workloads, jobs, ctx, known, reference)

        walls = []
        trace_summary = unadjusted = None
        if args.trace:
            untraced = runner.run_pass()
            tracer = spans.Tracer()
            tracer.install()
            try:
                origin = time.perf_counter()
                traced = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            walls = [untraced, traced]
            result_metrics, trace_summary = spans.layer_report(tracer, origin, traced, untraced)
            tracer.write(OUT / f"spans-{tag}.jsonl", origin)
        else:
            elapsed = 0.0
            while len(walls) < MIN_PASSES or elapsed + 0.5 * walls[-1] < args.seconds:
                walls.append(runner.run_pass())
                elapsed += walls[-1]
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            counts = (runner.failed, runner.undecided)
            adjusted = [
                metrics.host_adjusted(ts, rs, reference.NOMINAL_S)
                for ts, rs in zip(runner.times, runner.refs)
            ]
            setup_adjusted = [
                metrics.rescale(t, r, reference.NOMINAL_S)
                for t, r in zip(setup_samples, setup_refs)
            ]
            result_metrics = metrics.end_to_end(adjusted, *counts, setup_adjusted, rss_mb)
            raw = metrics.end_to_end(runner.times, *counts, setup_samples, rss_mb)
            unadjusted = {k: raw[k]["value"] for k in TIMED}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = runner.attempted()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "job_list_sha256": workloads.job_list_hash(jobs),
        "jobs_per_pass": len(jobs),
        "pass_walls_s": walls,
        "setup_samples_s": setup_samples,
        "setup_reference_s": setup_refs,
        "reference_s": {
            "nominal": reference.NOMINAL_S,
            "median": statistics.median(r for rs in runner.refs + [setup_refs] for r in rs),
        },
        "unadjusted": unadjusted,
        "machine": machine_facts(load_at_start),
        "failures": runner.failures,
        "reference_samples_s": runner.refs,
        "job_times_s": {
            f"{j['key']}#{i}": list(ts) for i, (j, ts) in enumerate(zip(jobs, zip(*runner.times)))
        },
    }
    if trace_summary is not None:
        info["trace_summary"] = trace_summary
    result = {
        "correct": runner.failed == 0,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": result_metrics,
    }
    result_file = OUT / f"result-{tag}-trace{args.trace}.json"
    result_file.write_text(json.dumps({**info, **result}, indent=1) + "\n")
    for f in runner.failures:
        print(f"FAILED {f['key']}: {f['reason']} got={f['got']}", file=sys.stderr)
    shown = ("workload", "seed", "job_list_sha256", "jobs_per_pass", "pass_walls_s",
             "reference_s", "unadjusted", "machine")
    print(json.dumps({k: info[k] for k in shown}))
    print(json.dumps(result))
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
