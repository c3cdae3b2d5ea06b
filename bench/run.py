#!/usr/bin/env python3
"""Benchmark of the superselect package: one workload, one run.

    python3 bench/run.py --workload basis_build --seed 1 --seconds 20 --trace 0

Run from the repository root. It imports the package from ``src/`` and the
dense oracle from ``tests/helpers.py`` (read only), runs the workload as a
closed loop with one client in this process, checks every output, and prints
one JSON line of diagnostics followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and reports the per-layer metrics. See
README.md in this directory.
"""

import os

# One BLAS thread, set before numpy is imported.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import refclock  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Set-up is timed this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 9
#: p90 needs at least ten samples beyond it; 13 keep the p90 of the
#: fewest-pass workload (basis_build) steady from run to run.
MIN_SAMPLES = 130
#: A run stops at --seconds once every kind has MIN_SAMPLES, and at this
#: multiple of --seconds in any case (the run must end within 180 s).
MAX_STRETCH = 2.5


class Runner:
    """Runs passes over a workload's jobs, each job bracketed by reference runs."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.refs: list[float] = []

    def _reference(self) -> float:
        ref = refclock.time_reference()
        self.refs.append(ref)
        return ref

    def run_pass(self, samples=None, raw=None, tracer=None):
        """One job of every kind; returns the pass's span counters if traced."""
        counts, ms = Counter(), Counter()
        prepared = [job.prepare(self.passes) for job in self.jobs]
        self.passes += 1
        last_ref = self._reference()  # opens the first job, after the inputs are made
        for job, (run, check) in zip(self.jobs, prepared):
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                output = run()
            except Exception as exc:  # a raising job counts as failed
                output = None
                self.errors.append(f"{job.kind}: {exc!r}")
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            try:
                ok = check(output)
            except Exception as exc:  # a malformed output fails its check
                ok = False
                self.errors.append(f"{job.kind}: check raised {exc!r}")
            del output
            ref = self._reference()
            scale = refclock.scaled_ms(1.0, last_ref, ref)
            last_ref = ref
            self.attempted += 1
            self.failed += not ok
            if samples is not None:
                samples[job.kind].append(elapsed * scale)
                raw[job.kind].append(elapsed * 1e3)
            if tracer is not None:
                job_counts, job_ms = layers.job_counters(tracer.take(), scale, job)
                counts.update(job_counts)
                ms.update(job_ms)
        return counts, ms

    def measure(self, seconds, tracer=None, min_samples=MIN_SAMPLES):
        """Passes for ``seconds``, longer until every kind has ``min_samples``."""
        samples = {job.kind: [] for job in self.jobs}
        raw = {job.kind: [] for job in self.jobs}
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(samples, raw, tracer))
            elapsed = time.perf_counter() - start
            enough = min(len(v) for v in samples.values()) >= min_samples
            if (elapsed >= seconds and enough) or elapsed >= seconds * MAX_STRETCH:
                return samples, raw, passes


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(samples) -> dict[str, float]:
    """The timing metrics from reference-scaled samples per kind."""
    medians = [statistics.median(v) for v in samples.values()]
    return {
        "items_per_s": len(medians) / (sum(medians) / 1e3),
        "pass_p90_ms": sum(nearest_rank(v, 90) for v in samples.values()),
        "slowest_job_ms": max(medians),
    }


def kind_diagnostics(samples, raw) -> dict:
    out = {}
    for kind, values in samples.items():
        n = len(values)
        out[kind] = {
            "samples": n,
            "beyond_p90": n - math.ceil(0.9 * n),
            "median_ms": statistics.median(values),
            "p90_ms": nearest_rank(values, 90),
            "raw_median_ms": statistics.median(raw[kind]),
            "raw_best_ms": min(raw[kind]),
        }
    return out


def time_setup(workload, seed, workdir):
    """Median reference-scaled set-up seconds over SETUP_REPEATS, and the last set-up."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        before = refclock.time_reference()
        t0 = time.perf_counter()
        program, work = workloads.set_up(workload, seed, workdir)
        elapsed = time.perf_counter() - t0
        after = refclock.time_reference()
        scaled.append(refclock.scaled_ms(elapsed, before, after) / 1e3)
        raw.append(elapsed)
    return statistics.median(scaled), {"scaled_s": scaled, "raw_s": raw}, program, work


def environment(ref_median_s) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "ref_constant_ms": refclock.REF_MS,
        "ref_median_ms": ref_median_s * 1e3,
    }


def seed_check(program, workload, seed, workdir, tracer, counts) -> dict:
    """Work counts of one traced pass on another seed's inputs must equal ``counts``."""
    os.makedirs(workdir, exist_ok=True)
    other = workloads.BUILDERS[workload](program, seed + 1, workdir)
    runner = Runner(other.jobs)
    runner.run_pass()  # full output checks
    other_counts, _ = runner.run_pass(tracer=tracer)
    result = {"other_seed": seed + 1, "failed": runner.failed,
              "counts_equal": other_counts == counts}
    if workload == "entangle_scan":  # only its support sizes are asserted
        same = other.term_counts == workloads.ENTANGLE_TERM_COUNTS
    else:
        same = result["counts_equal"]
    result["ok"] = same and runner.failed == 0
    return result


def run(args, spec, workdir):
    """The result line and the diagnostics; metric names and units come from ``spec``."""
    setup_s, setup_diag, program, work = time_setup(args.workload, args.seed, workdir)
    gc.collect()
    runner = Runner(work.jobs)
    runner.run_pass()  # warm-up; its outputs get the full oracle checks
    diagnostics = {"workload": args.workload, "seed": args.seed, "setup": setup_diag,
                   "term_counts": work.term_counts}
    correct = True
    if args.workload == "entangle_scan" and work.term_counts != workloads.ENTANGLE_TERM_COUNTS:
        correct = False
        diagnostics["term_counts_error"] = "entangle_scan support sizes differ from the fixed ones"

    if not args.trace:
        samples, raw, _ = runner.measure(args.seconds)
        values = end_to_end(samples)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["ok_ratio"] = (runner.attempted - runner.failed) / runner.attempted
        diagnostics["kinds"] = kind_diagnostics(samples, raw)
    else:
        # only medians are read from these halves, so no minimum sample count
        untraced, _, _ = runner.measure(args.seconds / 2, min_samples=0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, raw, passes = runner.measure(args.seconds / 2, tracer, min_samples=0)
            first_counts = passes[0][0]
            repeat = all(counts == first_counts for counts, _ in passes)
            check = seed_check(program, args.workload, args.seed,
                               os.path.join(workdir, "other_seed"), tracer, first_counts)
        finally:
            tracer.uninstall()
        # counts repeat in every pass (asserted), so the median is exact for them
        per_pass = [layers.pass_metrics(c, m) for c, m in passes]
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        ips_untraced = end_to_end(untraced)["items_per_s"]
        ips_traced = end_to_end(traced)["items_per_s"]
        values["trace.items_per_s_untraced"] = ips_untraced
        values["trace.items_per_s_traced"] = ips_traced
        diagnostics["kinds"] = kind_diagnostics(traced, raw)
        diagnostics["trace"] = {
            "passes": len(passes),
            "counts_repeat": repeat,
            "overhead_ratio": ips_untraced / ips_traced,
            "seed_check": check,
        }
        correct = correct and repeat and check["ok"]

    diagnostics["env"] = environment(statistics.median(runner.refs))
    diagnostics["errors"] = runner.errors[:10]
    result = {
        "correct": correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    return result, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    tests = os.path.join(ROOT, "tests")
    if not (os.path.isdir(os.path.join(src, "superselect"))
            and os.path.isfile(os.path.join(tests, "helpers.py"))):
        print(f"bench: no superselect sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, tests]

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = os.path.join(BENCH_DIR, f".work-{os.getpid()}")
    try:
        result, diagnostics = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
