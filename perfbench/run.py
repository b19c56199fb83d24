"""Benchmark of the cybordism CLI: closed-loop subprocess jobs, checked outputs.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` each job of the workload's pass runs as its own
``python3 -m cybordism`` subprocess, one after another (one client, the
next job starts when the previous one has exited), and passes repeat for
about ``--seconds``; the end-to-end metrics are medians over passes.
With ``--trace 1`` the same jobs run in-process through
``cybordism.cli.run``, once plain and once under :mod:`tracing`, and the
per-layer metrics come from the traced pass.

Every job's exit code and output are checked (:mod:`checks`); a job that
fails counts in ``failed``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import checks
import ksgen
import selftest
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_PASSES = 3
SETUP_REPEATS = 7
# a job still running after this long is killed and counts as failed,
# so that a hang cannot hold the run past its time limit
JOB_TIMEOUT_S = 60

# The host's speed drifts by up to 1.8x within minutes as other tenants
# load it, far beyond any bound a change could be held to.  So every job
# is preceded by a fixed pure-Python loop, and its wall time is scaled
# by CAL_REFERENCE_S / (the median loop time of the jobs around it): the
# reported seconds are seconds on a host where the loop takes
# CAL_REFERENCE_S, which is what it takes on the 2-core x86-64 VM
# (Python 3.11) this benchmark was defined on, when idle.
CAL_ITERATIONS = 200_000
CAL_REFERENCE_S = 0.0112

# per-layer count metric -> tracer counter
PER_LAYER_COUNTS = {
    "partitions.generator_partitions.yielded": "partitions.generator_partitions.yielded",
    "partitions.weighted_multinomial.calls": "partitions.weighted_multinomial",
    "partitions.weighted_multinomial_valuation.calls": "partitions.weighted_multinomial_valuation",
    "numthy.valuation.calls": "numthy.valuation",
    "numthy.is_prime.calls": "numthy.is_prime",
    "numthy.factorial_valuation.calls": "numthy.factorial_valuation",
    "cohomology.ring_mul.calls": tracing.RING_MUL,
    "toricdata.parse_ks.items": "toricdata.parse_ks.yielded",
}
# per-layer inclusive-time metric -> span name
PER_LAYER_TIMES = (
    "partitions.power_check.s",
    "generators.s_number_gcd.s",
    "generators.certificate.s",
    "generators.reverify_certificate.s",
    "cohomology.hypersurface_s_number.s",
    "cohomology.hypersurface_chern_numbers.s",
    "toricdata.verify_reflexive.s",
)


class Tally:
    """Jobs attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


def calibrate() -> float:
    start = time.perf_counter()
    total = 0
    for k in range(CAL_ITERATIONS):
        total += k * k
    return time.perf_counter() - start


def run_job(argv, env: dict, truths: dict, tally: Tally) -> dict:
    """One subprocess job: wall time, the child's own max RSS, checked output."""
    cal = calibrate()
    out_path, err_path = WORK / "job.out", WORK / "job.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "cybordism", *argv], stdout=out, stderr=err, cwd=ROOT, env=env
        )
        killer = threading.Timer(JOB_TIMEOUT_S, child.kill)
        killer.start()
        # wait4 gives this child's rusage alone; RUSAGE_CHILDREN would
        # report the maximum over every child reaped so far.
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
    child.returncode = code = os.waitstatus_to_exitcode(status)
    data = out_path.read_bytes()
    reason = checks.check(list(argv), code, data.decode("utf-8"), truths.get(_input(argv)))
    if reason is not None and code not in (0, 1):
        reason += " | stderr: " + err_path.read_text(errors="replace")[-300:]
    tally.record(reason)
    return {
        "argv": list(argv),
        "kind": workloads.kind(argv),
        "wall_s": wall,
        "cal_s": cal,
        "max_rss_mb": usage.ru_maxrss / 1024,
        "exit": code,
        "sha256": hashlib.sha256(data).hexdigest(),
        "ok": reason is None,
    }


def _input(argv) -> str | None:
    return argv[argv.index("--input") + 1] if "--input" in argv else None


def scaled(jobs: list[dict]) -> list[float]:
    """Each job's wall time at reference speed.

    A job is scaled by the median loop time of the five jobs around it,
    which follows the host's drift without taking one noisy sample at
    its word.
    """
    return [
        job["wall_s"] * CAL_REFERENCE_S / median(j["cal_s"] for j in jobs[max(0, i - 2) : i + 3])
        for i, job in enumerate(jobs)
    ]


def pass_times(jobs: list[dict]) -> dict[str, float]:
    """Scaled wall time per subcommand, and of the whole pass as ``wall_s``."""
    out = {"wall_s": 0.0}
    for job, value in zip(jobs, scaled(jobs)):
        out[job["kind"]] = out.get(job["kind"], 0.0) + value
        out["wall_s"] += value
    return out


def _repeat_until(seconds: float, one_round, minimum: int, tally: Tally) -> list:
    """Run rounds until another would overrun ``seconds`` (at least ``minimum``).

    Once a job has failed the result is incorrect, so no more rounds run.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        rounds.append(one_round())
        now = time.perf_counter()
        if tally.failed or (len(rounds) >= minimum and (now - start) + (now - begin) > seconds):
            return rounds


def end_to_end(jobs, seconds: float, truths: dict, tally: Tally):
    # a fixed hash seed keeps every job's dict and set layout the same
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    # the first start compiles bytecode; time the ones after it
    setup = [run_job(workloads.SETUP_JOB, env, truths, tally) for _ in range(SETUP_REPEATS + 1)]
    setup_s = median(scaled(setup[1:]))
    reports = _repeat_until(seconds, lambda: [run_job(a, env, truths, tally) for a in jobs], MIN_PASSES, tally)
    times = [pass_times(p) for p in reports]
    metrics = {
        "wall_s": (median(t["wall_s"] for t in times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (median(max(j["max_rss_mb"] for j in p) for p in reports), "MB"),
    }
    for name, metric in workloads.METRIC.items():
        metrics[metric] = (median(t.get(name, 0.0) for t in times), "s")
    return metrics, reports


def _in_process_pass(cli, jobs, truths: dict, tally: Tally, tracer=None) -> tuple[float, int]:
    """Run every job through ``cli.run``; returns wall time and stdout bytes."""
    wall, out_bytes = 0.0, 0
    for job_id, argv in enumerate(jobs):
        buffer = io.StringIO()
        if tracer is not None:
            tracer.job = job_id
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.run(list(argv))
        wall += time.perf_counter() - start
        text = buffer.getvalue()
        out_bytes += len(text.encode("utf-8"))
        tally.record(checks.check(list(argv), code, text, truths.get(_input(argv))))
    return wall, out_bytes


def per_layer(jobs, seconds: float, truths: dict, tally: Tally, spans_path: Path):
    sys.path.insert(0, str(SRC))
    import cybordism
    import cybordism.cli as cli

    tracer = tracing.Tracer()

    def one_pair():
        plain, _ = _in_process_pass(cli, jobs, truths, tally)
        tracer.reset()
        tracer.install(cybordism)
        try:
            traced, out_bytes = _in_process_pass(cli, jobs, truths, tally, tracer)
        finally:
            tracer.uninstall()
        values = {metric: tracer.calls.get(key, 0) for metric, key in PER_LAYER_COUNTS.items()}
        values["cohomology.ring_mul.max_terms"] = tracer.max_terms
        values["cli.out_bytes"] = out_bytes
        times = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0) for layer in tracing.LAYERS}
        times.update({name: tracer.inclusive_s.get(name[: -len(".s")], 0.0) for name in PER_LAYER_TIMES})
        times["trace.overhead_s"] = traced - plain
        tracer.dump(str(spans_path))
        return values, times

    pairs = _repeat_until(seconds, one_pair, 1, tally)
    counts = pairs[0][0]
    repeatable = all(values == counts for values, _ in pairs)
    metrics = {name: (value, "bytes" if name == "cli.out_bytes" else "count") for name, value in counts.items()}
    for name in pairs[0][1]:
        metrics[name] = (median(times[name] for _, times in pairs), "s")
    return metrics, repeatable, len(pairs)


def prepare(workload: str, seed: int) -> tuple[list, dict]:
    """The pass's jobs and the planted truth of every KS file they read."""
    jobs = workloads.jobs(workload, seed)
    truths = {workloads.SMOKE_KS: selftest.smoke_truth()}
    if workload == "toric":
        path = workloads.ks_path(seed)
        truths[path] = ksgen.generate(str(ROOT / path), workloads.KS_RECORDS, seed)
    return jobs, truths


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    jobs, truths = prepare(workload, seed)
    problems = selftest.mutations(truths[workloads.SMOKE_KS])
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    report = {"workload": workload, "seed": seed, "jobs": [list(a) for a in jobs], "selftest": problems}
    repeatable = True
    if trace:
        metrics, repeatable, pairs = per_layer(jobs, seconds, truths, tally, WORK / f"spans-{tag}.jsonl")
        report["traced_pairs"] = pairs
    else:
        metrics, passes = end_to_end(jobs, seconds, truths, tally)
        report["passes"] = passes
    report["failures"] = tally.reasons
    (WORK / f"report-{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    for reason in problems + tally.reasons:
        print(f"[{workload}] {reason}", file=sys.stderr)
    if not repeatable:
        print(f"[{workload}] per-layer counts differ between traced passes", file=sys.stderr)
    return {
        "correct": tally.failed == 0 and not problems and repeatable,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "cybordism" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'cybordism'} is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for name, result in results.items():
        print(f"{name}: {result['attempted']} jobs, {result['failed']} failed")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:50s} {entry['value']:>16.6f} {entry['unit']}")
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
