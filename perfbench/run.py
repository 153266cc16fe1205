"""Benchmark of whole guidance-learn CLI jobs, one workload per process.

    python3 perfbench/run.py --workload desk-student --seed 1 --seconds 30 --trace 0

The process is one closed-loop client: it sets the workload up (timed, in
fresh processes), runs one untraced warm-up job, then runs jobs back to
back through `guidance_learn.cli.main` for `--seconds`, checking every
job's artifacts against the warm-up job's. The last stdout line is one JSON
object {correct, attempted, failed, metrics}: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
A traced run alternates untraced jobs with jobs that have span wrappers
installed (see spans.py); the traced jobs must reproduce the warm-up
artifacts too. Details, machine facts and spans go to .bench_work/results/.

`--record` runs the set-up and one job, checks it, and stores its student
test accuracy in perfbench/expected.json, which later runs must match.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import os

# Pin the BLAS thread count before numpy loads: left free, it follows the
# machine and job times drift between runs.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)
# desk-sweep-beta runs the sweep with its default worker count.
os.environ.pop("GUIDANCE_LEARN_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# Set-ups per run; a wide-student set-up trains a teacher (several seconds),
# the others take a fraction of a second, so they can repeat more often.
SETUP_REPEATS = {"wide-student": 3}
DEFAULT_SETUP_REPEATS = 7
MIN_JOBS = 2


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {v: os.environ.get(v) for v in (*THREAD_VARS, "GUIDANCE_LEARN_THREADS")},
    }


def set_up(args, run_dir: Path) -> tuple[list[float], Path]:
    """Run the set-up stage in fresh processes, as often as SETUP_REPEATS
    says (once to record); every repeat must write the same config, plan
    and teacher."""
    times, outputs = [], []
    for k in range(SETUP_REPEATS.get(args.workload, DEFAULT_SETUP_REPEATS)):
        out = run_dir / f"setup-{k}"
        cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale, "--out", str(out)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed ({proc.returncode}):\n{proc.stderr}")
        files = [out / "plan.json", out / "config.json"]
        if args.workload == "wide-student":
            files.append(out / "teacher" / "teacher.ckpt")
        outputs.append([p.read_bytes() for p in files])
        if args.record:
            break
    if any(o != outputs[0] for o in outputs):
        raise SystemExit("set-up is not deterministic: repeats wrote different files")
    return times, run_dir / "setup-0"


class Runner:
    """Runs jobs, times them, and checks each one's artifacts."""

    def __init__(self, args, run_dir: Path, setup_dir: Path):
        from guidance_learn import cli

        self.cli = cli
        self.args = args
        self.run_dir = run_dir
        self.config_path = setup_dir / "config.json"
        self.teacher = (setup_dir / "teacher" / "teacher.ckpt"
                        if args.workload == "wide-student" else None)
        self.names = workloads.ARTIFACTS[args.workload]
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def job(self, job_id: int) -> tuple[float, Path]:
        out = self.run_dir / f"job-{job_id}"
        argv = workloads.job_argv(self.args.workload, self.args.seed, str(self.config_path),
                                  str(out), None if self.teacher is None else str(self.teacher))
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            rc = self.cli.main(argv)
            elapsed = perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"job {job_id}: CLI exited {rc}")
        return elapsed, out

    def timed(self, job_id: int) -> float | None:
        """One checked job; None when it failed."""
        self.attempted += 1
        out = None
        try:
            elapsed, out = self.job(job_id)
            got = checks.digests(out, self.names)
            bad = [n for n in self.names if got[n] != self.reference[n]]
            if bad:
                raise checks.CheckError(
                    f"job {job_id}: {', '.join(bad)} differ from the warm-up job")
            return elapsed
        except (checks.CheckError, RuntimeError, OSError) as exc:
            self.failed += 1
            print(f"FAILED: {exc}", file=sys.stderr)
            return None
        finally:
            if out is not None:
                shutil.rmtree(out, ignore_errors=True)

    def loop(self, seconds: float, tracer=None) -> tuple[list[float], list[float], set[int]]:
        """Jobs back to back for `seconds`: (untraced times, traced times,
        ids of traced jobs that passed). With a tracer, jobs run in the
        order untraced, traced, traced, untraced, ... so that a machine
        speeding up or slowing down during the run biases neither side."""
        untraced, traced, traced_ids = [], [], set()
        t0 = perf_counter()
        k = 0
        while perf_counter() - t0 < seconds or k < MIN_JOBS:
            self.count += 1
            trace_this = tracer is not None and k % 4 in (1, 2)
            k += 1
            if trace_this:
                tracer.job = self.count
                tracer.install()
            try:
                elapsed = self.timed(self.count)
            finally:
                if trace_this:
                    tracer.uninstall()
            if elapsed is None:
                continue
            if trace_this:
                traced.append(elapsed)
                traced_ids.add(self.count)
            else:
                untraced.append(elapsed)
        return untraced, traced, traced_ids


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="tiny shrinks every workload for the smoke test")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's student test accuracy in expected.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "guidance_learn" / "cli.py").is_file():
        print(f"error: no guidance_learn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return run(args, run_dir, declared)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, run_dir: Path, declared: dict) -> int:
    setup_times, setup_dir = set_up(args, run_dir)
    doc = json.loads((setup_dir / "config.json").read_text(encoding="utf-8"))
    plan = json.loads((setup_dir / "plan.json").read_text(encoding="utf-8"))
    runner = Runner(args, run_dir, setup_dir)

    # Warm-up job: untimed, checked on its own, the reference for every later job.
    runner.attempted += 1
    try:
        _, out = runner.job(0)
        runner.reference = checks.digests(out, runner.names)
        acc = checks.check_reference(args.workload, args.scale, args.seed, out, doc, plan,
                                     workloads.recipe(doc), runner.teacher)
    except (checks.CheckError, RuntimeError, OSError) as exc:
        print(f"FAILED: warm-up job: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    shutil.rmtree(out, ignore_errors=True)

    if args.record:
        checks.record_expected(args.workload, args.seed, acc)
        print(f"recorded {args.workload} seed {args.seed}: student_test_acc {acc!r}")
        return 0

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale, "machine": machine(), "plan": plan,
            "setup_s": setup_times, "student_test_acc": acc}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer = spans.Tracer()
        untraced, traced, traced_ids = runner.loop(args.seconds, tracer)
        values = {}
        if untraced and traced:
            values = spans.job_metrics(tracer, traced_ids, plan)
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        if untraced:
            values["job_s_p50"] = statistics.median(untraced)
            values["job_s_tail"], info["tail_percentile"] = spans.tail(untraced)
        values["student_test_acc"] = acc
        values["job_fail_ratio"] = runner.failed / runner.attempted
        info["jobs"] = {"untraced_s": untraced, "traced_s": traced}
        tracer.write(results_dir / f"{stem}.spans.jsonl")
        wanted = declared["per_layer"]
    else:
        times, _, _ = runner.loop(args.seconds)
        values = {}
        if times:
            # The closed loop's throughput: total job time over jobs. On a host
            # whose speed switches between phases the job times are bimodal,
            # and their median jumps between the modes; the mean moves with
            # the share of time spent in each, so it spreads less between runs.
            mean = statistics.fmean(times)
            values = {
                "setup_s": statistics.median(setup_times),
                "job_s_mean": mean,
                "train_samples_per_s": plan["rows"] / mean,
                "cells_per_s": plan["cells"] / mean,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            info["job_s_p50"] = statistics.median(times)
            info["job_s_tail"], info["tail_percentile"] = spans.tail(times)
        info["jobs"] = {"timed_s": times}
        wanted = declared["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = runner.failed == 0 and len(metrics) == len(wanted)
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    info["result"] = result
    (results_dir / f"{stem}.json").write_text(json.dumps(info, indent=1) + "\n",
                                              encoding="utf-8")
    print(json.dumps({k: info.get(k) for k in ("workload", "seed", "student_test_acc",
                                               "job_s_p50", "job_s_tail", "tail_percentile",
                                               "machine")}
                     | {"timed_jobs": runner.attempted - 1}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
