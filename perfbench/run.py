"""stratasim benchmark: replication throughput on the paper's grids.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A *cell* is one ``harness.run_scenario``
call (one scenario at one seed); each workload is a closed loop with one
caller that runs cells back to back for ``--seconds`` (at least
``--min-cells`` of them, in whole rounds of its scenarios) and checks the
outputs.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a separate traced run.  The last stdout line is one
JSON object; the lines before it print every metric with its unit.

This process imports no numpy: it pins the BLAS thread variables to 1,
then times ``--setups`` fresh worker processes from start to the first
timed cell (``setup_s`` is their median) and lets the last of them
measure.  Times are scaled to a reference host speed (see ``speed.py``).
Results and the environment manifest also go to
``perfbench/out/``.  Metric names and units come from ``BENCHMARK.json``;
``DESIGN.md`` defines them and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PIN_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process, read line by line against a shared deadline."""

    def __init__(self, args: list[str], env: dict, deadline: float) -> None:
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True,
        )
        self._buf = b""

    def readline(self) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = self.deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise WorkerError("worker ran past the deadline")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise WorkerError(f"worker exited early (code {self.proc.wait()})")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def expect(self, prefix: str) -> str:
        line = self.readline()
        if not line.startswith(prefix):
            raise WorkerError(f"unexpected worker output {line[:200]!r}")
        return line[len(prefix):]

    def finish(self) -> None:
        code = self.proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        self.proc.stdout.close()
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self.proc.stdout.close()


def measure(args: argparse.Namespace) -> dict:
    env = dict(os.environ, **{name: "1" for name in PIN_THREADS})
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(args.setups - 1 if not args.trace else 0):
        worker = Worker([*common, "--seconds", "0", "--setup-only"], env, deadline)
        try:
            worker.expect("@ready")
            setups.append(time.perf_counter() - worker.started)
            worker.finish()
        finally:
            worker.kill()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    extra = ["--spans", str(out_dir / f"{stem}_spans.jsonl")] if args.trace else []
    worker = Worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--min-cells", str(args.min_cells), *extra], env, deadline)
    try:
        worker.expect("@ready")
        setups.append(time.perf_counter() - worker.started)
        result = json.loads(worker.expect("@result "))
        worker.finish()
    finally:
        worker.kill()
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples"] = setups
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def report(args: argparse.Namespace, result: dict) -> dict:
    """Print the human-readable table; return the final JSON line."""
    wl = result["workload"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"stratasim benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print(f"  {attempted} cells x {wl['reps_per_cell']} reps over {wl['scenarios']} "
          f"scenarios, threads=1, {result['replications']} replications "
          f"in {result['timed_s']:.2f} s")
    metrics = {}
    for spec in SPEC["per_layer" if args.trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<50} {value:>14.6g} {unit}")
    if args.trace:
        print(f"  {result['spans']} spans; layers idle on this workload read 0")
    else:
        print(f"  times are at the reference kernel's speed (perfbench/speed.py); the host "
              f"ran at {result['wall']['host_speed']:.3f} of it (median over cells), "
              f"{result['wall']['reps_per_s']:.6g} reps per wall-second")
        print(f"  {'failed_share':<50} {failed / attempted:>14.6g} share "
              f"({failed} of {attempted} cells)")
        print(f"  setup_s is the median of {len(result['setup_samples'])} set-ups; "
              f"p50/p90 are across {attempted} cells")
        print(f"  check invariants: rates in [0, 1] and valid + invalid == reps on "
              f"{result['invariant_cells_checked']} cells")
        for check in result["checks"]:
            print(f"  check {check['name']}: {check['detail']} "
                  f"(failed cells {check['failed_cells']})")
    print("  subgroup: not measured (closed form, on no simulation path)")
    print(f"  manifest {json.dumps(result['manifest'], sort_keys=True)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=3,
                        help="set-ups timed per run for setup_s (default 3)")
    parser.add_argument("--min-cells", type=int, default=100,
                        help="fewest timed cells per run (default 100; p90 needs 100)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.setups < 1 or args.min_cells < 1:
        parser.error("--seed must be >= 0; --seconds, --setups, --min-cells >= 1")
    try:
        result = measure(args)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
