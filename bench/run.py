"""sqdci benchmark: one workload through ``sqdci run``, end to end.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout. The load is a closed loop with one client:
one CLI child process at a time, each started when the previous one has
exited, for ``--seconds`` seconds. Inputs are generated from the seed by
``workloads.py``; each result is checked against ``references.json``.

``--trace 0`` prints the end-to-end metrics of untraced runs: the median
wall time of one CLI child (``wall_s``), the median set-up time of a
fresh interpreter that imports ``sqdci.cli`` and reads the inputs
(``setup_s``), and the median peak RSS of one CLI child. Other tenants
of a shared machine slow its cores by 20-50% for minutes at a time, so
each sample's time is scaled to reference speed: it is multiplied by
``CALIBRATION_REF_S`` over the time of a fixed pure-Python loop run on the
same core just before and after the sample. The unscaled times are kept
in the record. ``--workload all`` measures every workload in turn.
``--trace 1`` alternates untraced and traced runs (``traced_cli.py``)
and prints the per-layer metrics of the traced runs plus the tracing
overhead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full record (environment, input hashes, every sample, notes). A
readable table goes to standard error.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from tracer import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One BLAS thread (at most nproc): the workloads are dominated by
# single-threaded Python, and all processes share one pinned core.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 120.0
BELOW_FCI_TOL = 1e-8        # Ha: a variational energy may not undercut E_FCI
DETERMINISTIC_TOL = 1e-10   # Ha: deterministic methods repeat the seed commit

# Time of ``calibration_time``'s loop on an idle core of the reference
# machine (2-core Xeon VM, Python 3.11). End-to-end times are reported at
# that speed; see the module docstring.
CALIBRATION_REF_S = 0.02
CALIBRATION_REPEATS = 8

CLI_MAIN = "import sys; from sqdci.cli import main; sys.exit(main())"
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], log: Path,
          out: Path | None = None) -> tuple[int, float, float, float]:
    """Run one child to exit: (exit code, wall s, CPU s, peak RSS in MB).

    Standard error goes to ``log``, standard output to ``out`` if given.
    The wait blocks in ``wait4``, so the wall time carries no polling
    delay, and the rusage is that child's alone.
    """
    with open(log, "wb") as err, open(out or os.devnull, "wb") as stdout:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def calibration_time() -> float:
    """Median time of a fixed pure-Python loop: this core's speed now."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def gate(ref: dict, hashes: dict, energy) -> str | None:
    """Why a result is wrong, or None when it passes."""
    if hashes != ref["inputs"]:
        return "inputs differ from the ones the references were computed on"
    if not isinstance(energy, float) or not math.isfinite(energy):
        return f"energy {energy!r} is not a finite number"
    if energy < ref["e_fci"] - BELOW_FCI_TOL:
        return f"energy {energy!r} lies below E_FCI {ref['e_fci']!r}"
    if "energy" in ref and abs(energy - ref["energy"]) > DETERMINISTIC_TOL:
        return f"energy {energy!r} differs from the seed commit's {ref['energy']!r}"
    return None


def environment() -> dict:
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30).stdout.split()
        commit = commit if Path(top).resolve() == ROOT else "unknown"
    except (OSError, ValueError, subprocess.TimeoutExpired):
        commit = "unknown"
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), **versions, "commit": commit}


class Bench:
    def __init__(self, wl: workloads.Workload, seed: int, workdir: Path):
        self.wl = wl
        self.instance = workloads.instance_of(seed)
        self.workdir = workdir
        self.files = workloads.write_inputs(wl, self.instance, workdir / "inputs")
        self.hashes = {flag: workloads.sha256(path)
                       for flag, path in self.files.items()}
        refs = json.loads((BENCH / "references.json").read_text())
        self.ref = refs["workloads"][wl.name][str(self.instance)]
        self.runs = 0
        self.failures: list[str] = []

    def setup_time(self) -> float:
        """A fresh interpreter imports ``sqdci.cli`` and reads the inputs."""
        argv = [sys.executable, str(BENCH / "setup_probe.py")]
        for flag, path in self.files.items():
            argv += [flag, str(path)]
        out, log = self.workdir / "setup.out", self.workdir / "setup.log"
        code, elapsed, _, _ = spawn(argv, log, out)
        if code != 0:
            raise RuntimeError(f"setup probe failed:\n{log.read_text()}")
        origin = Path(out.read_text().strip()).resolve()
        if SRC.resolve() not in origin.parents:
            raise RuntimeError(f"sqdci imported from {origin}, not {SRC}")
        return elapsed

    def run_once(self, traced: bool) -> dict:
        """One CLI run: timing, peak RSS, energy, gate verdict, trace."""
        self.runs += 1
        tag = f"{self.runs:04d}"
        record_path = self.workdir / f"record-{tag}.json"
        trace_path = self.workdir / f"trace-{tag}.json"
        cli = workloads.cli_args(self.wl, self.files, self.instance)
        cli += ["--out", str(record_path)]
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"),
                    str(trace_path), *cli]
        else:
            argv = [sys.executable, "-c", CLI_MAIN, *cli]
        log = self.workdir / f"stderr-{tag}.log"
        code, wall, cpu, rss = spawn(argv, log)
        sample = {"traced": traced, "exit": code, "wall_s": wall, "cpu_s": cpu,
                  "peak_rss_mb": rss, "energy": None}
        if code == 0:
            sample["energy"] = json.loads(record_path.read_text()).get("energy")
            problem = gate(self.ref, self.hashes, sample["energy"])
        else:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            problem = f"exit code {code}: {' '.join(tail)}"
        if problem:
            sample["failure"] = problem
            self.failures.append(problem)
        elif traced:
            sample["layers"], sample["notes"] = layer_metrics(
                json.loads(trace_path.read_text()))
            sample["layers"]["energy_gap_mha"] = (
                1000.0 * (sample["energy"] - self.ref["e_fci"]))
        for path in (record_path, trace_path, log):
            path.unlink(missing_ok=True)
        return sample


def median_of(samples: list[dict], key: str, scaled: bool = False) -> float:
    """Median of one field; ``scaled`` converts times to reference speed."""
    if scaled:
        return statistics.median(s[key] * CALIBRATION_REF_S / s["calibration_s"]
                                 for s in samples)
    return statistics.median(s[key] for s in samples)


def measure(name: str, seed: int, seconds: float, trace: int) -> int:
    """Run one workload for ``seconds`` and print its record and result."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        bench = Bench(workloads.WORKLOADS[name], seed, workdir)
        bench.setup_time()  # untimed: fills the bytecode cache
        samples = []
        calibration = calibration_time()
        deadline = time.perf_counter() + seconds
        # Set-up probes and calibrations are interleaved with the CLI runs,
        # so every median averages over the same stretch of machine time.
        while not samples or time.perf_counter() < deadline:
            if trace:
                samples.append(bench.run_once(traced=False))
                samples.append(bench.run_once(traced=True))
            else:
                before = calibration
                setup_s = bench.setup_time()
                sample = bench.run_once(traced=False)
                calibration = calibration_time()
                sample["calibration_s"] = (before + calibration) / 2
                sample["setup_s"] = setup_s
                samples.append(sample)
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [s for s in samples if not s["traced"] and "failure" not in s]
    traced = [s for s in samples if s["traced"] and "failure" not in s]
    metrics, units, notes = {}, {}, []
    if trace:
        for metric in sorted({k for s in traced for k in s["layers"]}):
            metrics[metric] = statistics.median(
                s["layers"][metric] for s in traced if metric in s["layers"])
            units[metric] = unit_of(metric)
        if plain and traced:
            metrics["trace.overhead_s"] = (median_of(traced, "wall_s")
                                           - median_of(plain, "wall_s"))
            units["trace.overhead_s"] = "s"
        notes = sorted({n for s in traced for n in s["notes"]})
    else:
        if plain:
            metrics["wall_s"] = median_of(plain, "wall_s", scaled=True)
            metrics["peak_rss_mb"] = median_of(plain, "peak_rss_mb")
        metrics["setup_s"] = median_of(samples, "setup_s", scaled=True)
        units = END_TO_END_UNITS

    attempted, failed = len(samples), len(bench.failures)
    record = {"workload": name, "seed": seed, "instance": bench.instance,
              "seconds": seconds, "trace": trace,
              "environment": environment(), "inputs": bench.hashes,
              "samples": samples, "fail_rate": failed / attempted,
              "notes": notes}
    print(json.dumps(record, sort_keys=True))

    print(f"{name} seed={seed} instance={bench.instance} runs={attempted} "
          f"fail_rate={failed / attempted:.3f}", file=sys.stderr)
    for metric, value in metrics.items():
        print(f"  {metric:32s} {value:14.6g} {units[metric]}", file=sys.stderr)
    if not trace:
        print(f"  unscaled medians: wall {median_of(samples, 'wall_s'):.4g} s, "
              f"setup {median_of(samples, 'setup_s'):.4g} s, calibration "
              f"{median_of(samples, 'calibration_s'):.4g} s "
              f"(reference {CALIBRATION_REF_S} s)", file=sys.stderr)
    for problem in sorted(set(bench.failures)):
        print(f"  FAILED: {problem}", file=sys.stderr)
    for note in notes:
        print(f"  note: {note}", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {metric: {"value": value, "unit": units[metric]}
                          for metric, value in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sqdci" / "cli.py").is_file():
        print(f"error: no sqdci sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    # One core for the benchmark and its children: the calibration loop
    # then times the core the CLI runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # SIGTERM unwinds like an interrupt, so children are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        code = measure(name, args.seed, args.seconds, args.trace)
        if code:
            return code
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mha"):
        return "mHa"
    if metric.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
