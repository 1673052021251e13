r"""Solver benchmark: time to solution of two reference runs.

    python3 perfbench/run.py --workload two-layer-60 --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/`` (nothing is installed); without it the benchmark exits
with status 2 and prints no result.  BLAS/OpenMP threads are pinned to one,
and the benchmark with every process it starts to one CPU.

``--trace 0`` reports the end-to-end metrics with no hooks installed, each
timed sample scaled to the reference host speed by a calibration kernel time
taken right beside it (``hostspeed``); the measured figures are reported
too.
``--trace 1`` alternates untraced and traced repetitions (the seed's parity
decides which kind runs first), reports the per-layer metrics from the
traced ones and the tracing overhead against the untraced ones, and writes
the spans to ``perfbench/out/``.  The workloads are fixed reference problems
whose results are checked against recorded fingerprints, so the seed selects
no input data.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report.  The full result, with the environment, goes
to ``perfbench/out/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import select
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import gate
import tracer as tracer_mod

# hostspeed imports numpy, so it is imported where it is used: numpy must
# not be loaded before pin_threads() or before the set-up helper is forked

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PROBE_TIMEOUT_S = 120


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``porousflow`` sources."""


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread, and the process and its children
    to one CPU, the last it may use: the workload, the set-up probes and the
    calibration kernel then all run on the same CPU, one at a time.  Must
    precede importing numpy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_program() -> None:
    """Import ``porousflow`` from the checkout's ``src/`` and nowhere else."""
    pkg = ROOT / "src" / "porousflow"
    if not (pkg / "__init__.py").is_file():
        raise ProgramMissing(f"no porousflow sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    try:
        import porousflow
    except ImportError as exc:
        raise ProgramMissing(f"porousflow does not import: {exc}") from exc
    if Path(porousflow.__file__).resolve().parent != pkg.resolve():
        raise ProgramMissing(f"porousflow imported from "
                             f"{porousflow.__file__}, not from {pkg}")


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        os_threads = len(os.listdir("/proc/self/task"))
    except OSError:
        os_threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "os_threads": os_threads,
    }


class SetupProbes:
    """Cold set-ups of a workload and host-speed calibration kernel times,
    taken on request throughout a run.

    A helper process is forked before the program, or even numpy, is
    imported: a process forked later shares the workload's heap
    copy-on-write, and while it lives every step of the workload leaves the
    next large allocation slower (on the reference box a 50 ms kernel took
    100 ms right after a step).  The helper calls ``make_workload`` once and
    then, for each probe, forks a child that times one ``workload.setup()``,
    so every set-up starts with the program imported and every cache of the
    program empty, as in a fresh process, without paying the imports.
    Because the helper stays cold, the probes can be spread between the
    repetitions, and ``setup_s`` samples the host over the whole run, as the
    other metrics do.  The helper also times the calibration kernel of
    ``hostspeed`` itself, so the kernel's data never counts in the
    workload's memory.  The processes take turns: the parent waits while the
    helper works.
    """

    def __init__(self, make_workload):
        req_r, self._req_w = os.pipe()
        self._res_r, res_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self._pid = os.fork()
        if self._pid == 0:      # helper: leave without the parent's cleanup
            os.close(self._req_w)
            os.close(self._res_r)
            os.setpgid(0, 0)    # so a hung probe can be killed with it
            status = 0
            workload = kernel = None
            try:
                while request := os.read(req_r, 1):
                    if request == b"c":
                        if kernel is None:
                            import hostspeed
                            kernel = hostspeed.Kernel()
                        os.write(res_w, repr(kernel.sample()).encode())
                    else:
                        workload = workload or make_workload()
                        self._serve(workload, res_w)
            except BaseException:
                traceback.print_exc()
                status = 1
            sys.stderr.flush()
            os._exit(status)
        os.close(req_r)
        os.close(res_w)
        self.times: list = []
        self.kernel_s: list = []
        self.requests = 0
        self.taken = 0
        self.failures = 0

    @staticmethod
    def _serve(workload, res_w: int) -> None:
        pid = os.fork()
        if pid == 0:
            status = 0
            try:
                t0 = time.perf_counter()
                workload.setup()
                os.write(res_w, repr(time.perf_counter() - t0).encode())
            except BaseException:
                traceback.print_exc()
                status = 1
            sys.stderr.flush()
            os._exit(status)
        if os.waitpid(pid, 0)[1] != 0:
            os.write(res_w, b"failed")

    def _ask(self, request: bytes, what: str) -> float | None:
        """The helper's answer, or ``None`` after counting a failure."""
        self.requests += 1
        if self._pid is None:       # the helper is gone
            self.failures += 1
            return None
        try:
            os.write(self._req_w, request)
        except BrokenPipeError:
            reply, ready = b"", True
        else:
            ready, _, _ = select.select([self._res_r], [], [], PROBE_TIMEOUT_S)
            reply = os.read(self._res_r, 64) if ready else b"timed out"
        try:
            return float(reply)
        except ValueError:
            sys.stderr.write(f"{what} {reply.decode() or 'lost'}\n")
            self.failures += 1
            if not ready or not reply:      # hung, or the helper died
                self.close(kill=not ready)
            return None

    def take(self, count: int) -> None:
        """Time ``count`` more cold set-ups, each paired with a kernel time
        taken right after it."""
        for _ in range(count):
            self.taken += 1
            probe = self._ask(b"x", "set-up probe")
            if probe is not None:
                kernel = self._ask(b"c", "calibration sample")
                if kernel is not None:
                    self.times.append(probe)
                    self.kernel_s.append(kernel)

    def calibrate(self) -> float:
        """Time the calibration kernel once; raise if that fails."""
        kernel = self._ask(b"c", "calibration sample")
        if kernel is None:
            raise RuntimeError("the calibration kernel failed")
        return kernel

    def close(self, kill: bool = False) -> None:
        """Stop the helper and wait for it."""
        if self._pid is None:
            return
        if kill:
            os.killpg(self._pid, signal.SIGKILL)
        os.close(self._req_w)
        os.close(self._res_r)
        os.waitpid(self._pid, 0)
        self._pid = None


def tail(samples: list) -> tuple[float, float]:
    """Highest sample with at least ten samples beyond it, and its
    percentile; the maximum when there are fewer than eleven samples."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    idx = len(ordered) - 11
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def _summary(setup, run, startup, step, dof_rate) -> dict:
    """End-to-end metrics from the samples of one run."""
    med = (lambda xs: statistics.median(xs) if xs else 0.0)
    return {
        "setup_s": (med(setup), "s"),
        "run_s": (med(run), "s"),
        "startup_s": (med(startup), "s"),
        "step_s.p50": (med(step), "s"),
        "step_s.tail": (tail(step)[0] if step else 0.0, "s"),
        "dof_steps_per_s": (med(dof_rate), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


class Run:
    """A fixed number of repetitions of one workload, each checked by the
    correctness gate."""

    def __init__(self, workload, reference, seconds: float, trace: bool,
                 seed: int, work_dir: Path):
        self.workload = workload
        self.reference = reference
        self.seconds = seconds
        self.trace = trace
        self.traced_first = seed % 2 == 1
        self.work_dir = work_dir
        self.reps: list = []          # (traced, RepResult)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.absent: list = []
        self.tracer = None

    def _one(self, prepared, traced: bool, calibrate):
        if not traced:
            return self.workload.rep(prepared, self.work_dir, calibrate)
        with self.tracer.installed() as absent, self.tracer.phase("bench.rep"):
            self.absent = absent
            return self.workload.rep(prepared, self.work_dir, calibrate)

    def _check(self, result) -> bool:
        attempted, failed, problems = gate.check(
            result.fingerprint if result else None, self.reference)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems
        return failed == 0

    def _setup(self):
        if not self.trace:
            return self.workload.setup()
        self.tracer = tracer_mod.Tracer()
        with self.tracer.installed() as self.absent, \
                self.tracer.phase("bench.setup"):
            return self.workload.setup()

    def execute(self, probes: SetupProbes | None):
        """Set up once and run the repetitions; with ``probes``, take the
        cold set-up probes in equal shares before, between and after them,
        and calibrate the repetitions' timed samples."""
        calibrate = probes.calibrate if probes else None
        try:
            prepared = self._setup()
        except Exception:   # the program failed: every check fails
            traceback.print_exc()
            self._check(None)
            return
        # a fixed amount of work per run, so every run pools the same number
        # of step samples and the tail percentile stays the same
        n_reps = max(2 if self.trace else 1,
                     math.ceil(self.seconds / self.workload.rep_seconds))
        for i in range(n_reps):
            if probes:
                n = self.workload.setup_probes
                probes.take(n * (i + 1) // (n_reps + 1) - n * i // (n_reps + 1))
            traced = self.trace and (i % 2 == 0) == self.traced_first
            try:
                result = self._one(prepared, traced, calibrate)
            except Exception:   # the program failed: record it, stop measuring
                traceback.print_exc()
                result = None
            if result is not None:
                self.reps.append((traced, result))
            if not self._check(result):
                break

    def end_to_end(self, setup_times: list,
                   setup_kernel_s: list) -> tuple[dict, dict, dict]:
        """The end-to-end metrics, every timed sample scaled to the
        reference host speed by the kernel times paired with it; the same
        metrics as measured; and notes."""
        from hostspeed import scale

        reps = [r for traced, r in self.reps if not traced]
        steps = [t for r in reps for t in r.step_s]
        runs = [scale([r.run_s], [statistics.median(r.run_kernel_s)])[0]
                for r in reps]
        metrics = _summary(
            scale(setup_times, setup_kernel_s), runs,
            [t for r in reps for t in scale(r.startup_s, r.startup_kernel_s)],
            [t for r in reps for t in scale(r.step_s, r.step_kernel_s)],
            [r.dof_steps / t for r, t in zip(reps, runs)])
        raw = _summary(
            setup_times, [r.run_s for r in reps],
            [t for r in reps for t in r.startup_s], steps,
            [r.dof_steps / r.run_s for r in reps])
        # the kernel times paired with set-ups, start-ups and steps, each
        # taken once (a channel run's run_s reuses its steps' kernel times)
        kernel_s = setup_kernel_s + [
            k for r in reps for k in r.startup_kernel_s + r.step_kernel_s]
        notes = {
            "repetitions": len(reps),
            "setup_probes": len(setup_times),
            "startup_samples": sum(len(r.startup_s) for r in reps),
            "step_samples": len(steps),
            "step_tail_percentile": tail(steps)[1] if steps else 0.0,
            "kernel_samples": len(kernel_s),
            "kernel_s.p50": statistics.median(kernel_s) if kernel_s else 0.0,
        }
        return metrics, raw, notes

    def per_layer(self) -> tuple[dict, dict]:
        metrics = tracer_mod.layer_metrics(self.tracer.spans)
        traced = [r.run_s for t, r in self.reps if t]
        plain = [r.run_s for t, r in self.reps if not t]
        traced_s = statistics.median(traced) if traced else 0.0
        plain_s = statistics.median(plain) if plain else 0.0
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.overhead_frac"] = (
            traced_s / plain_s - 1.0 if plain_s else 0.0, "fraction")
        metrics["trace.hooks_absent"] = (
            len(self.absent) + len(self.tracer.unreadable), "count")
        notes = {"traced_repetitions": len(traced),
                 "untraced_repetitions": len(plain),
                 "hooks_absent": self.absent,
                 "hooks_unreadable": sorted(self.tracer.unreadable),
                 "spans": len(self.tracer.spans)}
        return metrics, notes


def _print_report(name, metrics, notes, extra) -> None:
    print(f"workload {name}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<36} {value:>16.6g} {unit}")
    for key, (value, unit) in extra.items():
        print(f"  {key:<36} {value:>16.6g} {unit}")
    for key, value in notes.items():
        print(f"  ({key}: {value})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    probes = (None if args.trace
              else SetupProbes(functools.partial(_workload, args.workload)))
    try:
        return _run(args, parser, probes)
    finally:
        if probes:
            probes.close()


def _workload(name: str):
    load_program()
    from workloads import WORKLOADS

    return WORKLOADS[name]


def _run(args, parser, probes: SetupProbes | None) -> int:
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    work_dir = OUT_DIR / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)

    run = Run(workload, gate.load_reference(workload.name), args.seconds,
              bool(args.trace), args.seed, work_dir)
    setup_times, setup_kernel_s, raw = [], [], {}
    run.execute(probes)
    if probes:
        probes.take(workload.setup_probes - probes.taken)
        setup_times, setup_kernel_s = probes.times, probes.kernel_s
        run.attempted += probes.requests
        run.failed += probes.failures

    if args.trace:
        metrics, notes = run.per_layer()
    else:
        metrics, raw, notes = run.end_to_end(setup_times, setup_kernel_s)
    # figures the README names that cannot be bounded metrics: a fraction
    # that is 0 on a healthy run, and accuracy figures of one workload only
    extra = {"failed_frac": (run.failed / max(run.attempted, 1), "fraction")}
    extra.update((f"measured.{k}", m) for k, m in raw.items()
                 if k != "peak_rss_mb")
    eoc = run.reps[0][1].fingerprint.get("eoc") if run.reps else None
    if eoc:
        finest = eoc[max(eoc, key=int)]
        extra["eoc.er1"] = (finest["er1"], "H1")
        extra["eoc.er2"] = (finest["er2"], "L2")

    env = environment()
    _print_report(workload.name, metrics, notes, extra)
    if args.trace and run.reps:
        print("\n".join(tracer_mod.accounting_table(run.tracer.spans)))
    for problem in run.problems[:20]:
        print(f"  gate: {problem}")
    print(f"env {json.dumps(env, sort_keys=True)}")

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump({**result, "workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "extra": {k: {"value": v, "unit": u}
                             for k, (v, u) in extra.items()},
                   "notes": notes, "problems": run.problems,
                   "measured": {k: {"value": v, "unit": u}
                                for k, (v, u) in raw.items()},
                   "kernel_s": {
                       "setup": setup_kernel_s,
                       "reps": [{"run": r.run_kernel_s,
                                 "startup": r.startup_kernel_s,
                                 "step": r.step_kernel_s}
                                for _, r in run.reps]},
                   "run_s": [r.run_s for _, r in run.reps],
                   "setup_s": setup_times, "environment": env},
                  fh, indent=1)
    if args.trace:
        with open(OUT_DIR / f"spans-{stem}.jsonl", "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in run.tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
