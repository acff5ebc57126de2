"""curvipat benchmark.

    python3 perfbench/run.py --workload cylinder_bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30        # every workload, one process each

One process runs one workload, single-threaded unless ``CURVIPAT_THREADS``
says otherwise, so that its memory peak is its own.  It first makes one
untimed warm-up call, then calls the workload over and over for
``--seconds``, timing one set-up (``build_system`` plus ``prepare`` of
every component) before each call and checking every call's results
against the reference recorded in ``reference.json``.  The seed picks one
of the ``REFERENCE_SEEDS`` initial conditions recorded there.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced calls, and reports per-layer metrics from
the traced calls plus the tracing overhead on the median step.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

try:
    import workloads
except ImportError as exc:
    print(f"error: cannot load curvipat from the checkout's src/: {exc}", file=sys.stderr)
    sys.exit(2)

import numpy as np  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, integrators, models  # noqa: E402

REFERENCE_SEEDS = 32
TAIL_PERCENTILE = 95.0


def model_seed(seed: int) -> int:
    """The recorded initial condition (1 .. REFERENCE_SEEDS) a seed picks."""
    return 1 + (seed - 1) % REFERENCE_SEEDS


def load_reference(w: workloads.Workload, seed: int) -> dict:
    entry = json.loads((HERE / "reference.json").read_text())[w.name]
    if entry["config"] != w.config():
        raise SystemExit(
            f"error: reference.json was recorded for {entry['config']}, "
            f"not {w.config()}; rerun perfbench/record_reference.py"
        )
    return entry["seeds"][str(seed)]


def setup_seconds(w: workloads.Workload, seed: int) -> float:
    start = spans.clock()
    system = models.build_system(w.model, w.dims, seed)
    for c in system.components:
        integrators.prepare(c.ops, w.tau)
    return spans.clock() - start


class Phase:
    """Workload calls made with one recorder, and what they measured."""

    def __init__(self, recorder: spans.Recorder):
        self.recorder = recorder
        self.calls = 0
        self.failed = 0
        self.steps = 0
        self.setups: list[float] = []
        self.walls: list[float] = []
        self.intervals: list[float] = []
        self.snapshot_bytes = 0
        self.kernels = None
        self.errors: list[str] = []

    def call(self, w: workloads.Workload, seed: int, want: dict, workdir: Path) -> None:
        """One workload call with the recorder's wrappers installed.  A call
        that raises or fails the gate counts as failed and contributes no
        timing.  The call's system and fields are dropped afterwards, so
        that they do not add to the next call's memory peak."""
        rec = self.recorder
        self.calls += 1
        workdir.mkdir(parents=True)
        try:
            with rec:
                start = spans.clock()
                report = workloads.run(w, seed, workdir)
                wall = spans.clock() - start
            problems = workloads.gate(w, rec.system, rec.fields, report, workdir, want)
        except Exception as exc:  # any failure of the program is a failed call
            problems = [f"{type(exc).__name__}: {exc}"]
        self.steps += len(rec.stamps)
        if problems:
            self.failed += 1
            self.errors.extend(problems[:5])
        else:
            self.walls.append(wall)
            self.intervals.extend(np.diff(rec.stamps).tolist())
            self.snapshot_bytes += workloads.snapshot_bytes(workdir)
            self.kernels = spans.step_kernels(rec.system)
        rec.reset_call()
        shutil.rmtree(workdir)


def tail(intervals: list[float]) -> tuple[float, int, int]:
    """(value, samples, samples beyond it) of the TAIL_PERCENTILE step time.

    A fixed percentile rather than the highest one with ten samples beyond
    it: on a shared two-core machine that extreme (p99.8 on ball_coupled)
    moved by up to 38% between runs, which no bound can hold."""
    ordered = sorted(intervals)
    n = len(ordered)
    index = min(n - 1, int(n * TAIL_PERCENTILE / 100.0))
    return ordered[index], n, n - 1 - index


def measure(w: workloads.Workload, seed: int, seconds: float, trace: bool, want: dict) -> dict:
    """Run one workload and return its result record (see the module doc).

    Untraced, a set-up is timed before every call, so that the set-up
    samples are spread over the whole run.  Traced, untraced and traced
    calls alternate, so that both kinds see the same machine conditions
    and their difference is the tracing overhead."""
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    record: dict = {"notes": []}
    warmup = Phase(spans.Recorder(False))
    untraced = Phase(spans.Recorder(False))
    traced = Phase(spans.Recorder(True))
    phases = [warmup, untraced, traced] if trace else [warmup, untraced]
    try:
        warmup.call(w, seed, want, workdir)
        deadline = spans.clock() + seconds
        while True:
            if not trace:
                untraced.setups.append(setup_seconds(w, seed))
            for ph in phases[1:]:
                ph.call(w, seed, want, workdir)
            if spans.clock() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(ph.calls for ph in phases)
    failed = sum(ph.failed for ph in phases)
    record["errors"] = [e for ph in phases for e in ph.errors]
    record["failed_frac"] = failed / attempted
    metrics: dict[str, tuple[float, str]] = {}
    if not all(ph.walls and ph.intervals for ph in phases[1:]):
        record["notes"].append("no measured call succeeded: no metrics")
    elif not trace:
        value, n, beyond = tail(untraced.intervals)
        record["step_ms_tail"] = {"percentile": TAIL_PERCENTILE, "samples": n, "beyond": beyond}
        record["samples"] = {
            "setup_s": untraced.setups,
            "run_s": untraced.walls,
            "step_s": untraced.intervals,
        }
        metrics = {
            "setup_s": (statistics.median(untraced.setups), "s"),
            "step_ms_p50": (statistics.median(untraced.intervals) * 1e3, "ms"),
            "step_ms_tail": (value * 1e3, "ms"),
            "run_s": (statistics.median(untraced.walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        rec = traced.recorder
        metrics = spans.layer_metrics(
            rec, traced.steps, traced.calls, traced.snapshot_bytes, traced.kernels
        )
        p50 = statistics.median(untraced.intervals)
        traced_p50 = statistics.median(traced.intervals)
        record["step_ms_p50"] = {"untraced": p50 * 1e3, "traced": traced_p50 * 1e3}
        metrics["trace.overhead_frac"] = (traced_p50 / p50 - 1.0, "ratio")
        record["notes"].extend(rec.notes)
        record["spans"] = rec.spans
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, if it can be asked."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def cache_sizes() -> dict[str, int]:
    """Cache sizes in bytes by level and type, e.g. {"L1d": 49152, "L3": ...}."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
        sizes[f"L{level}{suffix}"] = int(size.rstrip("KM")) * scale
    return sizes


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "caches": cache_sizes(),
        "CURVIPAT_THREADS": os.environ.get("CURVIPAT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def working_set(w: workloads.Workload, env: dict) -> dict:
    shapes = models.component_shapes(models.ModelName(w.model), w.dims).values()
    largest = 8 * max(int(np.prod(shape)) for shape in shapes)
    llc = max(env["caches"].values(), default=0)
    return {
        "largest_field_bytes": largest,
        "llc_bytes": llc,
        "statement": (
            f"largest field {largest / 1e6:.2f} MB against a {llc / 2**20:.0f} MiB "
            "last-level cache: "
            + (
                "at least 4x larger, bandwidth-bound behaviour is possible"
                if llc and largest >= 4 * llc
                else "it fits in cache, so no memory-bandwidth claim is possible"
            )
        ),
    }


def report(w, seed, trace, env, record) -> None:
    threads = {env["blas_threads"], env["CURVIPAT_THREADS"], env["OPENBLAS_NUM_THREADS"]}
    if threads - {1, "1", None}:
        print(
            "!" * 72 + "\nWARNING: BLAS is not single-threaded "
            f"(runtime {env['blas_threads']}, CURVIPAT_THREADS={env['CURVIPAT_THREADS']}, "
            f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}); timings are not "
            "comparable with single-threaded baselines\n" + "!" * 72,
            file=sys.stderr,
        )
    result = record["result"]
    print(f"workload {w.name}  seed {seed} (initial condition {model_seed(seed)})  trace {int(trace)}")
    print(
        f"  numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
        f"{env['blas_threads']} BLAS thread(s), nproc {env['nproc']}, {env['cpu']}"
    )
    print(f"  {record['working_set']['statement']}")
    for name, metric in result["metrics"].items():
        extra = ""
        if name == "step_ms_tail":
            t = record["step_ms_tail"]
            extra = f"  (p{t['percentile']:g} of {t['samples']} steps, {t['beyond']} beyond)"
        print(f"  {name:<56} {metric['value']:.6g} {metric['unit']}{extra}")
    print(
        f"  {'failed_frac':<56} {record['failed_frac']:.6g} ratio"
        f"  ({result['failed']} of {result['attempted']} calls)"
    )
    for line in record["notes"] + record["errors"]:
        print(f"  note: {line}")
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        printed = lines[-1].startswith("{")
        results[name] = json.loads(lines[-1]) if printed else {"exit_code": proc.returncode}
    print(json.dumps(results))
    return 0 if all(r.get("correct") for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    w = WORKLOADS[args.workload]
    seed = model_seed(args.seed)
    want = load_reference(w, seed)
    env = environment()
    record = measure(w, seed, args.seconds, bool(args.trace), want)
    record.update(
        workload=w.name,
        seed=args.seed,
        initial_condition=seed,
        trace=args.trace,
        seconds=args.seconds,
        config=w.config(),
        environment=env,
        working_set=working_set(w, env),
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{w.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record))
    record.pop("spans", None)
    report(w, args.seed, args.trace, env, record)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
