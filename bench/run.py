"""End-to-end benchmark of the ``bdcoords`` command line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  One process, one thread
and one closed-loop client: ``bdcoords.cli.main`` is called in-process with
an argument vector, and the next call starts only after the previous one
returns.  Each call is one op, and the oracle in ``workloads.py`` checks every
op's output after its timed interval.

An op fails when it exits non-zero or raises (``fail.raised``), when it
exits 0 and its output misses a tolerance or membership check
(``fail.tolerance``), or when it exits 0 and its output is not the report it
documents (``fail.malformed``).  Failed ops are counted, never skipped: on
``invariants-n8`` most ops fail today (the float pipeline's known breakdown
above n = 5).  All three kinds count in ``failed``, and time spent on failed
ops stays in the denominator of ``ok_per_s``.

The ops cycle over the workload's corpus, and the run lasts at least one
whole pass, so every input runs at least once.  ``attempted`` and ``failed``
in the result count the distinct inputs and those that failed on their first
run: they depend only on the seed and the program, never on how many ops fit
in the run, so two runs of the same code on the same seed report the same
counts.  Every later op repeats an input of the first pass and must get the
same verdict; ``correct`` is false when any op's output was malformed or a
repeat's verdict differs from the first pass.  The ``detail:`` line also
keeps the counts over every op of the run.

Set-up is what a run pays before its first timed op: ``import bdcoords`` in
a fresh interpreter (a child process, so interpreter start-up and the numpy
import are in it, as they are in every real ``bdcoords`` call), input
generation with the package's samplers, and one warm-up op, which fills the
package's caches.  The package is then re-imported in this process for the
ops; that warm re-import is not timed, since the child already paid for the
import.  Writing the generated inputs to files is timed apart and kept in
the ``detail:`` line, not in ``setup_s``: it is the benchmark's own
``json.dump`` of a few hundred files, no change to the program moves it,
and on the host this benchmark was built on it took from 75 to 275 ms for
the same files within minutes (disk stalls the reference kernel does not
see).  Set-up is repeated ``SETUP_REPEATS`` times, and ``setup_s`` is the
median import time plus the median time of the rest.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the package's functions (``tracing.py``) and reports
per-layer metrics instead.  OpenBLAS/OpenMP/MKL threads are pinned to 1.

Times are scaled to a reference speed.  The host this benchmark was built on
changes speed by up to 1.8x over minutes (other tenants), which moves every
wall time alike.  So a fixed pure-Python kernel (``reference_ns``) is timed
before every op and before and after every set-up, and each time is
multiplied by ``REF_NOMINAL_NS`` over the median kernel time around it
(REF_WINDOW timings around an op; for a set-up, the mean of the medians of
REF_WINDOW timings before and after it): the result is the
time on a machine where the kernel takes exactly 1 ms.  A change to the
program moves the op times and not the kernel, so it shows in full.  The
unscaled wall times are printed beside the scaled ones and kept in the
``detail:`` line.

The last line of standard output is the result as one JSON object; the lines
before it are a table of the metrics with their units and sample counts and
a ``detail:`` line with provenance and op counts.  The run exits 2 without a
result when the checkout holds no ``src/bdcoords`` or ``data/``.
"""
from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:          # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import TRACED, Tracer
from workloads import WORKLOADS, MalformedOutput, OracleMiss, write_input

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
REF_LOOPS = 12_000           # about 1 ms on the machine the benchmark was built on
REF_NOMINAL_NS = 1_000_000
REF_WINDOW = 15              # kernel timings in one local speed estimate
MODULES = ("cli", "verification", "bd", "surfaces", "halfplane", "veronese",
           "flags", "multilinear")
END_TO_END = {          # name -> unit
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {name: ("ms" if "_ms" in name else "ratio" if "_per_" in name else "count")
             for name in TRACED}
FAILURE_KINDS = ("raised", "tolerance", "malformed")
PER_LAYER.update({f"fail.{kind}": "count" for kind in FAILURE_KINDS})
PER_LAYER.update({"fail_share": "share", "trace.count_ops": "count",
                  "trace.ops": "count", "trace.ok_per_s": "1/s"})


def is_window_metric(name: str) -> bool:
    """Per-layer metrics taken over the first ``count_ops`` ops; they repeat exactly."""
    return PER_LAYER[name] in ("count", "ratio", "share") and name != "trace.ops"


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources, or a stray install)."""


# ---------------------------------------------------------------------------
# provenance


def _git_sha(root: Path):
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "bdcoords").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# set-up


def reference_ns() -> int:
    """Time one fixed pure-Python kernel: the machine's speed right now."""
    t0 = time.perf_counter_ns()
    acc, x = 0, 0.5
    for i in range(REF_LOOPS):
        acc += i * i % 7
        x = x * 0.999 + 0.001
    return time.perf_counter_ns() - t0


def local_reference() -> float:
    """The median of REF_WINDOW kernel timings: the machine's speed just now."""
    return statistics.median(reference_ns() for _ in range(REF_WINDOW))


def scale_to_reference(times_ns, refs_ns) -> list:
    """Each time over the median of the REF_WINDOW kernel timings around it."""
    half = REF_WINDOW // 2
    return [t * REF_NOMINAL_NS / statistics.median(refs_ns[max(0, i - half):i + half + 1])
            for i, t in enumerate(times_ns)]


def import_package(src: Path) -> SimpleNamespace:
    """A fresh import of bdcoords and its modules from the checkout."""
    for name in [m for m in sys.modules if m == "bdcoords" or m.startswith("bdcoords.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("bdcoords")
    if Path(package.__file__).resolve().parent != (src / "bdcoords").resolve():
        raise SetupError(f"bdcoords imported from {package.__file__}, not from {src}")
    mods = {name: importlib.import_module(f"bdcoords.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **mods)


def import_cold(src: Path) -> int:
    """Time ``import bdcoords`` from ``src`` in a fresh interpreter, in ns."""
    code = "import bdcoords; print(bdcoords.__file__)"
    t0 = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-c", code], cwd=src.parent,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter_ns() - t0
    if proc.returncode != 0:
        raise SetupError(f"import bdcoords failed: {proc.stderr.strip()[-300:]}")
    if Path(proc.stdout.strip()).resolve().parent != (src / "bdcoords").resolve():
        raise SetupError(f"bdcoords imported from {proc.stdout.strip()}, not from {src}")
    return elapsed


def set_up(workload, seed: int, src: Path, workdir: Path, data_dir: Path):
    """Cold import, inputs and one warm-up op.

    Returns (import ns, generation and warm-up ns, write ns, mods, ops).
    """
    shutil.rmtree(workdir, ignore_errors=True)
    import_ns = import_cold(src)
    mods = import_package(src)
    t0 = time.perf_counter_ns()
    ops, files = workload.build(mods, seed, workdir, data_dir)
    t1 = time.perf_counter_ns()
    workdir.mkdir(parents=True)
    for path, payload in files:
        write_input(path, payload)
    t2 = time.perf_counter_ns()
    run_op(mods.cli, ops[0])
    return import_ns, t1 - t0 + time.perf_counter_ns() - t2, t2 - t1, mods, ops


# ---------------------------------------------------------------------------
# ops


def run_op(cli, op):
    """Run one op; returns (elapsed ns, failure kind or None, reason, checked).

    ``checked`` says the oracle read the op's output (every op that exits 0).
    """
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            path.unlink()
    sink = io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:       # an op that raises is a failed op, not a harness error
        elapsed = time.perf_counter_ns() - t0
        return elapsed, "raised", f"{type(exc).__name__}: {exc}", False
    elapsed = time.perf_counter_ns() - t0
    if code != 0:
        lines = sink.getvalue().strip().splitlines()
        return elapsed, "raised", f"exit {code}: {lines[-1] if lines else ''}", False
    try:
        op.check()
    except OracleMiss as miss:
        return elapsed, "tolerance", str(miss), True
    except (MalformedOutput, OSError, ValueError, KeyError, TypeError) as exc:
        return elapsed, "malformed", f"{type(exc).__name__}: {exc}", True
    return elapsed, None, "", True


def measure(mods, ops, seconds: float, tracer=None, window_ops: int = 0):
    """The closed loop: ops in order (cycling) until ``seconds`` have passed
    and every op ran at least once, each after one reference timing."""
    records = []               # (elapsed ns, failure kind, oracle read the output)
    refs = []
    reasons = {}
    window = None
    deadline = time.perf_counter() + seconds
    while len(records) < len(ops) or time.perf_counter() < deadline:
        op = ops[len(records) % len(ops)]
        refs.append(reference_ns())
        elapsed, kind, reason, checked = run_op(mods.cli, op)
        records.append((elapsed, kind, checked))
        if kind:
            key = f"{kind}: {reason.split(':')[0] if kind == 'tolerance' else reason[:90]}"
            reasons[key] = reasons.get(key, 0) + 1
        if tracer is not None:
            tracer.end_op()
            if len(records) == window_ops:
                window = tracer.snapshot()
    return records, refs, reasons, window


def _p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src, data_dir = ROOT / "src", ROOT / "data"
    if not (src / "bdcoords" / "__init__.py").is_file() or not data_dir.is_dir():
        print(f"error: no bdcoords sources under {src} or no {data_dir}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        setup_import_ns, setup_rest_ns, setup_write_ns, setup_refs = [], [], [], []
        for _ in range(SETUP_REPEATS):
            before = local_reference()
            import_ns, rest_ns, write_ns, mods, ops = set_up(workload, args.seed, src,
                                                             workdir, data_dir)
            setup_refs.append((before, local_reference()))
            setup_import_ns.append(import_ns)
            setup_rest_ns.append(rest_ns)
            setup_write_ns.append(write_ns)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(mods.package, {name: getattr(mods, name) for name in MODULES})
        try:
            records, refs, reasons, window = measure(
                mods, ops, args.seconds, tracer=tracer, window_ops=workload.count_ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = len(records)
    scaled = scale_to_reference([ns for ns, _, _ in records], refs)
    ok_ms = [t / 1e6 for t, (_, kind, _) in zip(scaled, records) if kind is None]
    raw_ok_ms = [ns / 1e6 for ns, kind, _ in records if kind is None]
    failures = {kind: sum(k == kind for _, k, _ in records) for kind in FAILURE_KINDS}
    checked = sum(checked for _, _, checked in records)
    first_pass = [kind for _, kind, _ in records[:len(ops)]]
    changed = sum(kind != first_pass[i % len(ops)]
                  for i, (_, kind, _) in enumerate(records) if i >= len(ops))
    if not ok_ms:
        print(f"error: none of {attempted} ops succeeded; failures {reasons}", file=sys.stderr)
        return 1
    ok_per_s = len(ok_ms) / (sum(scaled) / 1e9)
    raw = {"setup_s": (statistics.median(setup_import_ns)
                       + statistics.median(setup_rest_ns)) / 1e9,
           "op_ms_p50": statistics.median(raw_ok_ms), "op_ms_p90": _p90(raw_ok_ms),
           "ok_per_s": len(ok_ms) / (sum(ns for ns, _, _ in records) / 1e9)}
    if tracer is None:
        setup_speeds = [REF_NOMINAL_NS / statistics.mean(pair) for pair in setup_refs]
        values = {
            "setup_s": sum(statistics.median(ns * speed for ns, speed in zip(part, setup_speeds))
                           for part in (setup_import_ns, setup_rest_ns)) / 1e9,
            "op_ms_p50": statistics.median(ok_ms),
            "op_ms_p90": _p90(ok_ms),
            "ok_per_s": ok_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        samples = {"setup_s": f"{SETUP_REPEATS} set-ups",
                   "op_ms_p50": f"{len(ok_ms)} ok ops", "op_ms_p90": f"{len(ok_ms)} ok ops",
                   "ok_per_s": f"{len(ok_ms)} ok of {attempted} ops",
                   "peak_rss_mb": "1 process"}
    else:
        units = dict(PER_LAYER)
        speed = REF_NOMINAL_NS / statistics.median(refs)
        values = {name: value * speed if units[name] == "ms" else value
                  for name, value in tracer.reduce(window, attempted).items()}
        in_window = records[:workload.count_ops]
        for kind in FAILURE_KINDS:
            values[f"fail.{kind}"] = sum(k == kind for _, k, _ in in_window)
        values.update({
            "fail_share": sum(k is not None for _, k, _ in in_window) / len(in_window),
            "trace.count_ops": len(in_window),
            "trace.ops": attempted,
            "trace.ok_per_s": ok_per_s,
        })
        samples = {name: (f"first {len(in_window)} ops" if is_window_metric(name)
                          else f"per op over {attempted} ops" if units[name] == "ms"
                          else f"{attempted} ops") for name in values}

    for name in values:
        wall = f"wall {raw[name]:.6g}, " if name in raw and tracer is None else ""
        print(f"# {name:40s} {values[name]:>12.6g} {units[name]:6s} ({wall}{samples[name]})")
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(ROOT),
              "ops": {"attempted": attempted, "ok": len(ok_ms), **failures,
                      "oracle_checked": checked},
              "inputs": {"distinct": len(ops),
                         "failed": sum(k is not None for k in first_pass),
                         **{kind: first_pass.count(kind) for kind in FAILURE_KINDS},
                         "verdict_changed_on_repeat": changed},
              "failures": reasons, "samples": samples, "wall": raw,
              "reference_ms": {"setup": [[r / 1e6 for r in pair] for pair in setup_refs],
                               "ops_median": statistics.median(refs) / 1e6},
              "setup_import_s": [ns / 1e9 for ns in setup_import_ns],
              "setup_rest_s": [ns / 1e9 for ns in setup_rest_ns],
              "setup_write_s": [ns / 1e9 for ns in setup_write_ns]}
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {"correct": failures["malformed"] == 0 and changed == 0,
              "attempted": len(ops), "failed": detail["inputs"]["failed"],
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in values}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
