"""kcoref benchmark: one workload per invocation, result as a JSON last line.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 30 --trace 0

Workloads are train_full, train_cl and evaluate (see perfbench/README.md).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced repetitions and reports the per-layer
metrics and the tracing overhead. Each run also
writes a record with the environment, the input shape and every check to
.perfbench_runs/ at the root of the checkout (spans of a traced run go to
a separate file there).

The last line of standard output is
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
Failed output checks make the exit code 1; a checkout without the kcoref
sources exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"
WORKLOADS = ("train_full", "train_cl", "evaluate")
# Set-ups of an untraced run; the median is reported as setup_s. Evaluate's
# take seconds and are made up front; a train set-up takes milliseconds, so
# a few are made before every schedule and spread over the run.
EVAL_SETUPS = 3
TRAIN_SETUPS_PER_REPEAT = 5

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "docs_per_s": "1/s", "doc_ms_p50": "ms",
             "doc_ms_p90": "ms", "peak_rss_mib": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment


def _openblas_runtime() -> dict:
    """Version string and thread count of the OpenBLAS numpy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            names = {line.split()[-1] for line in handle}
    except OSError:
        return {}
    paths = sorted(p for p in names
                   if "openblas" in Path(p).name.lower() and ".so" in p)
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            try:
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return {"library": Path(path).name,
                    "config": get_config().decode(errors="replace"),
                    "threads": get_threads()}
    return {}


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=20,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "openblas_runtime": _openblas_runtime(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_digest(ROOT / "src" / "kcoref"),
    }


# ---------------------------------------------------------------------------
# Run


def run(args) -> tuple[dict, dict]:
    import layers
    import tracing
    import workloads as wl
    from clock import Clock, warm_up

    tag = f"trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "environment": environment()}
    checks = []

    warm_up()
    setup_s, setup_raw_s, fingerprints = [], [], set()

    def timed_setup():
        # Evaluate's set-up trains for seconds: its epochs are segments too.
        clock = Clock(wl.TRAIN_BLOCK)
        with wl.step_marks([clock]):
            inp = wl.setup(args.workload, args.seed, OUT_DIR, tag)
        clock.mark()
        setup_s.append(sum(clock.scaled()) / 1e9)
        setup_raw_s.append(sum(clock.raw) / 1e9)
        fingerprints.add(inp.fingerprint)
        return inp

    def train_setups():
        for _ in range(TRAIN_SETUPS_PER_REPEAT):
            inp = timed_setup()
        return inp

    resetup = None
    if args.trace:
        inp = timed_setup()
    elif args.workload == "evaluate":
        for _ in range(EVAL_SETUPS):
            inp = timed_setup()
    else:
        inp = train_setups()
        resetup = train_setups
    record["shape"] = wl.static_shape(inp)

    if args.trace:
        # Untraced and traced repetitions alternate, so drift in the
        # machine's speed falls on both sides of the overhead comparison.
        tracer = tracing.Tracer()
        phase, traced = wl.Measurement(), wl.Measurement()
        phases = [phase, traced]
        start = time.perf_counter()
        while not (phase.failed or traced.failed) and (
                time.perf_counter() - start < args.seconds
                or traced.repeats < 2):
            phase.merge(wl.run_phase(inp, 0, min_repeats=1))
            with tracing.traced(tracer, layers.TARGETS) as absent:
                traced.merge(wl.run_phase(inp, 0, tracer, min_repeats=1))
        checks.append(("traced results equal untraced",
                       traced.quality == phase.quality, ""))
        # Each traced repeat against the untraced one just before it.
        overhead = statistics.median(
            t / u for t, u in zip(traced.repeat_ns, phase.repeat_ns)) \
            * 100.0 - 100.0
        scale = sum(traced.repeat_ns) / traced.busy_ns
        metrics = layers.per_layer_metrics(
            tracer, traced.items, traced.repeats, traced.quality, overhead,
            scale)
        units = layers.UNITS
        checks.extend(layers.bypass_checks(args.workload, tracer, absent))
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.tsv"
        tracer.write_spans(spans_path)
        record["shape"].update(layers.traced_shape(args.workload, tracer,
                                                 traced.items))
        record["trace"] = {
            "absent_layers": absent,
            "count_errors": tracer.count_errors,
            "spans_file": spans_path.name,
            "spans": len(tracer.spans),
            "items": traced.items,
            "speed_scale": scale,
            "layers_self_ms_per_item": {
                layer: ns / 1e6 / traced.items * scale
                for layer, (_, ns) in sorted(tracer.layer_table().items())},
            "layer_calls": {layer: calls for layer, (calls, _)
                            in sorted(tracer.layer_table().items())},
        }
    else:
        phase = wl.run_phase(inp, args.seconds, resetup=resetup)
        phases = [phase]
        if len(setup_s) > 1:
            checks.append(("set-ups identical", len(fingerprints) == 1,
                           f"{len(fingerprints)} distinct of {len(setup_s)}"))
        medians = phase.medians_ns()
        item_ms = [ns / 1e6 for ns in medians[1:-1]]
        percentiles = statistics.quantiles(item_ms, n=100, method="inclusive")
        metrics = {
            "setup_s": statistics.median(setup_s),
            "docs_per_s": phase.items / phase.repeats / (sum(medians) / 1e9),
            "doc_ms_p50": percentiles[49],
            "doc_ms_p90": percentiles[89],
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        record["setup_s"] = setup_s
        record["setup_raw_s"] = setup_raw_s
        record["samples"] = {"item_segments": len(item_ms),
                             "repeats": phase.repeats,
                             "probes": len(phase.probe_ns),
                             "probe_ms_median":
                                 statistics.median(phase.probe_ns) / 1e6,
                             "measured_s": phase.busy_ns / 1e9,
                             "raw_docs_per_s":
                                 phase.items / (phase.busy_ns / 1e9)}

    for p in phases:
        checks.extend(p.checks)
    record["quality"] = phase.quality
    record["shape"].update(phase.shape)
    record["checks"] = [{"name": n, "ok": ok, "detail": d}
                        for n, ok, d in checks]
    failed_checks = sum(1 for _, ok, _ in checks if ok is False)
    items = sum(p.items + p.failed for p in phases)
    attempted = items + len(checks)
    failed = sum(p.failed for p in phases) + failed_checks
    record["error_rate"] = failed / attempted
    record["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in metrics.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": record["metrics"]}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-{tag}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    record["path"] = str(path.relative_to(ROOT))
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    # Tensors here are tiny: a second BLAS thread brings no speed, only a
    # dependence on the other core being free. Set before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "kcoref" / "__init__.py").is_file():
        print(f"perfbench: no kcoref package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result, record = run(args)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    env = record["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas_build']}, "
          f"blas threads {env['openblas_runtime'].get('threads')}, "
          f"nproc {env['nproc']}, commit {env['git_commit']}")
    print(f"shape: {json.dumps(record['shape'], sort_keys=True)}")
    for name, entry in result["metrics"].items():
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'error_rate':32s} {record['error_rate']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    print("quality (checked and recorded, not bounded):")
    for name, value in record["quality"].items():
        print(f"  {name:32s} {value!r}")
    if args.trace:
        print(f"absent layers: {record['trace']['absent_layers'] or 'none'}")
        print(f"counter errors: {record['trace']['count_errors'] or 'none'}")
    for check in record["checks"]:
        if check["ok"] is None:
            print(f"CHECK UNVERIFIABLE: {check['name']}: {check['detail']}")
        elif not check["ok"]:
            print(f"CHECK FAILED: {check['name']}: {check['detail']}")
    print(f"record: {record['path']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
