#!/usr/bin/env python3
"""Run one curvecast benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload far-replicate --seed 3 --seconds 20 --trace 0

``--trace 0`` measures end-to-end metrics with no tracing.  ``--trace 1``
runs every op twice, untraced and traced in alternating order, and reports
per-module metrics from the traced copies plus the tracing overhead; the
spans are written to ``.perfbench/trace-<workload>.jsonl``.  Every run also
checks each op's outputs, compares the first ops at the reference seed with
``reference.json`` and measures set-up time in fresh processes spawned
between ops.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

``--write-reference`` records ``reference.json`` from the current sources.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads.  With two BLAS threads on a two-CPU machine the
# replication op times turn bimodal and the two-worker pool loses to one worker.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import measure  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
# Fresh processes timed for setup_s, spread over the untraced run's op time;
# the median is reported.
SETUP_REPEATS = 11
# A traced op's module self times must cover this share of its thread time.
MIN_TRACE_COVERAGE = 0.95

# Op times are scaled to a reference machine speed by measure.Calibration,
# timed between ops, so that they compare across the speed swings of a shared
# machine; the raw values are printed beside them.  setup_s is not scaled:
# spawning and importing do not track the calibration kernel.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="op time to measure; required for a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the time they were ready, exit")
    parser.add_argument("--write-reference", action="store_true",
                        help="record reference.json from the current sources")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if not (args.write_reference or args.setup_only) and args.seconds is None:
        parser.error("--seconds is required")
    return args


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, load1):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "blas": blas_name,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "ftsp_threads": workload.threads,
        "git_sha": git_sha(),
        "loadavg_1m_at_start": load1,
    }


def setup_only(workload, seed):
    """Child process for setup_s: build the inputs, report when ready."""
    os.makedirs(WORK, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"setup-{workload.name}-", dir=WORK)
    try:
        workload.setup(seed, tmpdir)
        print(f"ready {time.monotonic()!r}", flush=True)
    finally:
        shutil.rmtree(tmpdir)
    return 0


def setup_sampler(workload, seed, samples):
    """A callable that times one fresh set-up process and appends its seconds to ``samples``.

    The time runs from spawning a fresh interpreter to its inputs being ready.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
           "--seed", str(seed), "--setup-only"]

    def sample():
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)

    return sample


def load_reference():
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def write_reference():
    from workloads import WORKLOADS, reference_outputs

    os.makedirs(WORK, exist_ok=True)
    refs = {}
    for name, workload in WORKLOADS.items():
        os.environ["FTSP_THREADS"] = str(workload.threads)
        workload.install()
        tmpdir = tempfile.mkdtemp(prefix=f"reference-{name}-", dir=WORK)
        try:
            refs[name] = reference_outputs(workload, tmpdir)
        finally:
            shutil.rmtree(tmpdir)
    with open(REFERENCE, "w") as fh:
        json.dump(refs, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def check_reference(workload, tmpdir):
    """Problems found comparing the reference-seed ops with reference.json."""
    from workloads import compare, reference_outputs

    want = load_reference().get(workload.name)
    if want is None:
        return [f"no reference outputs recorded for {workload.name}"]
    try:
        got = json.loads(json.dumps(reference_outputs(workload, tmpdir)))
    except Exception as exc:  # noqa: BLE001 - a crash here is a failed check
        return [f"reference ops failed: {type(exc).__name__}: {exc}"]
    diff = compare(got, want)
    return [f"reference mismatch at {diff}"] if diff else []


def untraced_run(workload, state, seconds, first, calibrate, setup_sample):
    def check(i, result):
        workload.check(state, i, result)
        first.setdefault("result", result)

    return measure.run_closed_loop(lambda i: workload.op(state, i), check, seconds,
                                   calibrate=calibrate, between=setup_sample,
                                   between_count=SETUP_REPEATS)


def traced_run(workload, state, seconds, first, trace_path):
    """Each op index k runs twice: untraced first when k is even, traced first when odd."""
    from layers import NOTES, LayerStats
    from spans import Installation, Tracer, write_spans

    tracer = Tracer()
    installed = Installation(tracer, NOTES)
    stats = LayerStats(workload.threads)
    plain_ms, traced_ms = [], []

    def traced(i):
        return i % 2 != (i // 2) % 2

    def before(i):
        if traced(i):
            tracer.op = i // 2
            installed.apply()

    def after(i, t0, t1):
        if traced(i):
            installed.restore()
            stats.add_op(tracer.spans, t0, t1, threading.get_ident())
            tracer.archive()
            traced_ms.append((t1 - t0) * 1e3)
        else:
            plain_ms.append((t1 - t0) * 1e3)

    def check(i, result):
        workload.check(state, i // 2, result)
        first.setdefault("result", result)

    loop = measure.run_closed_loop(lambda i: workload.op(state, i // 2), check, seconds,
                                   before=before, after=after)
    write_spans(tracer.archived, trace_path)
    overhead = statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0
    return loop, {"stats": stats, "overhead": overhead, "plain_ms": plain_ms,
                  "traced_ms": traced_ms}


def end_to_end(loop, setup):
    """End-to-end metrics of an untraced run, op times at the reference speed.

    Prints them with the raw values beside them.
    """
    lat, cpu = loop["lat_ms"], loop["cpu_ms"]
    local = measure.local_calibration(loop["starts"], lat, loop["cal"])
    lat_ref = [w * measure.REFERENCE_CAL_MS / c for w, c in zip(lat, local)]
    cpu_ref = [u * measure.REFERENCE_CAL_MS / c for u, c in zip(cpu, local)]
    done = loop["attempted"] - loop["failed"]
    tail, pct, count = measure.tail_latency(lat_ref)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": done * 1e3 / sum(lat_ref),
        "op_p50_ms": statistics.median(lat_ref),
        "op_tail_ms": tail,
        "cpu_ms_per_op": statistics.fmean(cpu_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    raw = {
        "ops_per_s": done * 1e3 / sum(lat),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": measure.tail_latency(lat)[0],
        "cpu_ms_per_op": statistics.fmean(cpu),
    }
    cal_q = statistics.quantiles([ms for _, ms in loop["cal"]], n=4)
    print(f"  calibration median {cal_q[1]:.4g} ms (quartiles {cal_q[0]:.4g}..{cal_q[2]:.4g}, "
          f"{len(loop['cal'])} samples); values at the reference "
          f"{measure.REFERENCE_CAL_MS} ms, raw in brackets")
    for name, unit in END_TO_END.items():
        note = f"  [raw {raw[name]:.6g}]" if name in raw else ""
        print(f"  {name} = {metrics[name]:.6g} {unit}{note}")
    setup_q = statistics.quantiles(setup, n=4) if len(setup) > 1 else setup * 3
    print(f"  op_tail_ms is p{pct:.2f} of {count} ops, {measure.TAIL_BEYOND} beyond; "
          f"setup_s is the median of {len(setup)} fresh processes "
          f"(quartiles {setup_q[0]:.4g}..{setup_q[2]:.4g} s)")
    print("raw " + json.dumps(dict(raw, calibration_ms=cal_q[1], tail_percentile=pct)))
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(trace, problems):
    """Per-module metrics of a traced run; a coverage shortfall is a problem."""
    from layers import ENTRY_POINTS, METRICS

    stats = trace["stats"]
    layer = stats.metrics(trace["overhead"])
    shares = ", ".join(f"{name} {stats.self_share(name):.1%}" for name in ENTRY_POINTS
                       if stats.calls[name])
    print(f"  self time of the entry points, as a share of op thread time: {shares}")
    print(f"  op_p50_ms traced {statistics.median(trace['traced_ms']):.6g} ms, "
          f"untraced {statistics.median(trace['plain_ms']):.6g} ms "
          f"(overhead {trace['overhead']:+.2%})")
    for name, unit in METRICS.items():
        if layer[name]:
            print(f"  {name} = {layer[name]:.6g} {unit}")
    if stats.worst_coverage < MIN_TRACE_COVERAGE:
        problems.append(f"module self times cover only {stats.worst_coverage:.2%} "
                        f"of an op's thread time, below {MIN_TRACE_COVERAGE:.0%}")
    return {name: {"value": layer[name], "unit": unit} for name, unit in METRICS.items()}


def run(args, workload):
    load1 = os.getloadavg()[0]
    os.environ["FTSP_THREADS"] = str(workload.threads)
    os.makedirs(WORK, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"run-{workload.name}-", dir=WORK)
    problems = []
    first = {}
    setup = []
    trace = None
    try:
        workload.install()
        ref_dir = os.path.join(tmpdir, "reference")
        os.mkdir(ref_dir)
        problems += check_reference(workload, ref_dir)
        in_dir = os.path.join(tmpdir, "inputs")
        os.mkdir(in_dir)
        state = workload.setup(args.seed, in_dir)
        if args.trace:
            trace_path = os.path.join(WORK, f"trace-{workload.name}.jsonl")
            loop, trace = traced_run(workload, state, args.seconds, first, trace_path)
        else:
            loop = untraced_run(workload, state, args.seconds, first, measure.Calibration(),
                                setup_sampler(workload, args.seed, setup))
        if "result" in first:
            problems += workload.after(state, first["result"])
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if os.path.exists(tmpdir):
        problems.append(f"temporary directory {tmpdir} left behind")
    problems += loop["messages"]

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{loop['attempted']} ops attempted, {loop['failed']} failed "
          f"(failed_frac {loop['failed'] / loop['attempted']:.4f})")
    metrics = per_layer(trace, problems) if args.trace else end_to_end(loop, setup)
    for problem in problems:
        print(f"  problem: {problem}")
    print("env " + json.dumps(environment(workload, load1), sort_keys=True))
    print(json.dumps({
        "correct": not problems and loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "curvecast", "__init__.py")):
        print(f"error: no curvecast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.write_reference:
        return write_reference()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        return setup_only(workload, args.seed)
    return run(args, workload)


if __name__ == "__main__":
    sys.exit(main())
