"""Benchmark of the edbn package: training, batch scoring and online monitoring.

Run from the root of a checkout (it imports the package from ./src):

    python3 bench/run.py --workload ship-score --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

Set-up runs in a child process, several times, and ``setup_s`` is its median.
The timed phase runs in this process on one thread: one warm-up operation,
then operations until ``--seconds`` have passed.  End-to-end times are scaled
to a reference machine speed (see ``SpeedProbe``).  ``--trace 1`` alternates
traced and untraced operations and reports per-layer figures instead of the
end-to-end metrics.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in the set-up child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fnmatch  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_LATENCY_SAMPLES = 1000  # a 99th percentile needs ten samples beyond it
OUT_DIR = ".bench_out"
SAMPLE_EVERY_S = 0.05
REF_LOOPS = 5000
REF_S = 0.0005  # the loop's mean time on the machine of README's reference figures


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    """Metric names and units of one kind of run, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src" / "edbn").rglob("*.py"))


class SpeedProbe:
    """Samples the machine's speed while timed work runs.

    The shared machine's speed swings by up to 2x within a minute, so raw
    times of two runs are not comparable.  Every SAMPLE_EVERY_S seconds a
    SIGALRM handler times a fixed pure-Python integer loop in the same
    thread.  ``clock`` excludes the handler's time, and a time multiplied by
    ``scale`` reads as seconds at the reference speed, where the loop takes
    REF_S.  Interleaving the samples with the work is what makes them track
    it: on monitoring passes it cut the spread of pass rates from 0.18 to
    0.07, where one sample before and after each operation did not help.
    """

    def __enter__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(REF_LOOPS):
            total += i * i % 7
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def scale(self) -> float:
        return REF_S / statistics.fmean(self.samples)


def run_setup_child(args) -> None:
    """Set up ``setup_reps`` times in --dir; write the timings (and trace) to setup.json."""
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    d = Path(args.dir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    seconds, scales = [], []
    for _ in range(workload.setup_reps):
        root = tracer.begin("setup") if tracer else None
        with SpeedProbe() as probe:
            t0 = probe.clock()
            workload.setup(d, args.seed, tracer)
            seconds.append(probe.clock() - t0)
        scales.append(probe.scale())
        if tracer:
            tracer.end(root)
    if tracer:
        tracer.uninstall()
    out = {"setup_s": seconds, "scales": scales, "trace": tracer.dump() if tracer else None}
    (d / "setup.json").write_text(json.dumps(out), encoding="utf-8")


def setup_in_child(args, d: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", "--dir", str(d),
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=150)
    return json.loads((d / "setup.json").read_text(encoding="utf-8"))


def timed_phase(workload, seconds: float, trace: bool, tracer):
    """Warm-up, then operations until ``seconds`` have passed and enough were timed.

    Untraced runs time at least ``workload.min_operations``.  With tracing, operations
    alternate traced and untraced, starting traced, until both kinds ran.
    """
    workload.operation(False)
    ops = {False: [], True: []}  # traced? -> [(seconds, events, latencies, scale)]
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 0
        if traced:
            tracer.install()
            root = tracer.begin("op")
        with SpeedProbe() as probe:
            workload.clock = probe.clock
            t0 = probe.clock()
            try:
                n, bad, events, latencies = workload.operation(traced)
            except Exception as exc:  # an operation that raises counts as failed
                print(f"operation failed: {exc!r}", file=sys.stderr)
                n, bad, events, latencies = 1, 1, 0, None
            elapsed = probe.clock() - t0
        if traced:
            tracer.end(root)
            tracer.uninstall()
        attempted += n
        failed += bad
        if not bad:
            ops[traced].append((elapsed, events, latencies, probe.scale()))
        i += 1
        over = time.perf_counter() - start >= seconds
        if over and _enough(ops[False]) and (ops[True] if trace else len(ops[False]) >= workload.min_operations):
            break
        if over and not ops[False] and failed == attempted:
            raise RuntimeError(f"every one of {attempted} operations failed")
    return ops, attempted, failed


def _enough(ops) -> bool:
    """One operation for a batch workload; enough latency samples for a p99 otherwise."""
    if not ops:
        return False
    if ops[0][2] is None:
        return True
    return sum(len(op[2]) for op in ops) >= MIN_LATENCY_SAMPLES


def end_to_end(setup, ops, workload, peak_rss_mb) -> dict:
    """End-to-end metrics, every time scaled to the reference speed."""
    rate = statistics.median(events / (s * scale) for s, events, _, scale in ops)
    latencies = [x * scale for _, _, lat, scale in ops if lat for x in lat]
    if latencies:  # per-event latencies, measured one by one
        p50 = statistics.median(latencies) * 1000
        p99 = statistics.quantiles(latencies, n=100)[98] * 1000
    else:  # a batch has no per-event latency: both read 1000 / events_per_s
        p50 = p99 = 1000 / rate
    return {
        "setup_s": statistics.median(s * scale for s, scale in zip(setup["setup_s"], setup["scales"])),
        "events_per_s": rate,
        "event_p50_ms": p50,
        "event_p99_ms": p99,
        "peak_rss_mb": peak_rss_mb,
        "model_bytes": workload.model_bytes(),
    }


def per_layer(root: Path, setup_trace, tracer, ops, workload) -> tuple[dict, dict]:
    """Per-layer figures: of the timed operation for the layers it exercises, else of set-up.

    A set-up figure is the median per set-up repetition plus the untimed
    preparation; an operation figure is the median per traced operation.
    """
    from tracer import Tracer, median_figures

    phases = {
        "setup": median_figures(Tracer.load(setup_trace), "setup"),
        "prepare": median_figures(tracer, "prepare"),
        "op": median_figures(tracer, "op"),
    }
    metrics = {}
    for name in phases["op"]:
        if any(fnmatch.fnmatchcase(name, pattern) for pattern in workload.timed_layers):
            metrics[name] = phases["op"][name]
        else:
            metrics[name] = phases["setup"][name] + phases["prepare"][name]
    events = statistics.median(op[1] for op in ops[True])
    metrics["model.event_probability_calls_per_event"] = (
        phases["op"]["model.event_probability_calls"] / events if events else 0.0)
    metrics["package.src_lines"] = src_lines(root)
    untraced = statistics.median(events / (s * scale) for s, events, _, scale in ops[False])
    traced = statistics.median(events / (s * scale) for s, events, _, scale in ops[True])
    metrics["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced
    return metrics, phases


def run(args, root: Path) -> int:
    from tracer import Tracer
    from workloads import WORKLOADS

    import oracle

    units = declared_metrics(root, bool(args.trace))
    d = root / OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    d.mkdir(parents=True)
    try:
        setup = setup_in_child(args, d)
        tracer = Tracer() if args.trace else None
        workload = WORKLOADS[args.workload](d, args.seed, tracer)
        if tracer:
            tracer.install()
            with tracer.span("prepare"):
                workload.prepare()
            tracer.uninstall()
        else:
            workload.prepare()
        ops, attempted, failed = timed_phase(workload, args.seconds, bool(args.trace), tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            facts = workload.check()
            correct = failed == 0
        except oracle.CheckFailed as exc:
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            facts, correct = {}, False
        if args.trace:
            metrics, phases = per_layer(root, setup["trace"], tracer, ops, workload)
            trace_file = root / OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "environment": environment(root),
                "workload": args.workload,
                "seed": args.seed,
                "setup_process": setup["trace"],
                "timed_process": tracer.dump(),
                "phases": phases,
            }), encoding="utf-8")
            print(f"trace written to {trace_file.relative_to(root)}")
        else:
            metrics = end_to_end(setup, ops[False], workload, peak_rss_mb)
    finally:
        shutil.rmtree(d, ignore_errors=True)

    print(json.dumps({"environment": environment(root), "workload": args.workload, "seed": args.seed,
                      "setup_runs_s": setup["setup_s"],
                      "setup_scales": setup["scales"],
                      "op_events_per_s": {"untraced": [round(op[1] / op[0], 1) for op in ops[False]],
                                          "traced": [round(op[1] / op[0], 1) for op in ops[True]]},
                      "op_scales": [round(op[3], 4) for op in ops[False]],
                      "latency_samples": sum(len(op[2] or ()) for op in ops[False]),
                      "latency_source": ("per arriving event" if any(op[2] for op in ops[False])
                                         else "1000 / events_per_s (batch)"),
                      **facts}))
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are computed or declared, not both")
    print(f"{args.workload}: {attempted} operations attempted, {failed} failed, outputs "
          + ("correct" if correct else "WRONG"))
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("ship-train", "ship-score", "ship-monitor"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "edbn" / "__init__.py").is_file():
        print("error: src/edbn not found; run from the root of an edbn checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import edbn

    if Path(edbn.__file__).resolve().parent != (root / "src" / "edbn").resolve():
        print(f"error: imported edbn from {edbn.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main(root)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_child:
        run_setup_child(args)
        return 0
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
