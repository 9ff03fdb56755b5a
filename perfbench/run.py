"""Benchmark of the Packet Re-cycling reproduction: workloads, end-to-end
metrics, and a traced run that attributes time to the library's layers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 30 --trace 0

BENCHMARK.json lists the workloads the benchmark gates on; ``isp-failover``
is also runnable.  One run is one fresh process.  It times the workload's
set-up in several fresh processes (``setup_s`` is the median), sets up once
more itself, then repeats the workload for about ``--seconds`` seconds;
each repetition starts from cleared engine caches.  Every output
check counts toward ``attempted``/``failed``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a readable summary goes to standard error.

Timings are reported at a fixed reference speed of the machine, measured
while they ran by ``perfbench/speed.py``: the CPUs of a small shared machine
change speed by up to 1.7x within seconds, with other tenants' load, which
raw wall times would carry into every metric.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half of
the time untraced and half with spans recorded around calls into each
layer, and reports the per-layer metrics, including ``trace.overhead_s``
(traced minus untraced median repetition time) and a split of the traced
wall time into layer self times plus an unattributed remainder.  Its spans
are written to ``.perfbench-run/spans-<workload>.json`` when it ends.
"""

from __future__ import annotations

import time

#: Process start, as near as this script sees it: a set-up is timed from here
#: so that it includes importing the library.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.  Each runs in a fresh
#: process (``--setup-only``): import the library, then the workload's set-up.
SETUPS = 3


class RssSampler(threading.Thread):
    """Peak resident set size of this process and all its descendants within
    a window: the sum of each process's own peak, as the kernel tracks it
    (``VmHWM``, reset when the window opens).  The peaks are read every
    ``interval`` seconds while a window is open, so that a process which
    ends inside the window (a pool worker) still counts."""

    def __init__(self, interval: float = 0.05, exclude=()) -> None:
        super().__init__(daemon=True)
        self.interval = interval
        #: Processes left out, with their descendants (the speed meter's).
        self.exclude = set(exclude)
        #: Peak kB by process while a window is open, else ``None``.
        self._peaks: Optional[Dict[int, int]] = None
        self._lock = threading.Lock()
        self._halt = threading.Event()

    def tree(self) -> List[int]:
        pids = []
        pending = [os.getpid()]
        while pending:
            pid = pending.pop()
            if pid in self.exclude:
                continue
            pids.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as children:
                        pending.extend(int(child) for child in children.read().split())
            except (OSError, ValueError):
                continue  # the process ended between listing and reading
        return pids

    def _read(self) -> None:
        """Fold every live process's peak into the open window (lock held)."""
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            kb = int(line.split()[1])
                            self._peaks[pid] = max(self._peaks.get(pid, 0), kb)
                            break
            except (OSError, ValueError):
                continue

    def open_window(self) -> None:
        with self._lock:
            for pid in self.tree():
                try:
                    with open(f"/proc/{pid}/clear_refs", "w") as clear_refs:
                        clear_refs.write("5")  # peak RSS := current RSS
                except OSError:
                    continue
            self._peaks = {}
            self._read()

    def close_window(self) -> float:
        """Peak MB since ``open_window``."""
        with self._lock:
            self._read()
            peaks, self._peaks = self._peaks, None
        return sum(peaks.values()) / 1024.0

    def run(self) -> None:
        while not self._halt.is_set():
            with self._lock:
                if self._peaks is not None:
                    self._read()
            self._halt.wait(self.interval)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


def setup_in_fresh_process(workload: str, seed: int) -> Tuple[float, float]:
    """When a fresh process started, and the seconds it took to import the
    library and set up."""
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return began, json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class CpuAlternator(threading.Thread):
    """Moves one thread round the allowed CPUs every ``period`` seconds.

    On a small shared machine each CPU's speed varies with its neighbours'
    load, independently of the other CPU's, for seconds at a time.  A serial
    workload left on one CPU measures that CPU's luck; moved round all of
    them it measures their average, which repeats better from run to run
    (over 7 alternating isp-failover repetitions, the coefficient of
    variation fell from 0.145 to 0.075 at an unchanged median).  Only for
    repetitions whose work all runs in this thread: a forked child would
    inherit the one-CPU mask, and pinning a client reshapes how the serve
    daemon's threads are scheduled.
    """

    def __init__(self, period: float = 0.01) -> None:
        super().__init__(daemon=True)
        self.period = period
        self.cpus = sorted(os.sched_getaffinity(0))
        self.thread_id = threading.get_native_id()
        self.active = threading.Event()
        self.lock = threading.Lock()

    def run(self) -> None:
        turn = 0
        while True:
            self.active.wait()
            with self.lock:
                if self.active.is_set():
                    os.sched_setaffinity(self.thread_id, {self.cpus[turn % len(self.cpus)]})
                    turn += 1
            time.sleep(self.period)

    def start_moving(self) -> None:
        if len(self.cpus) > 1:
            self.active.set()

    def stop_moving(self) -> None:
        with self.lock:
            self.active.clear()
            os.sched_setaffinity(self.thread_id, set(self.cpus))


def measure(workload, seconds: float, reps: List) -> None:
    """Repeat ``workload`` for about ``seconds`` (at least once): another
    repetition starts only while at least half of one still fits."""
    from repro.graph.spcache import clear_engines

    mover = CpuAlternator() if workload.serial else None
    if mover is not None:
        mover.start()
    deadline = time.perf_counter() + seconds
    while True:
        clear_engines()
        gc.collect()
        if mover is not None:
            mover.start_moving()
        try:
            reps.append(workload.rep(len(reps)))
        finally:
            if mover is not None:
                mover.stop_moving()
        if time.perf_counter() + reps[-1].wall / 2 >= deadline:
            return


def as_measured(start: float, duration: float) -> float:
    return duration


def end_to_end(setups: List[Tuple[float, float]], reps: List,
               scale: Callable[[float, float], float] = as_measured) -> Dict[str, Dict]:
    """The end-to-end metrics.  Every timing, given as when it began and how
    long it took, is passed through ``scale`` (``SpeedMeter.at_reference_speed``
    in a run).

    ``peak_rss_mb`` is the peak while the first repetition's clock ran; every
    run makes that repetition, and it does the same work for a seed.  Later repetitions of
    serve-mixed peak higher, each by less (491, 795, 980, 1030 MB), as the
    daemon's warm caches and the client's reference results fill; a peak
    over all of them would depend on how many fit in the run.
    """
    from perfbench import stats

    latencies = [
        scale(start, value) for rep in reps for start, value in zip(rep.starts, rep.latencies)
    ]
    summary = stats.describe([1000.0 * value for value in latencies])
    walls = [scale(rep.window[0], rep.wall) for rep in reps]
    wall = sum(walls)
    return {
        "setup_s": {"value": stats.median([scale(*setup) for setup in setups]), "unit": "s"},
        "wall_s": {"value": stats.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": reps[0].rss_mb, "unit": "MB"},
        "request_p50_ms": {"value": summary["p50"], "unit": "ms"},
        "request_tail_ms": {"value": summary["tail"], "unit": "ms"},
        "requests_per_s": {"value": len(latencies) / wall, "unit": "1/s"},
    }, summary


def traced_metrics(name, seed, seconds, outcomes, workdir, untraced: List) -> Dict[str, Dict]:
    """The traced half of a ``--trace 1`` run."""
    from perfbench import layers, stats
    from perfbench.tracing import (
        ATTR, END, NAME, START, Tracer, attribute_wall, load_spans, self_times, within,
    )
    from perfbench.workloads import WORKLOADS

    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    tracer = Tracer(dump_dir=spans_dir)
    layers.install(tracer)
    kwargs = {}
    daemon_spans = workdir / "daemon-spans.json"
    if name == "serve-mixed":
        kwargs["trace_out"] = daemon_spans
    (workdir / "traced").mkdir()
    workload = WORKLOADS[name](seed, workdir / "traced", outcomes, tracer=tracer, **kwargs)
    reps: List = []
    try:
        workload.setup()
        original_rep = workload.rep

        def traced_rep(index):
            tracer.active = True
            try:
                return original_rep(index)
            finally:
                tracer.active = False

        workload.rep = traced_rep
        measure(workload, seconds, reps)
    finally:
        workload.teardown()
        tracer.restore()
    tracer.collect(spans_dir)
    tracer.collect(workdir)
    if daemon_spans.exists():
        tracer.spans.extend(load_spans(daemon_spans))

    windows = [rep.window for rep in reps]
    spans = within(tracer.spans, windows)
    # Spans stayed in memory while measuring; they are written out once, at
    # the end, replacing the previous traced run's file of this workload.
    (workdir.parent / f"spans-{name}.json").write_text(json.dumps(spans))
    wall = sum(rep.wall for rep in reps)
    self_by_layer, unattributed = attribute_wall(spans, os.getpid(), threading.get_ident(), wall)
    selfs = self_times(spans)
    counters: Dict[str, float] = {}
    extra: Dict[str, float] = {}
    for rep in reps:
        for key, value in rep.counters.items():
            counters[key] = counters.get(key, 0) + value
        for key, value in rep.extra.items():
            extra[key] = extra.get(key, 0) + value
    extra["core.build_self_s"] = layers.core_build_self(spans, selfs)
    extra["trace.unattributed_s"] = unattributed
    extra["trace.wall_s"] = wall
    extra["trace.overhead_s"] = stats.median([r.wall for r in reps]) - stats.median(
        [r.wall for r in untraced]
    )
    client = [value for rep in reps for value in rep.latencies]
    summary = stats.describe([1000.0 * value for value in client])
    extra["client.request_p50_ms"] = summary["p50"]
    extra["client.request_tail_ms"] = summary["tail"]
    extra["client.request_tail_pct"] = summary["tail_pct"]
    extra["client.requests"] = len(client)
    if name == "serve-mixed":
        handled = sum(
            span[END] - span[START]
            for span in spans
            if span[NAME] == "serve.handle" and span[ATTR][0] in ("query", "deliver", "stretch")
        )
        extra["serve.transport_ms"] = 1000.0 * stats.ratio(sum(client) - handled, len(client))
    values = layers.layer_metrics(spans, self_by_layer, counters, len(reps), extra)
    return {key: {"value": value, "unit": _unit(key)} for key, value in values.items()}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("us_per_pair"):
        return "us"
    if name.endswith("per_edge") or name.endswith("per_query"):
        return "count/op"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import stats
    from perfbench.speed import NOMINAL_S, SpeedMeter
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    workdir = ROOT / ".perfbench-run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outcomes = stats.Outcomes()
    if args.setup_only:
        workload = cls(args.seed, workdir, outcomes)
        mover = CpuAlternator() if workload.serial_setup else None
        if mover is not None:
            mover.start()
            mover.start_moving()
        try:
            workload.setup()
            elapsed = time.perf_counter() - STARTED
        finally:
            if mover is not None:
                mover.stop_moving()
            workload.teardown()
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": elapsed}))
        return 0

    meter = SpeedMeter()
    sampler = None
    setups: List[Tuple[float, float]] = []
    reps: List = []
    workload = None
    try:
        meter.start()
        sampler = RssSampler(exclude=meter.pids())
        sampler.start()
        for _ in range(SETUPS):
            setups.append(setup_in_fresh_process(args.workload, args.seed))
        workload = cls(args.seed, workdir / "measured", outcomes)
        workload.workdir.mkdir()
        workload.setup()
        untraced_seconds = args.seconds / 2 if args.trace else args.seconds
        workload.rss = sampler
        measure(workload, untraced_seconds, reps)
        workload.teardown()
        workload = None
        if args.trace:
            metrics = traced_metrics(
                args.workload, args.seed, args.seconds / 2, outcomes, workdir, reps
            )
    finally:
        if workload is not None:
            workload.teardown()
        if sampler is not None:
            sampler.stop()
        meter.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, latency = end_to_end(setups, reps, meter.at_reference_speed)
    if not args.trace:
        metrics = e2e
    for problem in outcomes.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(
        f"perfbench {args.workload} seed={args.seed}: {len(reps)} repetitions, "
        f"{len(setups)} set-ups, {latency['n']} requests "
        f"(request_tail_ms is p{latency['tail_pct']:g})",
        file=sys.stderr,
    )
    kernel_ms = [1000.0 * kernel_s for _, kernel_s in meter.samples] or [0.0]
    print(
        f"  timings at the reference speed ({1000.0 * NOMINAL_S:g} ms per speed-meter kernel; "
        f"this run's kernels: median {stats.median(kernel_ms):.3f} ms over {len(meter.samples)})",
        file=sys.stderr,
    )
    for name, metric in e2e.items():
        print(f"  {name:16s} {metric['value']:12.4f} {metric['unit']}", file=sys.stderr)
    print(
        f"  {'failed_ratio':16s} {outcomes.failed_ratio:12.4f} "
        f"({outcomes.failed} of {outcomes.attempted} operations and checks)",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
