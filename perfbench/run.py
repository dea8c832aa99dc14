"""Benchmark of the `scenemon monitor` pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) through the public entry point
`scenemon.cli.main(["monitor", "-", ...])`, in process, as a closed loop:
one thread, and the monitor pulls the next scene line only after it has
written every verdict of the previous one. `sys.stdin` is an iterator over
the generated lines that stamps each pull; `sys.stdout` is a sink that
stamps each verdict line. Scene latency runs from the pull of a scene's line
to the write of its last verdict line.

Stamps read the CPU time of the one thread doing the work, not the wall
clock: the loop never waits for I/O, so the two differ only by the time the
thread was not scheduled, which on a shared virtual machine swings by tens
of percent between runs. `--seconds` is wall time. End-to-end times are then
scaled to a reference machine speed measured by `calibrate`, alongside.

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a separate traced pass (trace.py). Either way every verdict is checked
afterwards (check.py), and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 11  # set-up is timed in this many fresh processes, after one warm-up
MIN_SCENES = 100  # a timed run feeds at least this many, for 10 samples above p90
# CPU seconds `calibrate` takes on the machine the baseline was measured on
# (perfbench/baseline.json); times are reported scaled to that machine speed
REFERENCE_CALIBRATION_S = 0.08
PROBE_TIMEOUT_S = 60
TRACE_DIR = ROOT / ".perfbench_trace"

E2E_UNITS = {
    "scenes_per_s": "scenes/s",
    "scene_ms_p50": "ms",
    "scene_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# -- stdin / stdout stand-ins ---------------------------------------------


class Feeder:
    """Stands in for stdin: hands out a stream's scene lines one by one."""

    def __init__(self, stream, tracer=None):
        self.lines = stream.lines
        self.tracer = tracer
        self.pulls: list[float] = []
        self.bytes = 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if self.tracer is not None:
            idx = self.tracer.open(self.tracer.name_id("bench.feed"))
            try:
                return self._next()
            finally:
                self.tracer.close(idx)
        return self._next()

    def _next(self) -> str:
        n = len(self.pulls)
        if n == len(self.lines):
            raise StopIteration
        line = self.lines[n]
        self.bytes += len(line)
        self.pulls.append(thread_time())
        return line


class Sink:
    """Stands in for stdout: keeps what is written, stamps each line end."""

    def __init__(self, tracer=None):
        self.parts: list[str] = []
        self.line_times: list[float] = []
        self.tracer = tracer

    def write(self, text: str) -> int:
        if self.tracer is not None:
            idx = self.tracer.open(self.tracer.name_id("bench.sink"))
        self.parts.append(text)
        newlines = text.count("\n")
        if newlines:
            now = thread_time()
            self.line_times.extend([now] * newlines)
        if self.tracer is not None:
            self.tracer.close(idx)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


@dataclass
class StreamRun:
    """One `scenemon monitor` invocation as observed from outside."""

    stream: object
    fed: int
    rc: int | None
    output: str
    stderr: str
    latencies: list[float] = field(default_factory=list)  # seconds, per scene
    window: float = 0.0  # first pull to last verdict line, CPU seconds
    wall: float = 0.0  # the whole invocation, set-up included, wall seconds
    input_bytes: int = 0
    output_bytes: int = 0
    failed: int = 0  # scenes whose verdicts the checker rejected


def run_monitor(stream, tracer=None) -> StreamRun:
    """One `scenemon monitor` invocation over the whole stream."""
    import scenemon.cli

    feeder = Feeder(stream, tracer)
    sink = Sink(tracer)
    err = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = feeder, sink, err
    root = tracer.open(tracer.name_id("cli.main")) if tracer is not None else None
    wall = perf_counter()
    try:
        rc = scenemon.cli.main(stream.argv)
    except Exception:  # the run goes on; the checker fails this stream
        rc = None
        err.write(traceback.format_exc())
    finally:
        wall = perf_counter() - wall
        if tracer is not None:
            tracer.close(root)
        sys.stdin, sys.stdout, sys.stderr = saved
    k = len(stream.properties)
    latencies = [
        sink.line_times[(i + 1) * k - 1] - pulled
        for i, pulled in enumerate(feeder.pulls)
        if len(sink.line_times) >= (i + 1) * k
    ]
    window = 0.0
    if feeder.pulls and sink.line_times:
        window = sink.line_times[-1] - feeder.pulls[0]
    output = sink.text()
    return StreamRun(stream, len(feeder.pulls), rc, output, err.getvalue(),
                     latencies, window, wall, feeder.bytes, len(output))


# -- workloads --------------------------------------------------------------


def build(name: str, seed: int, om):
    """The workload's streams, and a checker holding their references."""
    from check import Checker
    from workloads import dense_stream, phase_streams

    checker = Checker(om)
    if name != "phase_replay":
        return [dense_stream(name, seed, om)], checker
    streams = phase_streams(seed, om)
    for stream in streams:
        checker.reference(stream)
    return streams, checker


@contextmanager
def harness_frozen():
    """Keep the benchmark's own objects, such as the generated scenes, out
    of the garbage collections the monitor triggers while it is timed."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def checked(run: StreamRun, checker) -> StreamRun:
    """Check a run's verdicts, then drop them, so that memory does not grow
    with the number of scenes a run gets through."""
    run.failed = checker.check(run.stream, run.fed, run.output, run.rc, run.stderr)
    run.output = ""
    return run


def run_passes(streams, checker, seconds: float | None = None,
               passes: int | None = None, min_scenes: int = 0,
               tracer=None) -> tuple[list[StreamRun], list[float]]:
    """Whole passes until `seconds` have passed and `min_scenes` were fed,
    or exactly `passes` passes.

    A pass runs every stream once, each in its own monitor invocation.
    Every pass does the same work, so per-scene counts do not depend on how
    many passes fit. Between passes, outside the timed windows, the machine
    speed is sampled with `calibrate`. Traced runs are left unchecked: the
    checker calls into scenemon too, and must do so after the tracer is gone.
    """
    runs: list[StreamRun] = []
    samples = [calibrate()]
    start = perf_counter()
    done = 0
    while (done < passes if passes is not None else
           done == 0 or perf_counter() - start < seconds
           or sum(run.fed for run in runs) < min_scenes):
        for stream in streams:
            run = run_monitor(stream, tracer=tracer)
            runs.append(run if tracer is not None else checked(run, checker))
        samples.append(calibrate())
        done += 1
    return runs, samples


def _calibration_record() -> str:
    rng = random.Random(0)
    ids = [f"v{i:03d}" for i in range(150)]
    return json.dumps({
        "nodes": [{"id": oid, "attrs": {"velocity": rng.random(),
                                        "position": [rng.random(), rng.random()]}}
                  for oid in ids],
        "edges": [{"src": rng.choice(ids), "rel": rng.choice(("isIn", "inFrontOf")),
                   "dst": rng.choice(ids)} for _ in range(6000)],
    })


CALIBRATION_RECORD = _calibration_record()


def calibrate() -> float:
    """CPU seconds of a fixed piece of work that uses no scenemon code.

    It decodes a scene-sized JSON record and builds edge sets and adjacency
    maps from it, the same kinds of work the monitor does. Its time on the
    reference machine over its time now is how much slower this machine
    runs at the moment: on a shared virtual machine that swings by tens of
    percent within minutes, for every program alike.
    """
    start = thread_time()
    for _ in range(6):
        record = json.loads(CALIBRATION_RECORD)
        edges = {(e["src"], e["rel"], e["dst"]) for e in record["edges"]}
        adjacency: dict = {}
        for src, rel, dst in edges:
            adjacency.setdefault(src, {}).setdefault(rel, set()).add(dst)
        fan_out = 0
        for rels in adjacency.values():
            for dsts in rels.values():
                fan_out += len(dsts)
    return thread_time() - start


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_seconds(argv: list[str]) -> list[float]:
    """Set-up time of fresh monitor processes; the first, warm-up one is dropped."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(argv)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


def end_to_end(workload: str, seed: int, seconds: float, om) -> tuple[dict, dict]:
    streams, checker = build(workload, seed, om)
    # phase_replay's set-up is that of its last streams, the P2 ones
    setups = setup_seconds(streams[-1].argv)
    with harness_frozen():
        runs, samples = run_passes(streams, checker, seconds=seconds,
                                   min_scenes=MIN_SCENES)
    latencies = [x for run in runs for x in run.latencies]
    window = sum(run.window for run in runs)
    scenes = len(latencies)
    measured = {
        "scenes_per_s": scenes / window if window > 0 else 0.0,
        "scene_ms_p50": statistics.median(latencies) * 1e3 if latencies else 0.0,
        "scene_ms_p90": percentile(latencies, 0.9) * 1e3 if latencies else 0.0,
        "setup_s": statistics.median(setups),
    }
    slowdown = statistics.median(samples) / REFERENCE_CALIBRATION_S
    metrics = {name: value * slowdown if name == "scenes_per_s" else value / slowdown
               for name, value in measured.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "scenes": scenes,
        "samples_above_p90": scenes - math.ceil(0.9 * scenes),
        "invocations": len(runs),
        "machine_slowdown": slowdown,
        **{f"measured_{name}": value for name, value in measured.items()},
        "invocations_wall_s": sum(run.wall for run in runs),
    }
    return metrics, tally(runs, info)


def tally(runs: list[StreamRun], info: dict) -> dict:
    info["attempted"] = sum(len(run.stream.scenes) for run in runs)
    info["failed"] = sum(run.failed for run in runs)
    return info


# -- traced run ---------------------------------------------------------------

PER_LAYER_UNITS = {
    "scene_graph.read_ms": "ms/scene",
    "scene_graph.parse_csg_ms": "ms/scene",
    "scene_graph.edges": "count/scene",
    "scene_graph.input_bytes": "bytes/scene",
    "matching.pattern_order_ms": "ms/scene",
    "matching.first_next_ms": "ms/scene",
    "matching.iter_ms": "ms/scene",
    "matching.embeddings": "count/scene",
    "matching.useful_ratio": "ratio",
    "object_model.is_subclass_calls": "count/scene",
    "predicates.bind_ms": "ms/scene",
    "predicates.bind_calls": "count/scene",
    "predicates.evaluate_ms": "ms/scene",
    "predicates.evaluate_calls": "count/scene",
    "monitor.sg_comparison_self_ms": "ms/scene",
    "monitor.checks": "count/scene",
    "monitor.automaton_step_ms": "ms/scene",
    "monitor.serialize_verdict_ms": "ms/scene",
    "monitor.verdict_bytes": "bytes/scene",
    "cli.self_ms": "ms/scene",
    "object_model.load_ms": "ms/call",
    "dsl.load_asg_ms": "ms/call",
    "trace.scene_ms": "ms/scene",
    "trace.overhead_ratio": "ratio",
}

# layers whose self times add up to nearly all of `trace.scene_ms`
LAYER_SHARES = {
    "scene_graph": ("scene_graph.read_ms",),
    "matching": ("matching.pattern_order_ms", "matching.iter_ms"),
    "predicates": ("predicates.bind_ms", "predicates.evaluate_ms"),
    "monitor": ("monitor.sg_comparison_self_ms", "monitor.automaton_step_ms",
                "monitor.serialize_verdict_ms"),
    "cli": ("cli.self_ms",),
}


def per_layer(workload: str, seed: int, seconds: float, om) -> tuple[dict, dict]:
    """Traced passes, then as many untraced passes over the same inputs."""
    from trace import Tracer

    streams, checker = build(workload, seed, om)
    tracer = Tracer()
    with harness_frozen():
        tracer.install()
        try:
            # half the budget traced; the untraced replay takes less than the rest
            traced, _ = run_passes(streams, checker, seconds=seconds / 2,
                                   tracer=tracer)
        finally:
            tracer.uninstall()
        for run in traced:
            checked(run, checker)
        # the same inputs again, untraced, for the tracing overhead
        plain, _ = run_passes(streams, checker, passes=len(traced) // len(streams))

    calls, total, own = tracer.totals()
    counts = tracer.counts
    scenes = sum(run.fed for run in traced)

    def ms(ns: float) -> float:
        return ns / 1e6 / scenes

    embeddings = counts["matching.next"]
    traced_time = sum(run.window for run in traced)
    plain_time = sum(run.window for run in plain)
    metrics = {
        "scene_graph.read_ms": ms(total["scene_graph.read"] - total["bench.feed"]),
        "scene_graph.parse_csg_ms": ms(total["scene_graph.parse_csg"]),
        "scene_graph.edges": counts["scene_graph.edges"] / scenes,
        "scene_graph.input_bytes": sum(r.input_bytes for r in traced) / scenes,
        "matching.pattern_order_ms": ms(total["matching.pattern_order"]),
        "matching.first_next_ms": ms(own["matching.first_next"]),
        "matching.iter_ms": ms(own["matching.first_next"] + own["matching.next"]),
        "matching.embeddings": embeddings / scenes,
        "matching.useful_ratio": (counts["predicates.satisfied"] / embeddings
                                  if embeddings else 0.0),
        "object_model.is_subclass_calls":
            counts["object_model.is_subclass_calls"] / scenes,
        "predicates.bind_ms": ms(total["predicates.bind"]),
        "predicates.bind_calls": calls["predicates.bind"] / scenes,
        "predicates.evaluate_ms": ms(total["predicates.evaluate"]),
        "predicates.evaluate_calls": calls["predicates.evaluate"] / scenes,
        "monitor.sg_comparison_self_ms": ms(own["monitor.sg_comparison"]),
        "monitor.checks": calls["monitor.sg_comparison"] / scenes,
        "monitor.automaton_step_ms": ms(total["monitor.automaton_step"]),
        "monitor.serialize_verdict_ms": ms(total["monitor.serialize_verdict"]),
        "monitor.verdict_bytes": sum(r.output_bytes for r in traced) / scenes,
        "cli.self_ms": ms(own["cli.main"]),
        "object_model.load_ms": total["object_model.load"] / 1e6 / len(traced),
        "dsl.load_asg_ms": total["dsl.load_asg"] / 1e6 / len(traced),
        "trace.scene_ms": ms(total["cli.main"]),
        "trace.overhead_ratio": traced_time / plain_time if plain_time > 0 else 0.0,
    }
    tracer.dump(str(TRACE_DIR / workload))
    info = {"traced_scenes": scenes, "invocations": len(traced),
            "spans": len(tracer.span_name)}
    return metrics, tally(traced + plain, info)


def shares(metrics: dict) -> dict[str, float]:
    """Each layer's self time as a share of the traced time per scene."""
    scene = metrics["trace.scene_ms"]
    return {layer: sum(metrics[name] for name in names) / scene
            for layer, names in LAYER_SHARES.items()}


# What each workload is for, as a check on its traced run.
PURPOSE = {
    "phase_replay": (
        "pattern_order plus the first next() outweigh the rest of matching",
        lambda m: (m["matching.pattern_order_ms"] + m["matching.first_next_ms"]
                   > m["matching.iter_ms"] - m["matching.first_next_ms"])),
    "dense_witness": (
        "scene_graph has the largest self-time share",
        lambda m: max(shares(m).items(), key=lambda kv: kv[1])[0] == "scene_graph"),
    "dense_halted": (
        "matching.iter + predicates.bind + predicates.evaluate exceed half the time",
        lambda m: (m["matching.iter_ms"] + m["predicates.bind_ms"]
                   + m["predicates.evaluate_ms"] > 0.5 * m["trace.scene_ms"])),
}


# -- command line -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("phase_replay", "dense_witness", "dense_halted"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "scenemon" / "__init__.py").is_file():
        print(f"perfbench: no scenemon sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scenemon

    if Path(scenemon.__file__).resolve().parent != (SRC / "scenemon").resolve():
        print(f"perfbench: imported scenemon from {scenemon.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    om = scenemon.default_object_model()

    if args.trace:
        metrics, info = per_layer(args.workload, args.seed, args.seconds, om)
        units = PER_LAYER_UNITS
    else:
        metrics, info = end_to_end(args.workload, args.seed, args.seconds, om)
        units = E2E_UNITS
    attempted, failed = info["attempted"], info["failed"]
    info["failed_ratio"] = failed / attempted if attempted else 1.0

    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{k} {v:.6g}" for k, v in info.items()))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if args.trace:
        print("  self-time share of trace.scene_ms: " + "  ".join(
            f"{layer} {share:.3f}" for layer, share in shares(metrics).items()))
        claim, holds = PURPOSE[args.workload]
        print(f"  purpose: {claim}: {'holds' if holds(metrics) else 'DOES NOT HOLD'}")
    else:
        print(f"  {'failed_ratio':34s} {info['failed_ratio']:14.6g} fraction")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
