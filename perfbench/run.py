"""Seeded closed-loop solve benchmark for ballsat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

One caller sends each instance as DIMACS text through ``parse_dimacs``
and ``solve``, and sends the next only after the answer is back.  Every
answer is checked.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See README.md in this directory for the metrics and the
workloads.
"""

import argparse
import dataclasses
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

import ballsat  # noqa: E402

if Path(ballsat.__file__).resolve().parent != REPO / "src" / "ballsat":
    sys.exit(f"ballsat imported from {ballsat.__file__}, not from this checkout")

import numpy as np  # noqa: E402

from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    build_corpus,
    calibration_slice,
    failure,
    warmup_formula,
)

RUN_SECONDS = 30
MIN_SAMPLES = 100     # p90 needs at least ten samples beyond it
LOOP_DEADLINE = 150   # wall seconds after start; the loop stops here even short of MIN_SAMPLES
SETUP_SAMPLES = 7     # fresh processes timed for setup_s, spread over the timed loop
SETUP_SLICES = 20     # calibration slices timed right after each set-up
# seconds of one calibration slice that define one reference second
# (about what the slice takes on a quiet 2-vCPU Xeon VM)
REF_SLICE_S = 0.005
# Solves slow down less than the slice when the host slows the vCPU: by
# the slice's slowdown to about this power (fit over all three workloads).
SLOWDOWN_EXPONENT = 0.75

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("instances_per_s", "1/s", "higher", 0.24),
    ("instance_s.p50", "s", "lower", 0.24),
    ("instance_s.p90", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
PER_LAYER = (
    *(
        (f"{span}.{field}", unit, "lower")
        for span in SPAN_NAMES
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("codes.binary_words", "count", "lower"),
    ("codes.kary_words", "count", "lower"),
    ("fpsearch.state_words", "count", "lower"),
    ("fpsearch.amplify_steps", "count", "lower"),
    ("pbs.branches", "count", "lower"),
    ("pbs.quantum_calls", "count", "lower"),
    ("pbs.total_queries", "count", "lower"),
    ("pbs.groups_failed", "count", "lower"),
    ("pbs.leaf_hits", "count", "higher"),
    ("pbs.leaf_hit_ratio", "ratio", "higher"),
    ("orchestrator.dispatches", "count", "lower"),
    ("orchestrator.dispatch_hits", "count", "higher"),
    ("orchestrator.dispatch_hit_ratio", "ratio", "higher"),
    ("orchestrator.sweep_sat", "count", "higher"),
    ("trace.solves", "count", "higher"),
    ("trace.overhead", "ratio", "higher"),
    ("counters.mismatched", "count", "lower"),
    ("counters.worker_dependent", "count", "lower"),
)
COUNTER_FIELDS = ("quantum_calls", "total_queries", "branches", "dispatches", "groups_failed")


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def set_up(w, cfg) -> None:
    """Build every cover the workload needs: one sweep-answered solve per shape."""
    for n, width in w.shapes():
        res = ballsat.solve(warmup_formula(n, width), cfg)
        if res.status != "SAT" or res.stats.dispatches:
            raise RuntimeError(f"warm-up for n={n} width={width} left the sweep")


def clocks() -> tuple[float, float]:
    """Wall seconds, and CPU seconds of all threads of this process and its ended children."""
    t = os.times()
    return time.perf_counter(), time.process_time() + t.children_user + t.children_system


def elapsed(since: tuple[float, float]) -> float:
    """Seconds since ``since = clocks()``: the smaller of wall and CPU time.

    Serial work reads its CPU time, which leaves out the time the host took
    the vCPU away (steal).  Work spread over several threads or processes
    at once reads its wall time, which is the shorter, so a parallel
    speed-up shows.
    """
    wall, cpu = clocks()
    return min(wall - since[0], cpu - since[1])


def run_one(text: str, cfg):
    """One request: parse and solve, timed together; a crash becomes a failure."""
    start = clocks()
    try:
        res, err = ballsat.solve(ballsat.parse_dimacs(text), cfg), None
    except Exception as exc:  # counted and reported, the loop goes on
        res, err = None, f"{type(exc).__name__}: {exc}"
    took = elapsed(start)
    if multiprocessing.active_children():
        err = err or "a worker process outlived the solve, so its CPU time went uncounted"
    return took, res, err


def slice_s(threads: int = 1) -> float:
    """Seconds per calibration slice, run as one copy on each of ``threads`` threads."""
    start = clocks()
    if threads == 1:
        calibration_slice()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for f in [pool.submit(calibration_slice) for _ in range(threads)]:
                f.result()
    return elapsed(start) / threads


def to_reference(slices) -> float:
    """Factor from measured seconds to reference seconds, from calibration slice times.

    Other tenants of a shared host take the vCPU away and slow every
    instruction, in spells of seconds to minutes; the slices, timed the
    same way right around the measured work, slow down with it.
    """
    return (REF_SLICE_S / statistics.mean(slices)) ** SLOWDOWN_EXPONENT


def checked(inst, res, err) -> bool:
    """True if the answer is right; a wrong one is reported on stderr."""
    why = err or failure(inst, res.status, res.model)
    if why is not None:
        print(f"failure: instance {inst.index}: {why}", file=sys.stderr)
    return why is None


def context() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def setup_sample(name: str) -> float:
    """Reference seconds from starting a fresh interpreter until it has set up.

    The smaller of the wall time until the child prints ``ready`` and the
    CPU time the child reports for the same stretch.
    """
    t = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        ready = child.stdout.readline()
        took = time.perf_counter() - t
        try:
            rest, _ = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    if child.returncode != 0 or ready != "ready\n":
        raise RuntimeError(f"set-up process failed with code {child.returncode}")
    report = json.loads(rest.splitlines()[-1])
    return min(took, report["cpu"]) * report["scale"]


def untraced(w, seconds: int, corpus, cfg, t_main: float):
    """The timed loop; set-up sample i is taken once i/SETUP_SAMPLES of it has passed.

    A calibration slice is timed before the first solve, after every
    solve, and again after each set-up sample.  Each solve is scaled by
    the median of the two slices before it and the two after it, so a
    slow spell of the host is removed from the solves it hit rather than
    spread over the whole run, and one slice that was itself interrupted
    does not count.
    """
    samples, times, slices, failed = [], [], [], 0
    before = []  # index in slices of the slice timed right before each solve
    fresh = True  # no slice since the last set-up sample
    start, sampling = time.perf_counter(), 0.0
    while True:
        now = time.perf_counter()
        solving = now - start - sampling
        if now - t_main >= LOOP_DEADLINE or (
            solving >= seconds and len(times) >= MIN_SAMPLES and len(samples) == SETUP_SAMPLES
        ):
            break
        if len(samples) < SETUP_SAMPLES and solving >= len(samples) * seconds / SETUP_SAMPLES:
            samples.append(setup_sample(w.name))
            sampling += time.perf_counter() - now
            fresh = True
            continue
        if fresh:
            slices.append(slice_s(w.workers))
            fresh = False
        inst = corpus[len(times) % len(corpus)]
        dt, res, err = run_one(inst.dimacs, cfg)
        before.append(len(slices) - 1)
        slices.append(slice_s(w.workers))
        times.append(dt)
        failed += not checked(inst, res, err)
    busy = sum(times)
    factors = [to_reference([statistics.median(slices[max(0, b - 1):b + 3])]) for b in before]
    times = [t * f for t, f in zip(times, factors)]
    print(f"unscaled: {len(times)} solves, {len(times) / busy:.4g}/s over {busy:.3f} s "
          f"of solving, in {time.perf_counter() - start - sampling:.3f} s of wall time")
    print(f"1 s of solving = {sum(times) / busy:.4f} reference s "
          f"(per-solve factors {min(factors):.3f}-{max(factors):.3f})")
    if len(times) < MIN_SAMPLES:
        print(f"warning: {len(times)} samples, p90 rests on fewer than ten beyond it")
    metrics = {
        "instances_per_s": len(times) / sum(times),
        "instance_s.p50": statistics.median(times),
        "instance_s.p90": statistics.quantiles(times, n=10)[-1],
        "setup_s": statistics.median(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "instance_s.p50": f"{len(times)} solves",
        "instance_s.p90": f"{len(times)} solves",
        "setup_s": f"median of {len(samples)} fresh processes",
    }
    return metrics, notes, len(times), failed, True


def traced(w, seed: int, seconds: int, corpus, cfg, tracer):
    """Each instance solved untraced, then traced, then with one worker; counters compared."""
    solves = max(1, round(seconds * w.trace_per_s))
    one_worker = dataclasses.replace(cfg, workers=1)
    plain_s = traced_s = 0.0
    failed = mismatched = worker_dependent = leaf_hits = sweep_sat = 0
    totals = dict.fromkeys(COUNTER_FIELDS, 0)
    rows = []
    for i in range(solves):
        inst = corpus[i % len(corpus)]
        dt, plain, err = run_one(inst.dimacs, cfg)
        plain_s += dt
        failed += not checked(inst, plain, err)
        tracer.current_instance = i
        tracer.install()
        try:
            dt, res, err = run_one(inst.dimacs, cfg)
        finally:
            tracer.uninstall()
        traced_s += dt
        failed += not checked(inst, res, err)
        _, single, err = run_one(inst.dimacs, one_worker)
        failed += not checked(inst, single, err)
        if res is None or plain is None or single is None:
            continue
        row = tuple(getattr(res.stats, f) for f in COUNTER_FIELDS)
        rows.append((i, *row))
        mismatched += row != tuple(getattr(plain.stats, f) for f in COUNTER_FIELDS)
        worker_dependent += row != tuple(getattr(single.stats, f) for f in COUNTER_FIELDS)
        for f, v in zip(COUNTER_FIELDS, row):
            totals[f] += v
        leaf_hits += sum(r.outcome == "sat" for r in res.stats.records)
        sweep_sat += res.status == "SAT" and res.stats.dispatches == 0

    metrics = {}
    for span, (calls, busy) in tracer.layer_totals().items():
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = busy
    metrics.update(tracer.counts)
    metrics.update({
        "pbs.branches": totals["branches"],
        "pbs.quantum_calls": totals["quantum_calls"],
        "pbs.total_queries": totals["total_queries"],
        "pbs.groups_failed": totals["groups_failed"],
        "pbs.leaf_hits": leaf_hits,
        "pbs.leaf_hit_ratio": leaf_hits / max(1, totals["quantum_calls"]),
        "orchestrator.dispatches": totals["dispatches"],
        "orchestrator.dispatch_hit_ratio":
            tracer.counts["orchestrator.dispatch_hits"] / max(1, totals["dispatches"]),
        "orchestrator.sweep_sat": sweep_sat,
        "trace.solves": solves,
        "trace.overhead": plain_s / traced_s,
        "counters.mismatched": mismatched,
        "counters.worker_dependent": worker_dependent,
    })
    notes = {
        "pbs.leaf_hit_ratio": f"base pbs.quantum_calls = {totals['quantum_calls']}",
        "orchestrator.dispatch_hit_ratio": f"base orchestrator.dispatches = {totals['dispatches']}",
        "trace.overhead": f"untraced {plain_s:.3f} s / traced {traced_s:.3f} s, unscaled",
        "counters.mismatched": f"of {solves} instances solved twice",
        "counters.worker_dependent": f"of {solves} instances, against a one-worker solve",
    }
    # with one worker the counters are deterministic: a mismatch is a defect
    steady = w.workers > 1 or mismatched == worker_dependent == 0
    if not steady:
        print(f"failure: counters differ on {max(mismatched, worker_dependent)} "
              f"instances with one worker", file=sys.stderr)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{w.name}-seed{seed}.npz"
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        counters=np.array(rows, dtype=np.int64).reshape(-1, 1 + len(COUNTER_FIELDS)),
        **tracer.arrays(),
    )
    print(f"spans: {len(tracer.start)} written to {path.relative_to(REPO)}")
    return metrics, notes, 3 * solves, failed, steady


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args()
    if args.write_manifest:
        (REPO / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    w = WORKLOADS[args.workload]
    cfg = w.config()
    if args.setup_only:  # one set-up sample, timed by the parent until "ready"
        set_up(w, cfg)
        cpu = clocks()[1]  # since this interpreter started
        print("ready", flush=True)
        scale = to_reference([slice_s() for _ in range(SETUP_SLICES)])
        print(json.dumps({"cpu": cpu, "scale": scale}))
        return 0
    t_main = time.perf_counter()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        set_up(w, cfg)
    finally:
        if tracer is not None:
            tracer.uninstall()

    print(f"# workload {w.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"context {json.dumps(context())}")
    corpus, tried = build_corpus(w, args.seed)
    print(f"corpus {len(corpus)} instances from {tried} draws "
          f"({sum(not i.satisfiable for i in corpus)} certified UNSAT)")
    if tracer is None:
        metrics, notes, attempted, failed, steady = untraced(
            w, args.seconds, corpus, cfg, t_main)
        table = END_TO_END
    else:
        metrics, notes, attempted, failed, steady = traced(
            w, args.seed, args.seconds, corpus, cfg, tracer)
        table = PER_LAYER
    for name, unit, *_ in table:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {metrics[name]:>14.6g} {unit}{note}")
    print(f"{'failed_frac':40s} {failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, *_ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
