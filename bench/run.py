#!/usr/bin/env python3
"""Run one workload of the myersonlab benchmark and print one JSON result line.

    python3 bench/run.py --workload exact-revenue --seed 0 --seconds 25 --trace 0

The run performs a fixed list of ops made from --seed; their number is
--seconds times the workload's nominal rate, so it does not depend on how
fast the program is. With --trace 0 the result holds the end-to-end metrics;
with --trace 1 every call into a layer is wrapped in a span, the result
holds the per-layer metrics, and the spans are written to
bench/out/trace-<workload>-<seed>.json. Metric names and units come from
BENCHMARK.json at the repository root.

Times are scaled to a reference machine speed. The machine this benchmark
was written on is shared, and its speed for the same pure-Python work
swings by up to a factor of two from second to second. So a fixed
calibration loop is timed right before and right after each op, and the
op's wall time is multiplied by CAL_REF_S over the mean of the two. The
program's code never runs inside the calibration loop, so a change to the
program moves the scaled times just as it moves the wall times.
Set-up, from the start of main to the first op, is scaled the same way, by
one calibration loop before it and one after. setup_s is the median of the
run's own set-up and that of ten fresh processes started between ops.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from bisect import bisect_right
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_OPS = 20
SETUP_SAMPLES = 11  # the run's own set-up and that of fresh processes spread over the run
TAIL_BEYOND = 10  # op_tail_s is the slowest op time with this many ops beyond it
CAL_REF_S = 0.003  # calibration loop time at the reference speed (the 2-core machine it was tuned on, uncontended)


def calibration_time() -> float:
    """Wall time of a fixed mix of pure-Python work: float loops, dicts, bisect, small lists."""
    xs = [i * 0.001 for i in range(200)]
    table: dict[int, float] = {}
    acc = 0.0
    start = perf_counter()
    for _ in range(60):
        for x in xs:
            acc += x * 1.5 - acc * 1e-9
    for _ in range(25):
        for i, x in enumerate(xs):
            table[i] = table.get(i, 0.0) + x
            bisect_right(xs, x)
            tuple(xs[i : i + 3])
    for _ in range(20):
        pairs = [(x, x * 2.0) for x in xs]
        sorted(pairs, key=lambda p: -p[1])
        sum(p[0] for p in pairs)
    return perf_counter() - start


def import_program() -> None:
    """Put the checkout's src/ first on the path and import myersonlab from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import myersonlab
    except ImportError as exc:
        sys.exit(f"error: cannot import myersonlab from {src}: {exc}")
    if not Path(myersonlab.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: myersonlab was imported from {myersonlab.__file__}, not from {src}")


def setup_in_fresh_process(args) -> float:
    """Scaled set-up time of a fresh run.py process that stops before the first op."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"error: set-up failed with status {done.returncode}")
    return json.loads(done.stdout)["setup_s"]


def end_to_end(times: list[float], setup_times: list[float]) -> dict[str, float]:
    ordered = sorted(times)
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": ordered[len(ordered) - TAIL_BEYOND - 1],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names: list[str], self_times, scale: dict, sizes: dict[str, float], ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans' scaled self times and the input sizes.

    `<layer>.<call>_s` is the self time of that span per op; a count is per
    op; `dist.setup_s` is the time in dist calls during set-up, in seconds.
    """
    in_ops: dict[str, float] = {}
    in_setup: dict[str, float] = {}
    for (name, op), seconds in self_times.items():
        if op is None:
            in_setup[name] = in_setup.get(name, 0.0) + seconds * scale[None]
        elif op in scale:
            in_ops[name] = in_ops.get(name, 0.0) + seconds * scale[op]
    out = {}
    for name in names:
        if name == "auction.profiles_per_s":
            busy = in_ops.get("auction.expected_revenue", 0.0) + in_ops.get("auction.virtual_welfare", 0.0)
            out[name] = sizes.get("auction.profiles", 0.0) / busy if busy else 0.0
        elif name == "dist.setup_s":
            out[name] = sum(v for k, v in in_setup.items() if k.startswith("dist."))
        elif name.endswith("_s"):
            out[name] = in_ops.get(name[:-2], 0.0) / ops
        else:
            out[name] = sizes.get(name, 0.0) / ops
    return out


def main(argv=None) -> int:
    calibration_before_setup = calibration_time()
    setup_start = perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_program()
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    ops = max(MIN_OPS, round(args.seconds * cls.nominal_ops_per_s))
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else NullTracer()
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    times: list[float] = []
    raw_times: list[float] = []
    scale: dict[int | None, float] = {}
    sizes: dict[str, float] = {}
    errors: list[str] = []
    failed = 0
    try:
        workload = cls(args.seed, ops, workdir, tracer)
        setup = perf_counter() - setup_start
        # set-up is scaled like an op, by the calibration loops around it
        scale[None] = CAL_REF_S / ((calibration_before_setup + calibration_time()) / 2)
        setup_times = [setup * scale[None]]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_times[0]}))
            return 0
        # one set-up in the machine's speed at the start is a poor sample,
        # so fresh processes repeat it between ops spread over the run
        setup_before = {j * ops // SETUP_SAMPLES for j in range(1, SETUP_SAMPLES)}
        for i in range(ops):
            tracer.op = i
            if i in setup_before:
                setup_times.append(setup_in_fresh_process(args))
            before = calibration_time()
            start = perf_counter()
            try:
                result = tracer.call("op", workload.run_op, i)
            except Exception:  # a failed op is counted and the run goes on
                failed += 1
                print(f"op {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            elapsed = perf_counter() - start
            scale[i] = CAL_REF_S / ((before + calibration_time()) / 2)
            raw_times.append(elapsed)
            times.append(elapsed * scale[i])
            errors += [f"op {i}: {e}" for e in workload.check(i, result)]
            if args.trace:
                for name, amount in workload.sizes(i, result).items():
                    sizes[name] = sizes.get(name, 0) + amount
        tracer.op = None
    finally:
        shutil.rmtree(workdir)

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    if len(times) <= TAIL_BEYOND:
        sys.exit(f"error: only {len(times)} of {ops} ops completed")
    e2e = end_to_end(times, setup_times)
    print(f"unscaled: ops_per_s {len(raw_times) / sum(raw_times):.6g} 1/s, "
          f"op_p50_s {statistics.median(raw_times):.6g} s")
    if args.trace:
        layers = per_layer([m["name"] for m in spec["per_layer"]], tracer.self_times(), scale, sizes, len(times))
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "ops": ops, "end_to_end": e2e,
            "per_layer": layers, "sizes": sizes, "scale": list(scale.items()), "spans": tracer.to_json(),
        }), encoding="utf-8")
        values, units = layers, {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, units = e2e, {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": ops, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
