#!/usr/bin/env python3
"""Benchmark of translimit's commands, run from the root of a checkout.

    python3 bench/run.py --workload smooth-deep --seed 0 --seconds 30 --trace 0

Each operation is one or two `translimit` commands, run in this process
through `translimit.cli.main` as the command line runs them, writing to
`.bench_out/<workload>/op/`. One warm-up operation is run and discarded;
then whole operations run until --seconds have passed. Every operation's
outputs are checked (see workloads.py). The last line printed is one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics op_s, setup_s and peak_rss_mb.
The host's speed drifts by up to three times from one minute to the next,
so a fixed reference work (calibrate.py) is timed between every two
operations and before and after the set-up probes, and op_s and setup_s are
medians of wall times scaled to the host's quiet-period speed.
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics of the traced ones, with the tracing overhead; the spans
go to `.bench_out/<workload>/spans.json`.

BLAS and OpenMP are pinned to one thread before numpy is imported: with two
threads the eigendecompositions of `limit-tensor` spike several-fold.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

PER_LAYER = (
    ("transport.sweep.calls", "count"),
    ("transport.sweep.self_s", "s"),
    ("transport.sweep.cell_updates", "count"),
    ("transport.sweep.ns_per_cell_update", "ns"),
    ("transport.solve.calls", "count"),
    ("transport.solve.self_s", "s"),
    ("transport.balance.self_s", "s"),
    ("diffusion.dsa.calls", "count"),
    ("diffusion.dsa.self_s", "s"),
    ("diffusion.limit.self_s", "s"),
    ("velocity_space.assemble.calls", "count"),
    ("velocity_space.assemble.self_s", "s"),
    ("velocity_space.certify.calls", "count"),
    ("velocity_space.certify.self_s", "s"),
    ("velocity_space.tensor.self_s", "s"),
    ("velocity_space.pinv.calls", "count"),
    ("velocity_space.pinv.self_s", "s"),
    ("problem.kernel_build.calls", "count"),
    ("analysis.study.self_s", "s"),
    ("analysis.norms.self_s", "s"),
    ("analysis.corrector.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("config.load_s", "s"),
    ("trace.op_s", "s"),
    ("trace.untraced_op_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
)


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="study --jobs value (1 = serial, as benchmarked)")
    return p.parse_args(argv)


def import_translimit():
    """Import translimit from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "translimit", "cli.py")):
        raise SystemExit(f"bench: no translimit sources under {SRC}")
    sys.path.insert(0, SRC)
    import translimit
    import translimit.cli

    where = os.path.dirname(os.path.abspath(translimit.__file__))
    if where != os.path.join(SRC, "translimit"):
        raise SystemExit(f"bench: translimit imported from {where}, not {SRC}")
    return translimit


def machine():
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    for mod in (numpy, scipy):
        with contextlib.suppress(Exception):
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[mod.__name__] = f"{info.get('name')} {info.get('version')}"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(config, out):
    """Set-up times of fresh processes, each timed from its spawn until it
    reports that it could begin an operation."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, probe, ROOT, config, out],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"bench: set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


def clear(directory):
    os.makedirs(directory, exist_ok=True)
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))


def run_op(cli, wl, config, out, tracer=None):
    """One operation: its wall time (outputs written and closed) and the
    verdict of its checks."""
    clear(out)
    commands = [[a.format(config=config, out=out) for a in argv]
                for argv in wl.commands]
    codes = []
    with open(out + ".log", "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        for argv in commands:
            try:
                if tracer is None:
                    codes.append(cli.main(argv))
                else:
                    codes.append(tracer.call("cli", cli.main, argv))
            except Exception:  # an uncaught error is what a user would see
                traceback.print_exc()
                codes.append(1)
        wall = time.perf_counter() - start
    outcome = wl.check(out, codes, wl.params)
    if outcome.problems:
        print(f"bench: {wl.name}: " + "; ".join(outcome.problems), file=sys.stderr)
    return wall, outcome


def layer_values(tracer, out, wall):
    """Per-layer numbers of one traced operation."""
    calls, self_s = tracer.layers()
    values = {}
    for name in calls:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_s[name]
    updates = tracer.cell_updates
    values["transport.sweep.cell_updates"] = updates
    values["transport.sweep.ns_per_cell_update"] = (
        1e9 * self_s["transport.sweep"] / updates if updates else 0.0
    )
    values["config.load_s"] = self_s.get("config", 0.0)
    values["cli.bytes_written"] = sum(
        os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
    )
    values["trace.op_s"] = wall
    values["trace.self_sum_s"] = sum(self_s.values())
    return values


def median_of(samples, key, unit):
    values = [s.get(key, 0) for s in samples]
    # counts stay whole numbers
    if unit in ("count", "B"):
        return statistics.median_low(values)
    return statistics.median(values)


def main(argv=None):
    args = parse_args(argv)
    translimit = import_translimit()
    import calibrate
    import workloads
    from tracing import Instrumented, Tracer

    wl = workloads.build(args.workload, args.seed)
    if args.jobs != 1:
        wl.commands = [c + ["--jobs", str(args.jobs)] if c[0] == "study" else c
                       for c in wl.commands]
    work = os.path.join(OUT_ROOT, wl.name)
    os.makedirs(work, exist_ok=True)
    config = os.path.join(work, "config.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(wl.config_text)
    out = os.path.join(work, "op")

    scratch = os.path.join(work, "reference.csv")

    def reference():
        return calibrate.reference_work(wl.name, scratch)

    setup, setup_refs = [], []
    if not args.trace:
        setup_refs.append(reference())
        setup = measure_setup(config, os.path.join(work, "probe"))
        setup_refs.append(reference())
    cli = translimit.cli
    outcomes = [run_op(cli, wl, config, out)[1]]  # warm-up, discarded
    walls, samples, op_refs = [], [], []
    tracer = Tracer()
    spans = []
    start = time.perf_counter()
    if not args.trace:
        op_refs.append(reference())
    while True:
        wall, outcome = run_op(cli, wl, config, out)
        walls.append(wall)
        outcomes.append(outcome)
        if not args.trace:
            op_refs.append(reference())
        else:
            tracer.reset()
            with Instrumented(translimit, tracer):
                wall, outcome = run_op(cli, wl, config, out, tracer)
            outcomes.append(outcome)
            samples.append(layer_values(tracer, out, wall))
            spans.append(tracer.spans)
        if time.perf_counter() - start >= args.seconds:
            break

    timed = outcomes[1:]
    correct = not any(o.problems for o in outcomes)
    failed = sum(1 for o in timed if o.problems or o.failure)
    failures = sorted({o.failure for o in timed if o.failure})
    if args.trace:
        metrics = {name: {"value": median_of(samples, name, unit), "unit": unit}
                   for name, unit in PER_LAYER}
        untraced = statistics.median(walls)
        metrics["trace.untraced_op_s"]["value"] = untraced
        metrics["trace.overhead_s"]["value"] = metrics["trace.op_s"]["value"] - untraced
        with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "operations": spans}, fh)
    else:
        metrics = {
            "op_s": {"value": statistics.median([
                calibrate.scale(wall, op_refs[i:i + 2])
                for i, wall in enumerate(walls)]), "unit": "s"},
            "setup_s": {"value": calibrate.scale(statistics.median(setup), setup_refs),
                        "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    record = {
        "workload": wl.name, "seed": args.seed, "params": wl.params,
        "seconds": args.seconds, "trace": args.trace, "jobs": args.jobs,
        "machine": machine(), "op_walls_s": walls, "op_reference_s": op_refs,
        "setup_walls_s": setup, "setup_reference_s": setup_refs,
        "reference_quiet_s": calibrate.QUIET_S,
        "failures": failures, "metrics": metrics,
    }
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"workload {wl.name} seed {args.seed} params {json.dumps(wl.params)}")
    print("op walls (s): " + " ".join(f"{w:.4f}" for w in walls))
    if op_refs:
        print("reference work (s), before and after each op: "
              + " ".join(f"{r:.4f}" for r in op_refs))
        print(f"unscaled medians: op {statistics.median(walls):.4f} s, "
              f"set-up {statistics.median(setup):.4f} s")
    for failure in failures:
        print(f"failed: {failure}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(timed),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
