"""Benchmark entry point.

    python3 perfbench/run.py --workload detect-cold --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout without installing anything: the
package is imported from ``src``, and the CLI workload starts
``python -m tensorcube.cli`` with ``src`` on ``PYTHONPATH``.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run, and it writes the trace to
``perfbench/out/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
interpreter version, CPU count and round counts go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from workloads import ROOT, WORKLOADS, ProcessCLI, in_process_cli, load_pools

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 15
LIBRARY_ENTRIES = ("lr_coefficient", "enumerate_lr_tableaux", "SkewShape", "detects",
                   "tensor_decompose")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args) -> None:
    """Time, in this fresh interpreter, importing the package and building
    the workload's inputs."""
    start = time.perf_counter()
    import tensorcube  # noqa: F401
    if args.workload == "cli-sweeps":
        import tensorcube.cli  # noqa: F401
    WORKLOADS[args.workload].build(args.seed, load_pools())
    print(time.perf_counter() - start)


class SetupProbes:
    """Set-up times of fresh interpreters, spread over the timed phase: a
    probe takes about 0.1 s, and probes made one after another share
    whatever the host does in those few seconds."""

    def __init__(self, args):
        self.argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        self.times: list[float] = []

    def catch_up(self, share: float) -> None:
        """Probe until ``share`` of all the probes are made."""
        while len(self.times) < min(SETUP_REPEATS, round(share * SETUP_REPEATS)):
            out = subprocess.run(self.argv, cwd=ROOT, stdout=subprocess.PIPE, check=True,
                                 text=True, timeout=60)
            self.times.append(float(out.stdout.split()[-1]))


def make_lib(tracer=None, cli_in_process: bool = False) -> SimpleNamespace:
    """The package functions the workloads call; wrapped when traced."""
    import tensorcube
    from tensorcube import cli
    from tracer import layer_of

    def entry(fn, name):
        if tracer is None:
            return fn
        return tracer.wrap(fn, f"bench:{layer_of(fn)}.{name}", layer_of(fn))

    lib = SimpleNamespace(GroupSpec=tensorcube.GroupSpec, clear_cache=tensorcube.clear_cache)
    for name in LIBRARY_ENTRIES:
        setattr(lib, name, entry(getattr(tensorcube, name), name))
    if cli_in_process:
        lib.cli = in_process_cli(entry(cli.main, "main"), tensorcube.clear_cache)
    else:
        lib.cli = ProcessCLI()
    return lib


class Runner:
    """Runs whole rounds of one workload and keeps the tallies."""

    def __init__(self, workload, ops):
        self.workload, self.ops = workload, ops
        self.attempted = self.failed = 0
        self.reference = None          # outputs of the first round, for the checks
        self.digests = None
        self.problems: list[str] = []

    def round(self, lib, run=None) -> tuple[float, list[float]]:
        """One pass over the operations; returns the round's wall time and
        each operation's latency."""
        w, clock = self.workload, time.perf_counter
        run = run or w.run
        outs, latencies = [], []
        start = clock()
        w.before_round(lib)
        for op in self.ops:
            w.before_op(lib, op)
            t0 = clock()
            try:
                out = run(lib, op)
            except Exception:  # a failing operation is counted, the run goes on
                traceback.print_exc()
                out = None
            latencies.append(clock() - t0)
            if out is not None and w.failed(op, out):
                print(f"failed: {op!r} -> {str(out)[:200]}", file=sys.stderr)
                out = None
            outs.append(out)
        wall = clock() - start
        self.attempted += len(outs)
        self.failed += sum(o is None for o in outs)
        digests = [None if o is None else w.digest(op, o) for op, o in zip(self.ops, outs)]
        if self.reference is None:
            self.reference, self.digests = outs, digests
        elif digests != self.digests:
            self.problems.append("a later round returned other outputs than the first")
        return wall, latencies

    def check(self, lib) -> bool:
        self.problems += self.workload.check(lib, self.ops, self.reference)
        for p in self.problems[:20]:
            print(f"check: {p}", file=sys.stderr)
        return not self.problems


def timed(runner: Runner, seconds: float, probes: SetupProbes) -> tuple[dict, dict]:
    """Whole rounds until ``seconds`` have passed, within the workload's
    ``min_rounds`` and ``max_rounds``, after its untimed warm-up rounds;
    set-up probes run between rounds.

    On a shared host this code mostly runs at one speed, with bursts of up
    to twice that speed lasting a second or two at random times. So every
    figure is a median: an operation's latency is the median of its
    repetitions, and ``wall_s`` one pass over the operations in order at
    those latencies: their sum. A fastest repetition would instead depend on
    how many bursts a run happens to catch, and a median round keeps the
    slowdowns that hit every round somewhere."""
    w = runner.workload
    lib = make_lib()
    for _ in range(w.warmup_rounds):
        runner.round(lib)
    walls, per_round = [], []
    start = time.perf_counter()
    while len(walls) < w.min_rounds or (len(walls) != w.max_rounds
                                        and time.perf_counter() - start < seconds):
        wall, lat = runner.round(lib)
        walls.append(wall)
        per_round.append(lat)
        probes.catch_up((time.perf_counter() - start) / seconds if seconds > 0 else 1)
    probes.catch_up(1)
    typical = [statistics.median(reps) for reps in zip(*per_round)]
    if w.name == "cli-sweeps":
        rss = lib.cli.peak_kb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (sum(typical), "s"),
        "op_p50_ms": (1000 * statistics.median(typical), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(typical, n=10)[8], "ms"),
        "peak_rss_mb": (rss / 1024, "MB"),
        "setup_s": (statistics.median(probes.times), "s"),
    }
    return metrics, {"rounds": len(walls), "ops_per_round": len(runner.ops),
                     "round_walls_s": [round(x, 4) for x in walls]}


def traced(runner: Runner, seconds: float, args) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds (the CLI in-process, one job);
    per-layer figures are per traced round."""
    from tracer import Tracer
    cli = runner.workload.name == "cli-sweeps"
    tracer = Tracer()
    plain, wrapped = make_lib(cli_in_process=cli), make_lib(tracer, cli_in_process=cli)
    root = tracer.wrap(runner.workload.run, "bench:bench.op", "bench")
    runner.round(plain)
    plain_walls, traced_walls = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced_walls:
        plain_walls.append(runner.round(plain)[0])
        with tracer:
            traced_walls.append(runner.round(wrapped, root)[0])
    n = len(traced_walls)
    c = tracer.counters
    lr_calls, nl_calls = tracer.layer_calls("lr"), tracer.layer_calls("newell_littlewood")
    tableaux_self = tracer.layer_self_s("tableaux")
    witness_calls, witness_s = tracer.function("build_witness")
    out_bytes = sum(len(o[1].encode()) for o in runner.reference if o) if cli else 0
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    metrics = {
        "tableaux.calls": (tracer.layer_calls("tableaux") / n, "count"),
        "tableaux.self_s": (tableaux_self / n, "s"),
        "tableaux.fillings": (c["fillings"] / n, "count"),
        "tableaux.fillings_per_s": (ratio(c["fillings"], tableaux_self), "1/s"),
        "lr.calls": (lr_calls / n, "count"),
        "lr.self_s": (tracer.layer_self_s("lr") / n, "s"),
        "lr.search_per_call": (ratio(c["searches_in_lr"], lr_calls), "ratio"),
        "newell_littlewood.calls": (nl_calls / n, "count"),
        "newell_littlewood.self_s": (tracer.layer_self_s("newell_littlewood") / n, "s"),
        "newell_littlewood.lr_calls_per_coefficient":
            (ratio(c["lr_calls_in_nl"], c["nl_coefficients"]), "ratio"),
        "newell_littlewood.useful_lr_ratio":
            (ratio(c["lr_nonzero_in_nl"], c["lr_calls_in_nl"]), "ratio"),
        "partitions.calls": (tracer.layer_calls("partitions") / n, "count"),
        "partitions.self_s": (tracer.layer_self_s("partitions") / n, "s"),
        "detection.witness_calls": (witness_calls / n, "count"),
        "detection.witness_s": (witness_s / n, "s"),
        "cli.self_s": (tracer.layer_self_s("cli") / n, "s"),
        "cli.output_bytes": (out_bytes, "bytes"),
        "trace.wall_s": (statistics.median(traced_walls), "s"),
        "trace.overhead_ratio": (statistics.median(traced_walls) / statistics.median(plain_walls),
                                 "ratio"),
    }
    # the self times of every layer, the benchmark's own included, should add
    # up to about the untraced round: what they miss is the tracer's overhead
    info = {"traced_rounds": n, "untraced_rounds": len(plain_walls),
            "untraced_wall_s": statistics.median(plain_walls),
            "self_total_s": sum(tracer.self_ns) / 1e9 / n,
            "overhead_s": tracer.overhead_ns / 1e9 / n,
            "calibrations_ns": tracer.calibrations}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}.json"
    tracer.dump(path, {"workload": args.workload, "seed": args.seed, **run_facts(), **info,
                       "metrics": {k: v for k, (v, _) in metrics.items()}})
    info["trace_file"] = str(path.relative_to(ROOT))
    return metrics, info


def run_facts() -> dict:
    return {"python": platform.python_version(), "cpus": os.cpu_count()}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args)
        return 0
    import tensorcube.cli  # noqa: F401  (fails fast outside a source checkout)
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, workload.build(args.seed, load_pools()))
    if args.trace:
        metrics, info = traced(runner, args.seconds, args)
    else:
        metrics, info = timed(runner, args.seconds, SetupProbes(args))
    correct = runner.check(make_lib())
    facts = {"workload": args.workload, "seed": args.seed, **run_facts(), **info}
    print(json.dumps({"run": facts}), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
