"""Benchmark runner: one workload, one process, one sequential client.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Every op is ``torusfibre.cli.main(argv)`` called
in-process with stdout captured, on input files generated from the seed
(see ``workloads.py``).  The runner

1. builds the round of ops and its input files from the seed;
2. sets up seven times and keeps the median: a fresh import of
   ``torusfibre``, writing every input file, and one warm-up op;
3. runs whole rounds, at least two, and starts another only while it
   would end within ``--seconds`` if it took as long as the longest
   round so far.  Before each op, outside the timed region, the runner
   empties the program's ``functools`` memo caches and collects garbage,
   so that every op starts as a fresh CLI process would whatever ran
   before it, and runs the speed probe;
4. checks every op's output independently (``checks.py``);
5. with ``--trace 1``, runs one warm round, one untraced round and then
   traced rounds (``layertrace.py``) by the same rule, compares every traced
   stdout byte for byte with the untraced one and reports per-layer
   metrics per round instead of the end-to-end ones.

Per-op size records go to stdout as ``op {...}`` lines, the full record
(environment, ops, failures, spans) to ``.bench_out/``, and the last line
of stdout is the result object.  Times are ``time.perf_counter``
intervals scaled to a reference machine speed (see ``REFERENCE_PROBE_S``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
# names and units of the per-layer metrics
BENCHMARK = HERE.parent / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_ROUNDS = 2
OPS_BEYOND_TAIL = 10
# On a shared machine the speed of a core swings by 1.6x and more within
# seconds, as other tenants come and go, and a run of any affordable length
# does not average that out.  So every timed interval is bracketed by two
# runs of a fixed probe and scaled by REFERENCE_PROBE_S over their mean: the
# reported times are seconds at the speed at which the probe takes
# REFERENCE_PROBE_S.  That is its time on an idle core of the 2-vCPU x86-64
# VM the benchmark was defined on; it sets only the scale.  Raw times are
# kept in the record and on the ``#`` lines.
REFERENCE_PROBE_S = 1.75e-3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import(src):
    """Import torusfibre from ``src`` as if for the first time: drop every
    loaded torusfibre module first, so module-level work and caches count."""
    for name in [n for n in sys.modules if n == "torusfibre" or n.startswith("torusfibre.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("torusfibre.cli")
    if Path(cli.__file__).resolve().parents[1] != src:
        raise ImportError(f"torusfibre was imported from {cli.__file__}, not from {src}")
    return cli


def call(cli, argv):
    """Run one CLI call; returns (seconds, exit code or exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed op
            code = exc
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def probe():
    """Seconds taken by a fixed piece of pure-Python work of the kind the
    program does: rational arithmetic and dict updates."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 700):
        acc += Fraction(i % 97, i)
        table[i % 501] = table.get(i % 501, 0) + i * i
    return time.perf_counter() - start


def scaled(seconds, before, after):
    """``seconds`` at the reference speed, from the probe times around it."""
    return seconds * 2 * REFERENCE_PROBE_S / (before + after)


def program_caches():
    """The functools memo caches defined in the loaded torusfibre modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "torusfibre" or name.startswith("torusfibre."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                    found[f"{name}.{attr}"] = value
    return found


def write_files(files):
    for name, text in files.items():
        Path(name).write_text(text)


class Runner:
    def __init__(self, workload):
        self.w = workload
        self.latencies = [[] for _ in workload.ops]     # scaled seconds
        self.raw = [[] for _ in workload.ops]           # wall-clock seconds
        self.verified = {}     # op index -> stdout that passed the check
        self.attempted = 0
        self.failures = []
        self.caches = {}       # the program's memo caches, set after the last import
        self.cache_stats = defaultdict(lambda: [0, 0])  # cache -> [hits, misses]

    def check(self, idx, op, result):
        _, code, stdout, stderr = result
        self.attempted += 1
        if code != 0:
            reason = f"exit {code!r}: {stderr.strip()[-500:]}"
        elif stdout == self.verified.get(idx):
            return
        else:
            try:
                reason = op.check(json.loads(stdout))
            except Exception as exc:  # a malformed output fails the op
                reason = f"{type(exc).__name__}: {exc}"
            if reason is None:
                self.verified[idx] = stdout
                return
        self.fail(op, reason)

    def fail(self, op, reason):
        inputs = {name: Path(name).read_text() for name in op.inputs}
        self.failures.append({"op": op.argv, "reason": reason, "inputs": inputs})
        print(f"FAILED {' '.join(op.argv)}: {reason}", file=sys.stderr)
        for name, text in inputs.items():
            print(f"  input {name}: {text}", file=sys.stderr)

    def empty_caches(self):
        """Empty the program's memo caches, which a fresh CLI process starts
        without, keeping count of their hits and misses."""
        for name, fn in self.caches.items():
            info = fn.cache_info()
            self.cache_stats[name][0] += info.hits
            self.cache_stats[name][1] += info.misses
            fn.cache_clear()

    def settle(self):
        """Bring the process to the state a fresh CLI call starts from and
        return the probe time there."""
        self.empty_caches()
        gc.collect()
        return probe()

    def round(self, cli, record=True, tracer=None):
        """One pass over the ops; returns (op seconds scaled to the
        reference speed, stdout per op, stdout bytes)."""
        total, outputs, nbytes = 0.0, [], 0
        before = self.settle()
        for idx, op in enumerate(self.w.ops):
            if tracer is not None:
                tracer.op = idx
            result = call(cli, op.argv)
            after = self.settle()
            self.check(idx, op, result)
            seconds = scaled(result[0], before, after)
            total += seconds
            nbytes += len(result[2].encode())
            outputs.append(result[2])
            if record:
                self.latencies[idx].append(seconds)
                self.raw[idx].append(result[0])
            before = after
        return total, outputs, nbytes


def tail_percentile(n_min):
    """The highest whole percentile with at least OPS_BEYOND_TAIL ops
    beyond it in the smallest run the workload allows."""
    return max(50, math.floor(100 * (1 - OPS_BEYOND_TAIL / n_min)))


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def environment():
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "clock": ("time.perf_counter on a shared machine, scaled to the speed at which the "
                  f"probe takes {REFERENCE_PROBE_S} s; raw wall-clock times are kept as raw_*"),
    }


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "torusfibre" / "__init__.py").is_file():
        print(f"error: no torusfibre sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        cli = fresh_import(src)
    except ImportError as exc:
        print(f"error: cannot import torusfibre: {exc}", file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = root / ".bench_out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    os.chdir(work)
    try:
        return run(args, cli, src, out_dir)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)


def run(args, cli, src, out_dir):
    def query(argv, files):
        write_files(files)
        _, code, stdout, stderr = call(cli, argv)
        if code != 0:
            raise RuntimeError(f"input generation query {argv} failed: {stderr}")
        return json.loads(stdout)

    w = workloads.BUILDERS[args.workload](args.seed, query)
    runner = Runner(w)

    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = probe()
        start = time.perf_counter()
        cli = fresh_import(src)
        write_files(w.files)
        warm = call(cli, w.warmup.argv)
        raw_setups.append(time.perf_counter() - start)
        gc.collect()
        setups.append(scaled(raw_setups[-1], before, probe()))
        runner.check("warmup", w.warmup, warm)
    runner.caches = program_caches()

    deadline = time.perf_counter() + args.seconds
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "setup_s": setups, "raw_setup_s": raw_setups}
    if args.trace:
        metrics, extra = traced(cli, runner, deadline)
    else:
        rounds, longest = 0, 0.0
        while rounds < MIN_ROUNDS or time.perf_counter() + longest < deadline:
            start = time.perf_counter()
            runner.round(cli)
            longest = max(longest, time.perf_counter() - start)
            rounds += 1
        metrics, extra = end_to_end(runner, rounds, setups, raw_setups)
    record.update(extra)

    for idx, op in enumerate(w.ops):
        lat, raw = runner.latencies[idx], runner.raw[idx]
        rec = {"id": idx, "kind": op.kind, "argv": op.argv, "sizes": op.sizes, "runs": len(lat),
               "median_s": statistics.median(lat) if lat else None,
               "raw_median_s": statistics.median(raw) if raw else None}
        print("op " + json.dumps(rec, sort_keys=True))
    record["ops"] = [{"argv": op.argv, "sizes": op.sizes, "latencies": runner.latencies[i],
                      "raw_latencies": runner.raw[i]} for i, op in enumerate(w.ops)]
    record["failures"] = runner.failures
    failed = len(runner.failures)
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True, default=str))

    env = record["environment"]
    print(f"# workload {args.workload} seed {args.seed}: python {env['python']}, numpy "
          f"{env['numpy']}, mpmath {env['mpmath']}, nproc {env['nproc']}; {env['clock']}")
    for key, val in metrics.items():
        print(f"# {key} = {val['value']:.6g} {val['unit']}")
    print(f"# attempted {runner.attempted}, failed {failed}, "
          f"error_rate {failed / max(runner.attempted, 1):.6g}; record in {out_dir / name}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def timing(latencies, setups, p):
    lat = sorted(x for per_op in latencies for x in per_op)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_s_p50": statistics.median(lat),
        "op_s_tail": nearest_rank(lat, p),
        "setup_s": statistics.median(setups),
    }


def end_to_end(runner, rounds, setups, raw_setups):
    n = sum(len(per_op) for per_op in runner.latencies)
    p = tail_percentile(len(runner.w.ops) * MIN_ROUNDS)
    units = {"ops_per_s": "1/s", "op_s_p50": "s", "op_s_tail": "s", "setup_s": "s"}
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in timing(runner.latencies, setups, p).items()}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": rss_kb / 1024, "unit": "MB"}
    raw = timing(runner.raw, raw_setups, p)
    extra = {"rounds": rounds, "ops_measured": n, "tail_percentile": p, "raw_metrics": raw,
             "error_rate": len(runner.failures) / max(runner.attempted, 1)}
    print(f"# rounds {rounds}, ops {n}, op_s_tail is the p{p} latency "
          f"({n - math.ceil(p / 100 * n)} ops beyond it)")
    print("# wall-clock, before scaling to the reference speed: "
          + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    return metrics, extra


def traced(cli, runner, deadline):
    runner.round(cli, record=False)       # first-use costs outside the emptied caches
    base_s, base_out, nbytes = runner.round(cli)
    phi = "torusfibre.exact.cyclotomic_polynomial"
    runner.empty_caches()
    hits0, misses0 = runner.cache_stats[phi]
    tracer = layertrace.Tracer()
    tracer.install()
    rounds, traced_s, identical, longest = 0, 0.0, True, 0.0
    try:
        while rounds < 1 or time.perf_counter() + longest < deadline:
            start = time.perf_counter()
            total, outputs, _ = runner.round(cli, record=False, tracer=tracer)
            longest = max(longest, time.perf_counter() - start)
            traced_s += total
            rounds += 1
            for op, a, b in zip(runner.w.ops, base_out, outputs):
                if a != b:
                    identical = False
                    runner.fail(op, "stdout differs between the traced and the untraced run")
    finally:
        tracer.uninstall()
    runner.empty_caches()
    hits = runner.cache_stats[phi][0] - hits0
    lookups = hits + runner.cache_stats[phi][1] - misses0
    values = tracer.metrics(rounds, nbytes, traced_s / rounds - base_s, hits, lookups)
    declared = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    if set(values) != set(declared):
        raise RuntimeError(f"traced metrics {sorted(set(values) ^ set(declared))} are computed "
                           f"but not declared in {BENCHMARK.name}, or declared but not computed")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    spans = [dict(zip(("op", "name", "parent", "start_s", "duration_s"), s)) for s in tracer.spans]
    extra = {"traced_rounds": rounds, "untraced_round_s": base_s,
             "traced_round_s": traced_s / rounds, "stdout_identical": identical, "spans": spans}
    print(f"# traced rounds {rounds}; untraced round {base_s:.4f} s, traced round "
          f"{traced_s / rounds:.4f} s at the reference speed; stdout identical: {identical}")
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
