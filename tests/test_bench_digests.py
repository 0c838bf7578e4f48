"""Every op of the benchmark's census, level_sweep and fit_recovery rounds
gives the recorded exit code, stdout and stderr.

The rounds are built at seeds 1 and 2 by ``bench/workloads.BUILDERS``, with
input generation queries answered as ``bench/run.py`` answers them: the
files written, then ``cli.main`` run in-process.  Each op then runs
in-process in a temporary directory, and the sha256 of its (exit code,
stdout, stderr) is compared with ``golden/bench_digests.json``.  fit_noise
is left out: its noisy fits are expected to change.

After an intended output change, re-record with
``python tests/test_bench_digests.py`` and give the reason op by op: it
prints the workload, seed, index and argv of every op whose digest changed.
"""

import hashlib
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
DIGESTS = Path(__file__).resolve().parent / "golden" / "bench_digests.json"
WORKLOADS = ("census", "level_sweep", "fit_recovery")
SEEDS = (1, 2)


def _digest(code, stdout, stderr):
    code = code if isinstance(code, int) else repr(code)
    return hashlib.sha256(json.dumps([code, stdout, stderr]).encode()).hexdigest()


def run_round(run, workload, seed):
    """(argv, digest) per op of one round, run in the current directory
    with ``run`` the imported ``bench/run.py``."""
    import torusfibre.cli as cli

    def query(argv, files):
        run.write_files(files)
        _, code, stdout, stderr = run.call(cli, argv)
        if code != 0:
            raise RuntimeError(f"input generation query {argv} failed: {stderr}")
        return json.loads(stdout)

    w = run.workloads.BUILDERS[workload](seed, query)
    run.write_files(w.files)
    return [(op.argv, _digest(*run.call(cli, op.argv)[1:])) for op in w.ops]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_ops_match_recorded_digests(workload, seed, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(tmp_path)
    run = importlib.import_module("run")
    recorded = json.loads(DIGESTS.read_text())[f"{workload}-{seed}"]
    got = run_round(run, workload, seed)
    assert len(got) == len(recorded), f"{workload} seed {seed}: {len(got)} ops, {len(recorded)} recorded"
    wrong = [
        f"{workload} seed {seed} op {i}: {' '.join(argv)}"
        for i, ((argv, digest), want) in enumerate(zip(got, recorded))
        if digest != want
    ]
    assert not wrong, "\n".join(wrong)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    run = importlib.import_module("run")
    before = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for workload in WORKLOADS:
            for seed in SEEDS:
                key = f"{workload}-{seed}"
                got = run_round(run, workload, seed)
                was = before.get(key, [])
                for i, (argv, digest) in enumerate(got):
                    if i >= len(was) or was[i] != digest:
                        print(f"changed: {workload} seed {seed} op {i}: {' '.join(argv)}")
                if len(was) > len(got):
                    print(f"changed: {workload} seed {seed}: {len(was) - len(got)} ops fewer")
                out[key] = [d for _, d in got]
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"{sum(map(len, out.values()))} digests written to {DIGESTS}")
