"""Benchmark of the bfmix command line: time to solution per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repetition runs in a fresh interpreter and its own directory under
``.perfbench_work/``: it writes seeded inputs, calls the ``bfmix`` entry
point in-process and times the call. Repetitions are started until the next
one would end past ``--seconds``. Outputs are checked against
``reference.json`` and must be byte-identical across the repetitions of a
run.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` traced repetitions alternate with untraced ones and the last
line reports the per-layer metrics (see spans.py). Metric names, units and
directions come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")
TRACES = os.path.join(ROOT, ".perfbench_traces")
HARD_LIMIT_S = 170.0  # the whole run ends within this, whatever --seconds says


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BFMIX_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # One BLAS thread, like the CLI's default --threads 1: a 2-core box shared
    # with other jobs gives steadier timings without thread contention.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_rep(name: str, seed: int, mode: str, repdir: str, timeout: float) -> dict:
    """One child process (see child.py for ``mode``); returns its timings or an ``error``."""
    os.makedirs(repdir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed), mode]
    with open(os.path.join(repdir, "stdout.txt"), "w") as out, \
            open(os.path.join(repdir, "stderr.txt"), "w") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=repdir, env=child_env(), stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": f"repetition timed out after {timeout:.0f} s"}
    end = time.monotonic()
    try:
        with open(os.path.join(repdir, "timing.json")) as fh:
            timing = json.load(fh)
    except (OSError, ValueError):
        with open(os.path.join(repdir, "stderr.txt")) as fh:
            tail = fh.read()[-2000:]
        return {"error": f"child exited {code} without timings:\n{tail}"}
    timing.update(trace=mode == "traced", setup_s=timing["t0"] - spawn)
    if mode != "setup":
        timing["wall_s"] = timing["t1"] - timing["t0"]
    return timing


def digest(repdir: str, outputs: list[str]) -> dict[str, str]:
    out = {}
    for rel in outputs:
        with open(os.path.join(repdir, rel), "rb") as fh:
            out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict,
                 deadline: float) -> dict:
    spec = workloads.WORKLOADS[name]
    rundir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    start = time.monotonic()
    stop = min(start + seconds, deadline)
    reps, durations, setups = [], [], []
    chk = workloads.Check()
    first_digest = None
    try:
        while True:
            kinds = {r["trace"] for r in reps if "error" not in r}
            needed = not reps or (trace and len(kinds) < 2)
            if not needed and time.monotonic() + max(durations) > stop:
                break
            if time.monotonic() > deadline:
                break
            # traced and untraced repetitions alternate, traced first
            traced = trace and len(reps) % 2 == 0
            repdir = os.path.join(rundir, f"rep{len(reps)}")
            t = time.monotonic()
            rep = run_rep(name, seed, "traced" if traced else "plain", repdir, deadline - t)
            durations.append(time.monotonic() - t)
            reps.append(rep)
            if "error" in rep:
                chk.misses.append(rep["error"])
                break
            rep_chk = workloads.Check()
            # A wrong exit code, malformed output or output bytes that differ
            # from repetition 0 fail every operation of the repetition.
            whole_rep_failed = rep["exit_code"] != 0
            if whole_rep_failed:
                rep_chk.misses.append(f"exit code {rep['exit_code']}, expected 0")
            try:
                spec["check"](seed, repdir, reference[name], rep_chk)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                rep_chk.misses.append(f"malformed output: {exc!r}")
                rep_chk.attempted = max(rep_chk.attempted, 1)
                whole_rep_failed = True
            dig = digest(repdir, rep["outputs"])
            first_digest = first_digest or dig
            if dig != first_digest:
                rep_chk.misses.append(f"outputs of repetition {len(reps) - 1} differ "
                                      "from repetition 0")
                whole_rep_failed = True
            if whole_rep_failed:
                rep_chk.failed = rep_chk.attempted
            chk.attempted += rep_chk.attempted
            chk.failed += rep_chk.failed
            chk.misses += rep_chk.misses
            if traced:
                os.makedirs(TRACES, exist_ok=True)
                shutil.copy(os.path.join(repdir, "spans.jsonl"),
                            os.path.join(TRACES, f"{name}-seed{seed}-rep{len(reps) - 1}.jsonl"))
                rep["layers"] = spans.derive(spans.read_spans(os.path.join(repdir, "spans.jsonl")))
            shutil.rmtree(repdir)
        # Spend what is left of the run on extra set-up samples.
        while not trace and reps and "error" not in reps[-1]:
            longest = max([r["setup_s"] for r in reps if "error" not in r] + setups)
            if time.monotonic() + 1.5 * longest > stop:
                break
            repdir = os.path.join(rundir, f"setup{len(setups)}")
            sample = run_rep(name, seed, "setup", repdir, deadline - time.monotonic())
            if "error" in sample:
                chk.misses.append(sample["error"])
                break
            setups.append(sample["setup_s"])
            shutil.rmtree(repdir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return {"reps": reps, "setups": setups, "check": chk, "elapsed": time.monotonic() - start}


def end_to_end(result: dict) -> dict[str, list[float]]:
    plain = [r for r in result["reps"] if "error" not in r and not r["trace"]]
    return {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain] + result["setups"],
        "peak_rss_mb": [r["peak_rss_kb"] * 1024 / 1e6 for r in plain],
    }


def per_layer(result: dict) -> dict[str, float]:
    ok = [r for r in result["reps"] if "error" not in r]
    traced = [r for r in ok if r["trace"]]
    plain = [r for r in ok if not r["trace"]]
    if not traced or not plain:
        return {}
    keys = traced[0]["layers"].keys()
    m = {k: statistics.median(r["layers"][k] for r in traced) for k in keys}
    m["lattice.lune_points"] = statistics.median(r["lune_points"] for r in traced)
    m["lattice.points_per_s"] = (m["lattice.lune_points"] / m["lattice.sum.self_s"]
                                 if m["lattice.sum.self_s"] > 0 else 0.0)
    m["lattice.cache.files_written"] = statistics.median(r["files_written"] for r in traced)
    m["cli.output_bytes"] = statistics.median(r["output_bytes"] for r in traced)
    m["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                 / statistics.median(r["wall_s"] for r in plain))
    return m


def report(name: str, seed: int, trace: bool, result: dict, bench: dict) -> dict:
    """Print the human-readable lines; return the metrics BENCHMARK.json lists for the mode."""
    chk = result["check"]
    reps = result["reps"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"{len(reps)} repetitions and {len(result['setups'])} set-up samples "
          f"in {result['elapsed']:.1f} s")
    for i, r in enumerate(reps):
        if "error" not in r:
            print(f"  rep {i} {'traced' if r['trace'] else 'plain'}: setup {r['setup_s']:.4f} s"
                  f"  wall {r['wall_s']:.4f} s  cpu {r['cpu_s']:.4f} s  rss {r['peak_rss_kb'] / 1000:.1f} MB")
    e2e = end_to_end(result)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    metrics: dict[str, float] = {}
    for key, values in e2e.items():
        if values:
            q1, med, q3 = quartiles(values)
            metrics[key] = med
            print(f"  {key:<13} median {med:.6g} {units[key]}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"n={len(values)}")
    attempted, failed = chk.attempted, chk.failed
    failed_ratio = failed / attempted if attempted else 1.0
    metrics["ok_ratio"] = 1.0 - failed_ratio
    print(f"  failed_ratio  {failed_ratio:.6g}  (failed {failed} of {attempted} operations)"
          f"  ok_ratio {metrics['ok_ratio']:.6g}")
    for miss in chk.misses[:10]:
        print(f"  MISS: {miss}")
    if len(chk.misses) > 10:
        print(f"  ... {len(chk.misses) - 10} more misses")
    print(f"  correct: {'yes' if not chk.misses else 'NO'}")
    if trace:
        layers = per_layer(result)
        metrics.update(layers)
        shares = "  ".join(f"{layer} {layers.get('share.' + layer, 0.0):.1%}"
                           for layer in spans.LAYERS)
        print(f"  self-time share: {shares}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics}


def main() -> int:
    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "bfmix", "cli.py")):
        print("perfbench: run from a bfmix checkout (src/bfmix is missing)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    reference = workloads.load_reference()
    deadline = time.monotonic() + HARD_LIMIT_S
    selected = names if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in selected:
        limit = deadline if len(selected) == 1 else time.monotonic() + HARD_LIMIT_S
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), reference, limit)
        metrics = report(name, args.seed, bool(args.trace), result, bench)
        expected = bench["per_layer"] if args.trace else bench["end_to_end"]
        missing = [m["name"] for m in expected if m["name"] not in metrics]
        if missing:
            print(f"perfbench: {name}: no value for {', '.join(missing)}", file=sys.stderr)
            return 1
        chk = result["check"]
        summary["correct"] = summary["correct"] and not chk.misses
        summary["attempted"] += chk.attempted
        summary["failed"] += chk.failed
        prefix = "" if len(selected) == 1 else name + "."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
