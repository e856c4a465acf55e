"""One repetition in a fresh interpreter: set up, call the bfmix CLI, time it.

Usage: python3 perfbench/child.py WORKLOAD SEED MODE

MODE is ``plain``, ``traced`` (spans recorded) or ``setup`` (stop before the
CLI call, to sample set-up time alone). Runs in the repetition's own
directory, with stdout redirected by the parent to ``stdout.txt``. Writes
``timing.json`` (and ``spans.jsonl`` when traced) for the parent. Everything
before the CLI call is set-up: interpreter start, imports, input generation
and, for effpot-warm, filling the lune cache.
"""

import json
import os
import resource
import sys
import time
import traceback

import spans
import workloads

import bfmix.cli


def _files(root: str) -> dict[str, int]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = os.path.getsize(path)
    return out


def _fill_cache() -> None:
    """Pre-populate the on-disk lune cache the effpot run will read."""
    from bfmix.lattice import LuneSumTable

    table = LuneSumTable("cache")
    for kf2 in workloads.EFFPOT_KF2:
        for k in workloads.effpot_modes():
            if k != (0, 0, 0):
                table.sum(1, k, kf2)


def main() -> int:
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    spec = workloads.WORKLOADS[name]
    argv = spec["inputs"](seed, ".")
    if spec["warm_cache"]:
        _fill_cache()
    if mode == "setup":
        t0 = time.monotonic()
        with open("timing.json", "w") as fh:
            json.dump({"t0": t0}, fh)
        return 0
    rec = None
    if mode == "traced":
        rec = spans.Recorder()
        spans.install(rec)
    before = _files(".")
    cache_before = len(_files("cache")) if os.path.isdir("cache") else 0

    c0 = time.process_time()
    t0 = time.monotonic()
    root = rec.open("cli") if rec else None
    try:
        bfmix.cli.main.main(args=argv, prog_name="bfmix", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # a crash exits 1, as the installed entry point would
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    if rec:
        rec.close(root)
    t1 = time.monotonic()
    c1 = time.process_time()

    after = _files(".")
    outputs = sorted(p for p in after
                     if p == "stdout.txt" or (p not in before and not p.startswith("cache" + os.sep)))
    timing = {
        "t0": t0, "t1": t1, "cpu_s": c1 - c0, "exit_code": code, "outputs": outputs,
        "output_bytes": sum(after[p] for p in outputs),
        "files_written": (len(_files("cache")) if os.path.isdir("cache") else 0) - cache_before,
    }
    if rec:
        timing["lune_points"] = spans.lune_points(rec.spans)
        rec.write("spans.jsonl")
    timing["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("timing.json", "w") as fh:
        json.dump(timing, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
