"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps public functions and methods of bfmix at each layer
boundary from the outside; nothing in the program changes. Spans stay in
memory and are written as JSON lines when the repetition ends.

``install`` and ``lune_points`` import bfmix and run in the child process;
``derive`` is stdlib only and runs in the parent.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Recorder:
    """In-memory spans: id, parent id, name, start, end and attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict, **attrs) -> None:
        span["end"] = time.perf_counter()
        span.update(attrs)
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(rec: Recorder, fn, name: str, after=None, on_error=None):
    """Record a span around every call of ``fn``.

    ``after(result, args)`` and ``on_error(exc)`` return span attributes.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(span, error=type(exc).__name__, **(on_error(exc) if on_error else {}))
            raise
        rec.close(span, **(after(result, args) if after else {}))
        return result

    return wrapper


def _replace_everywhere(orig, replacement) -> None:
    """Rebind ``orig`` in every loaded bfmix module that imported it by name."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "bfmix" and not mod_name.startswith("bfmix."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def _eigen_attrs(result) -> dict:
    residuals = [float(r) for r in result.residuals]
    return {"method": result.method, "iterations": int(result.iterations),
            "max_residual": max(residuals) if residuals else 0.0}


def install(rec: Recorder) -> None:
    """Wrap the layer boundaries of an imported bfmix."""
    import bfmix.cli  # noqa: F401  (loads every layer module)
    from bfmix import fock, lattice, potentials, scattering, spectra

    functions = [
        (potentials, "effective_potential_kF", "potentials.mediated", None, None),
        (potentials, "sup_difference", "potentials.sup", None, None),
        (spectra, "lowest_eigenvalues", "spectra.eigensolve",
         lambda res, args: dict(_eigen_attrs(res), converged=True),
         lambda exc: dict(_eigen_attrs(exc.estimates), converged=False)
         if getattr(exc, "estimates", None) is not None else {"converged": False}),
        (spectra, "make_trial_state", "spectra.trial", None, None),
        (spectra, "trial_state_energy", "spectra.trial", None, None),
        (scattering, "radial_convolution", "scattering.convolution", None, None),
        (scattering, "scattering_length", "scattering.length", None, None),
        (scattering, "critical_couplings", "scattering.critical", None, None),
        (scattering, "collapse_energy", "scattering.collapse", None, None),
    ]
    for module, attr, name, after, on_error in functions:
        orig = getattr(module, attr)
        _replace_everywhere(orig, _wrap(rec, orig, name, after, on_error))

    fock.FockBasis.__init__ = _wrap(
        rec, fock.FockBasis.__init__, "fock.basis",
        after=lambda res, args: {"states": int(args[0].dimension)})

    # Assembly happens on the first matrix() call of each handle; later calls
    # return the cached matrix and are not spans.
    assembled: dict[int, object] = {}
    orig_matrix = fock.OperatorHandle.matrix
    traced_matrix = _wrap(rec, orig_matrix, "fock.assemble",
                          after=lambda res, args: {"nnz": int(res.nnz), "kind": args[0].kind})

    def matrix(self):
        if id(self) in assembled:
            return orig_matrix(self)
        assembled[id(self)] = self  # keep the handle alive so its id stays unique
        return traced_matrix(self)

    fock.OperatorHandle.matrix = matrix

    # Lune sums: classify each lookup as a memory hit, a disk hit or a miss
    # (computed), from the table's documented memo key and its cache files.
    seen: dict[int, tuple[object, set]] = {}
    orig_sum = lattice.LuneSumTable.sum

    def lune_sum(self, alpha, k, kf2, lam2=None, threads=1):
        try:
            ck = lattice.canonical_vector(k)
            kf2n = int(kf2) if float(kf2).is_integer() else float(kf2)
            key = (float(alpha), ck, kf2n, lam2)
        except (TypeError, ValueError):
            return orig_sum(self, alpha, k, kf2, lam2, threads)
        keys = seen.setdefault(id(self), (self, set()))[1]
        if ck == (0, 0, 0):
            outcome = "zero"
        elif key in keys:
            outcome = "memory_hit"
        else:
            outcome = None
        disk = bool(self.cache_dir) and lam2 is None and outcome is None
        before = _count_files(self.cache_dir) if disk else 0
        span = rec.open("lattice.sum")
        try:
            value = orig_sum(self, alpha, k, kf2, lam2, threads)
        except BaseException as exc:
            rec.close(span, error=type(exc).__name__)
            raise
        rec.close(span, alpha=float(alpha), k=list(ck), kf2=kf2n, lam2=lam2)
        if outcome is None:
            outcome = "disk_hit" if disk and _count_files(self.cache_dir) == before else "miss"
            keys.add(key)
        span["outcome"] = outcome
        return value

    lattice.LuneSumTable.sum = lune_sum


def _count_files(path) -> int:
    try:
        return len(os.listdir(path))
    except FileNotFoundError:
        return 0


def lune_points(spans: list[dict]) -> int:
    """Lune points enumerated by the computed sums, counted with lune_count."""
    from bfmix.lattice import lune_count

    counts: dict[tuple, int] = {}
    total = 0
    for s in spans:
        if s["name"] == "lattice.sum" and s.get("outcome") == "miss":
            key = (tuple(s["k"]), s["kf2"], s["lam2"])
            if key not in counts:
                counts[key] = lune_count(*key)
            total += counts[key]
    return total


# --- derivation (parent side) ---------------------------------------------------

LAYERS = ("lattice", "potentials", "fock", "spectra", "scattering", "cli")


def read_spans(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
            for s in spans}


def derive(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (the span tree has one root)."""
    by_id = {s["id"]: s for s in spans}
    selft = self_times(spans)
    root = next(s for s in spans if s["parent"] is None)
    wall = root["end"] - root["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def self_s(name):
        return sum(selft[s["id"]] for s in named(name))

    def busy_s(name):
        # outermost spans of the name, so recursion is not counted twice
        total = 0.0
        for s in named(name):
            p = s["parent"]
            while p is not None and by_id[p]["name"] != name:
                p = by_id[p]["parent"]
            if p is None:
                total += s["end"] - s["start"]
        return total

    sums = named("lattice.sum")
    lookups = [s for s in sums if s.get("outcome") in ("memory_hit", "disk_hit", "miss")]
    hits = [s for s in lookups if s["outcome"] != "miss"]
    eig = named("spectra.eigensolve")
    residuals = [s["max_residual"] for s in eig if "max_residual" in s]
    m = {
        "lattice.sum.calls": len(sums),
        "lattice.sum.self_s": self_s("lattice.sum"),
        "lattice.cache.hit_ratio": len(hits) / len(lookups) if lookups else 0.0,
        "potentials.mediated.self_s": self_s("potentials.mediated"),
        "potentials.sup.self_s": self_s("potentials.sup"),
        "fock.basis.calls": len(named("fock.basis")),
        "fock.basis.busy_s": busy_s("fock.basis"),
        "fock.basis.states": sum(s.get("states", 0) for s in named("fock.basis")),
        "fock.assemble.busy_s": busy_s("fock.assemble"),
        "fock.assemble.nnz": sum(s.get("nnz", 0) for s in named("fock.assemble")),
        "spectra.eigensolve.calls": len(eig),
        "spectra.eigensolve.self_s": self_s("spectra.eigensolve"),
        "spectra.eigensolve.iterations": sum(s.get("iterations", 0) for s in eig),
        "spectra.eigensolve.converged_ratio":
            sum(1 for s in eig if s.get("converged")) / len(eig) if eig else 0.0,
        "spectra.eigensolve.max_residual": max(residuals) if residuals else 0.0,
        "spectra.trial.busy_s": busy_s("spectra.trial"),
        "scattering.convolution.calls": len(named("scattering.convolution")),
        "scattering.convolution.busy_s": busy_s("scattering.convolution"),
        "scattering.length.calls": len(named("scattering.length")),
        "scattering.length.busy_s": busy_s("scattering.length"),
        "scattering.critical.self_s": self_s("scattering.critical"),
        "scattering.collapse.self_s": self_s("scattering.collapse"),
        "cli.self_s": selft[root["id"]],
        "trace.coverage": 1.0 - selft[root["id"]] / wall if wall > 0 else 0.0,
        "wall_s": wall,
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = sum(selft[s["id"]] for s in spans
                                  if s["name"].split(".")[0] == layer) / wall
    return m
