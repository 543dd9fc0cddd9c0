"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the viscoflow modules and every
``numpy.fft`` transform entry point from outside the package: nothing under
``src/`` knows about it.  Each wrapped call records one span (span id,
parent span id, run id, name index, start, end).  Spans stay in memory and
are written once, when the run ends.  A span's self time is its duration
minus the part its child spans cover; child spans never overlap because the
calls nest on one thread.

Targets are looked up by name and patched by identity: every ``viscoflow.*``
module namespace that holds the same function object gets the wrapper, so a
name bound with ``from .model import reformulated_rhs`` is traced too.  A
target that no longer exists is reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time

import numpy as np

# Every transform entry point of numpy.fft, the real-data ones included.
FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_ND = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")
FFT = tuple(f"numpy.fft.{name}" for name in FFT_1D + FFT_ND)

# (home module, qualified name) of each traced viscoflow function.  A target
# that moved to another viscoflow module is still found by its name.
TARGETS = (
    ("viscoflow.grid", "SpectralField.to_physical"),
    ("viscoflow.grid", "SpectralField.from_physical"),
    ("viscoflow.grid", "dealiased_product"),
    ("viscoflow.dyadic", "besov_norm"),
    ("viscoflow.dyadic", "hybrid_norm"),
    ("viscoflow.dyadic", "DyadicFamily.block_l2_profile"),
    ("viscoflow.operators", "convect"),
    ("viscoflow.operators", "matrix_product"),
    ("viscoflow.operators", "helmholtz_split"),
    ("viscoflow.operators", "helmholtz_reconstruct"),
    ("viscoflow.model", "reformulated_rhs"),
    ("viscoflow.model", "rotation_correction"),
    ("viscoflow.model", "assemble_sources"),
    ("viscoflow.evolve", "direct_solve"),
    ("viscoflow.evolve", "picard_solve"),
    ("viscoflow.evolve", "NormSeries.record"),
    ("viscoflow.evolve", "_difference_bnorm"),
    ("viscoflow.evolve", "Trajectory.record"),
    ("viscoflow.linear", "run_pair_decay"),
    ("viscoflow.linear", "expm2"),
    ("viscoflow.linear", "block_energy"),
    ("viscoflow.constraints", "generate_admissible"),
    ("viscoflow.constraints", "transport_simulate"),
    ("viscoflow.constraints", "transport_rhs"),
    ("viscoflow.constraints", "check_trajectory"),
    ("viscoflow.snapshots", "save_field"),
    ("viscoflow.snapshots", "load_field"),
    ("viscoflow.cli", "write_csv"),
    ("viscoflow.cli", "Runner.manifest"),
)

_SOLVE = ("direct_solve", "picard_solve")
_RHS = ("reformulated_rhs",)
_SOURCES = ("assemble_sources",)
_NORMS = ("besov_norm", "hybrid_norm")
_HELMHOLTZ = ("helmholtz_split", "helmholtz_reconstruct")

# (metric, unit, aggregate, traced names).  Aggregates: calls, total_s
# (inclusive time), self_s, bytes, points, mib (bytes / 2^20) and
# fft_per_call (scalar transforms inside the spans / calls).
LAYER_METRICS = (
    ("grid.fft_calls", "count", "calls", FFT),
    ("grid.fft_scalar_transforms", "count", "fft", FFT),
    ("grid.fft_s", "s", "total_s", FFT),
    ("grid.fft_bytes_computed", "B", "bytes", FFT),
    ("grid.to_physical_calls", "count", "calls", ("SpectralField.to_physical",)),
    ("grid.from_physical_calls", "count", "calls", ("SpectralField.from_physical",)),
    ("grid.dealiased_product_calls", "count", "calls", ("dealiased_product",)),
    ("dyadic.norm_calls", "count", "calls", _NORMS),
    ("dyadic.norm_s", "s", "total_s", _NORMS),
    ("dyadic.block_profile_calls", "count", "calls", ("DyadicFamily.block_l2_profile",)),
    ("operators.convect_calls", "count", "calls", ("convect",)),
    ("operators.convect_s", "s", "total_s", ("convect",)),
    ("operators.matrix_product_s", "s", "total_s", ("matrix_product",)),
    ("operators.helmholtz_calls", "count", "calls", _HELMHOLTZ),
    ("operators.helmholtz_s", "s", "total_s", _HELMHOLTZ),
    ("model.rhs_calls", "count", "calls", _RHS),
    ("model.rhs_s", "s", "total_s", _RHS),
    ("model.rhs_self_s", "s", "self_s", _RHS),
    ("model.transforms_per_rhs", "count/call", "fft_per_call", _RHS),
    ("model.rotation_correction_s", "s", "total_s", ("rotation_correction",)),
    ("model.sources_calls", "count", "calls", _SOURCES),
    ("model.sources_s", "s", "total_s", _SOURCES),
    ("model.transforms_per_sources", "count/call", "fft_per_call", _SOURCES),
    ("evolve.solve_s", "s", "total_s", _SOLVE),
    # Time in the solve loops outside every traced child span: the stepper
    # glue (axpy, damping, hygiene, CFL, linear terms).
    ("evolve.self_s", "s", "self_s", _SOLVE),
    ("evolve.norm_record_s", "s", "total_s", ("NormSeries.record",)),
    ("evolve.difference_norm_s", "s", "total_s", ("_difference_bnorm",)),
    ("evolve.trajectory_mb_computed", "MiB", "mib", ("Trajectory.record",)),
    ("linear.pair_decay_calls", "count", "calls", ("run_pair_decay",)),
    ("linear.pair_decay_s", "s", "total_s", ("run_pair_decay",)),
    ("linear.expm2_calls", "count", "calls", ("expm2",)),
    ("linear.expm2_points", "count", "points", ("expm2",)),
    ("linear.block_energy_s", "s", "total_s", ("block_energy",)),
    ("constraints.admissible_s", "s", "total_s", ("generate_admissible",)),
    ("constraints.transport_s", "s", "total_s", ("transport_simulate",)),
    ("constraints.transport_rhs_calls", "count", "calls", ("transport_rhs",)),
    ("constraints.check_s", "s", "total_s", ("check_trajectory",)),
    ("snapshots.save_s", "s", "total_s", ("save_field",)),
    ("snapshots.load_s", "s", "total_s", ("load_field",)),
    ("snapshots.bytes", "B", "bytes", ("save_field", "load_field")),
    ("cli.csv_s", "s", "total_s", ("write_csv",)),
    ("cli.csv_bytes", "B", "bytes", ("write_csv",)),
    ("cli.manifest_s", "s", "total_s", ("Runner.manifest",)),
)

SPAN_DTYPE = np.dtype([("span", "<i8"), ("parent", "<i8"), ("run", "<i4"),
                       ("name", "<i4"), ("start", "<f8"), ("end", "<f8")])


# ----------------------------------------------------------------------
# work measured at a call, from its arguments and result
# ----------------------------------------------------------------------

def _fft_work(fn_name):
    """Work of one call: (independent scalar transforms, bytes in + out, 0).

    Bytes are computed from array sizes, not measured traffic."""
    one_d = fn_name in FFT_1D

    def work(args, kwargs, out):
        a = np.asarray(args[0])
        nd = a.ndim
        if one_d:
            axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
        else:
            axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
            if axes is None:
                s = kwargs.get("s", args[1] if len(args) > 1 else None)
                if fn_name.endswith("2"):
                    axes = (-2, -1)
                elif s is not None:
                    axes = range(-len(s), 0)
                else:
                    axes = range(nd)
        transformed = {ax % nd for ax in axes}
        batch = 1
        for d in range(nd):
            if d not in transformed:
                batch *= a.shape[d]
        return batch, a.nbytes + np.asarray(out).nbytes, 0
    return work


def _file_bytes(args, kwargs, out):
    return 0, os.path.getsize(args[0]), 0


def _trajectory_bytes(args, kwargs, out):
    # Trajectory.record(self, t, rho, u, E) copies the three coefficient arrays.
    return 0, sum(f.coeff.nbytes for f in args[2:5]), 0


def _expm2_points(args, kwargs, out):
    return 0, 0, np.broadcast(*args[:4]).size


_WORK = {
    "Trajectory.record": _trajectory_bytes,
    "expm2": _expm2_points,
    "save_field": _file_bytes,
    "load_field": _file_bytes,
    "write_csv": _file_bytes,
}


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------

def _viscoflow_modules():
    import viscoflow
    for info in pkgutil.iter_modules(viscoflow.__path__, "viscoflow."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "viscoflow" or name.startswith("viscoflow."))]


def _find(modules, home, name):
    """The object called ``name`` in its home module, or wherever it moved."""
    for m in modules:
        if m.__name__ == home and name in vars(m):
            return vars(m)[name]
    for m in modules:
        obj = vars(m).get(name)
        if obj is not None and getattr(obj, "__module__", None) == m.__name__:
            return obj
    return None


class Tracer:
    """Builds the wrappers once; install() and uninstall() swap them in and out.

    Aggregates (calls, inclusive and self time, scalar transforms inside the
    span, bytes, points) are kept per traced name and reset per run id.
    """

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self._patches: list[tuple] = []     # (namespace, attribute, original, wrapper)
        self._stack: list[list] = []
        self._pending: list[tuple] = []
        self._chunks: list[np.ndarray] = []
        self._next_span = 0
        self._run = -1
        self.stats: dict[str, dict] = {}
        modules = _viscoflow_modules()
        for name in FFT_1D + FFT_ND:
            fn = getattr(np.fft, name, None)
            if fn is None:
                self.absent.append(f"numpy.fft.{name}")
                continue
            wrapper = self._wrap(f"numpy.fft.{name}", fn, _fft_work(name), leaf=True)
            self._patch_identity(fn, wrapper, [np.fft] + modules)
        for home, qualname in TARGETS:
            self._add_target(modules, home, qualname)

    def _add_target(self, modules, home, qualname):
        cls_name, _, attr = qualname.rpartition(".")
        work = _WORK.get(qualname)
        if not cls_name:
            fn = _find(modules, home, attr)
            if not callable(fn):
                self.absent.append(f"{home}.{qualname}")
                return
            self._patch_identity(fn, self._wrap(qualname, fn, work), modules)
            return
        cls = _find(modules, home, cls_name)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if raw is None:
            self.absent.append(f"{home}.{qualname}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(self._wrap(qualname, raw.__func__, work))
        else:
            wrapper = self._wrap(qualname, raw, work)
        self._patches.append((cls, attr, raw, wrapper))

    def _patch_identity(self, fn, wrapper, namespaces):
        for ns in namespaces:
            for attr, value in vars(ns).items():
                if value is fn:
                    self._patches.append((ns, attr, fn, wrapper))

    def install(self):
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in reversed(self._patches):
            setattr(ns, attr, original)

    # -- recording -------------------------------------------------------

    def begin_run(self, run_id: int):
        """Start a run id and reset the per-name aggregates."""
        self._run = run_id
        self.stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                             "fft": 0, "bytes": 0, "points": 0}
                      for name in self.names}

    def end_run(self):
        self._chunks.append(np.array(self._pending, dtype=SPAN_DTYPE))
        self._pending.clear()

    def _wrap(self, name: str, fn, work=None, leaf=False):
        idx = len(self.names)
        self.names.append(name)
        stack = self._stack
        pending = self._pending
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # numpy.fft entry points may call one another: count the outer call.
            if leaf and stack and stack[-1][4]:
                return fn(*args, **kwargs)
            span = self._next_span
            self._next_span += 1
            parent = stack[-1][0] if stack else -1
            # frame: span id, start, child time, scalar transforms inside, leaf
            frame = [span, 0.0, 0.0, 0, leaf]
            stack.append(frame)
            frame[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                pending.append((span, parent, self._run, idx, frame[1], end))
                st = self.stats[name]
                st["calls"] += 1
                st["total_s"] += dur
                st["self_s"] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if work is not None:
                transforms, nbytes, points = work(args, kwargs, out)
                frame[3] += transforms
                st["bytes"] += nbytes
                st["points"] += points
            st["fft"] += frame[3]
            if stack:
                stack[-1][3] += frame[3]
            return out

        return wrapper

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metric values of the current run, keyed by metric name."""
        out = {}
        for metric, unit, agg, names in LAYER_METRICS:
            stats = [self.stats[n] for n in names if n in self.stats]
            if agg == "fft_per_call":
                calls = sum(s["calls"] for s in stats)
                value = sum(s["fft"] for s in stats) / calls if calls else 0.0
            elif agg == "mib":
                value = sum(s["bytes"] for s in stats) / 2.0 ** 20
            else:
                value = sum(s[agg] for s in stats)
            out[metric] = (value, unit)
        return out

    def missing_metrics(self) -> dict:
        """Metric name -> traced names it needs that could not be found."""
        found = set(self.names)
        out = {}
        for metric, _, _, names in LAYER_METRICS:
            lost = [n for n in names if n not in found]
            if lost:
                out[metric] = lost
        return out

    def write(self, path, header: dict):
        """Write every recorded span and the name table as one .npz file."""
        spans = (np.concatenate(self._chunks) if self._chunks
                 else np.zeros(0, dtype=SPAN_DTYPE))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, spans=spans, names=np.array(self.names),
                            header=np.array(sorted(header.items()), dtype=str))
