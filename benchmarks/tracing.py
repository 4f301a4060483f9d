"""Outside-in per-layer tracing for the pairinglab benchmark.

The tracer wraps the public functions of each pairinglab module, the
``DensityMatrix`` validation hook and ``numpy.linalg.eigvalsh``/``eigh``/
``svd``.  Every binding of a wrapped function is replaced, including the
ones other modules made with ``from .module import name``, so a call is
recorded whichever name it goes through.  Nothing inside the package is
changed; ``uninstall`` restores every binding.

Spans are recorded only while a root span (one benchmark op) is open, so
output checks run between ops are never traced.  Each span's self time is
its duration minus the durations of its direct child spans; spans nest
strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

DECOMP_FUNCTIONS = ("eigvalsh", "eigh", "svd")

# Layer of each public function, by module; a missing name takes the
# module's default layer.
_PAIRING_LAYERS = {
    "detect_canonical_pairing": "pairing.detect",
    "qubit_qudit_decompose": "pairing.decompose",
    "pairing_measures": "pairing.closed_form",
    "ppt_cost_condition": "pairing.closed_form",
    "distillable_lower_bound": "pairing.closed_form",
    "pairing_number_bound_check": "pairing.closed_form",
    "distill_witness": "pairing.witness",
}
_STATEFILE_LAYERS = {
    "load_state": "statefile.load",
    "parse_state": "statefile.load",
    "save_state": "statefile.save",
    "state_document": "statefile.save",
}
MODULE_LAYERS = {
    "pairinglab.linalg": ({"partial_transpose": "linalg.partial_transpose"}, "linalg.other"),
    "pairinglab.measures": ({}, "measures"),
    "pairinglab.majorization": ({}, "majorization"),
    "pairinglab.pairing": (_PAIRING_LAYERS, None),
    "pairinglab.randgen": ({}, "randgen"),
    "pairinglab.verify": ({}, "verify"),
    "pairinglab.statefile": (_STATEFILE_LAYERS, None),
    "pairinglab.constructions": ({}, "constructions"),
    "pairinglab.cli": ({}, "cli"),
}
VALIDATE_LAYER = "linalg.validate"
DECOMP_LAYER = "linalg.decomp"
ROOT_LAYER = "bench"
# Decompositions are attributed to the outermost library call below these
# layers, e.g. to measure_report rather than to the CLI command around it.
DISPATCH_LAYERS = (ROOT_LAYER, "cli", "verify")


def decomp_n3(a) -> int:
    """Computed cubic cost of one eigvalsh/eigh/svd call: batch * m * n * min(m, n)."""
    shape = np.shape(a)
    m, n = shape[-2:]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


@dataclass
class LayerStats:
    calls: int = 0  # entries into the layer from a span of another layer
    spans: int = 0
    self_ns: int = 0
    n3: int = 0
    bytes: int = 0
    accepted: int = 0
    trials: int = 0


@dataclass
class _Frame:
    layer: str
    entry: str  # outermost library function below the dispatch layers
    start: int
    child_ns: int = 0


@dataclass
class Tracer:
    """Span recorder with per-layer aggregation.

    ``clock`` returns integer nanoseconds; tests substitute a fake clock
    to check the self-time arithmetic exactly.
    """

    clock: object = time.perf_counter_ns
    layers: dict = field(default_factory=lambda: defaultdict(LayerStats))
    # (op label, entry function, decomposition) -> [calls, n3]
    decomp_by_op: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0]))
    ops: int = 0
    _stack: list = field(default_factory=list)
    _label: str = ""
    _restore: list = field(default_factory=list)

    # -- spans -----------------------------------------------------------
    def _enter(self, layer: str, name: str) -> _Frame:
        parent = self._stack[-1]
        entry = name if parent.layer in DISPATCH_LAYERS else parent.entry
        frame = _Frame(layer, entry, self.clock())
        self._stack.append(frame)
        stats = self.layers[layer]
        stats.spans += 1
        if parent.layer != layer:
            stats.calls += 1
        return frame

    def _exit(self, frame: _Frame) -> None:
        dur = self.clock() - frame.start
        self._stack.pop()
        self.layers[frame.layer].self_ns += dur - frame.child_ns
        if self._stack:
            self._stack[-1].child_ns += dur

    def run_op(self, label: str, fn):
        """Run one benchmark op under a root span; returns fn()."""
        self._label = label
        root = _Frame(ROOT_LAYER, "", self.clock())
        self._stack.append(root)
        try:
            return fn()
        finally:
            self._exit(root)
            self.ops += 1

    # -- wrappers --------------------------------------------------------
    def wrap(self, fn, layer: str, count=None):
        """Wrap fn in a span of ``layer``; ``count(stats, args, kwargs,
        result)`` adds layer-specific counts after the span closes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            frame = self._enter(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if count is not None:
                count(self.layers[layer], args, kwargs, result)
            return result

        return wrapper

    def wrap_decomp(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not self._stack:
                return fn(a, *args, **kwargs)
            frame = self._enter(DECOMP_LAYER, fn.__name__)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._exit(frame)
                n3 = decomp_n3(a)
                self.layers[DECOMP_LAYER].n3 += n3
                per_op = self.decomp_by_op[(self._label, frame.entry, fn.__name__)]
                per_op[0] += 1
                per_op[1] += n3

        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install_functions(self, wrapped: dict, modules) -> None:
        """Replace every binding of each original in ``wrapped`` (an
        {original: wrapper} map) found in the namespaces of ``modules``,
        including values of module-level dicts such as dispatch tables."""
        by_id = {id(orig): (orig, w) for orig, w in wrapped.items()}

        def replacement(value):
            orig, w = by_id.get(id(value), (None, None))
            return w if orig is value else None

        for mod in modules:
            for name, value in list(vars(mod).items()):
                if (w := replacement(value)) is not None:
                    self._patch(mod, name, w)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if (w := replacement(item)) is not None:
                            self._restore.append((value, key, item))
                            value[key] = w

    def install(self) -> None:
        """Wrap pairinglab's public functions and numpy's decompositions."""
        counters = {
            "run_suite": _count_trials,
            "detect_canonical_pairing": _count_accept,
            "load_state": _count_file_bytes,
            "save_state": _count_file_bytes,
        }
        wrapped = {}
        for modname, (named, default) in MODULE_LAYERS.items():
            mod = importlib.import_module(modname)
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                layer = named.get(name, default)
                if layer is None:
                    raise ValueError(f"no layer for {modname}.{name}")
                wrapped[fn] = self.wrap(fn, layer, counters.get(name))
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "pairinglab" or n.startswith("pairinglab."))]
        self.install_functions(wrapped, modules)

        density = sys.modules["pairinglab.linalg"].DensityMatrix
        self._patch(density, "__post_init__",
                    self.wrap(density.__post_init__, VALIDATE_LAYER, _count_validate_n3))
        for name in DECOMP_FUNCTIONS:
            self._patch(np.linalg, name, self.wrap_decomp(getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            if type(owner) is dict:
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- reporting -------------------------------------------------------
    def per_op(self, layer: str, attr: str) -> float:
        return getattr(self.layers[layer], attr) / self.ops if self.ops else 0.0


def _count_trials(stats, args, kwargs, reports):
    stats.trials += sum(r.trials for r in reports)


def _count_accept(stats, args, kwargs, cert):
    stats.accepted += cert is not None


def _count_file_bytes(stats, args, kwargs, result):
    stats.bytes += os.path.getsize(args[0] if args else kwargs["path"])


def _count_validate_n3(stats, args, kwargs, result):
    d = args[0].mat.shape[0]
    stats.n3 += d ** 3


# Per-layer metrics: (name, unit, value from the tracer).  Counts are per
# op and repeat exactly for a seed, because every cycle repeats the same
# inputs; times are mean self time per op.
def _self_ms(layer):
    return lambda t: t.per_op(layer, "self_ns") / 1e6


def _calls(layer):
    return lambda t: t.per_op(layer, "calls")


def _accept_ratio(t):
    stats = t.layers["pairing.detect"]
    return stats.accepted / stats.calls if stats.calls else 0.0


PER_LAYER = [
    ("linalg.decomp.calls", "count", _calls(DECOMP_LAYER)),
    ("linalg.decomp.n3", "count", lambda t: t.per_op(DECOMP_LAYER, "n3")),
    ("linalg.decomp.self_ms", "ms", _self_ms(DECOMP_LAYER)),
    ("linalg.validate.calls", "count", _calls(VALIDATE_LAYER)),
    ("linalg.validate.n3", "count", lambda t: t.per_op(VALIDATE_LAYER, "n3")),
    ("linalg.validate.self_ms", "ms", _self_ms(VALIDATE_LAYER)),
    ("linalg.partial_transpose.calls", "count", _calls("linalg.partial_transpose")),
    ("linalg.other.self_ms", "ms", _self_ms("linalg.other")),
    ("measures.self_ms", "ms", _self_ms("measures")),
    ("majorization.self_ms", "ms", _self_ms("majorization")),
    ("pairing.detect.calls", "count", _calls("pairing.detect")),
    ("pairing.detect.accept_ratio", "ratio", _accept_ratio),
    ("pairing.detect.self_ms", "ms", _self_ms("pairing.detect")),
    ("pairing.decompose.self_ms", "ms", _self_ms("pairing.decompose")),
    ("pairing.closed_form.self_ms", "ms", _self_ms("pairing.closed_form")),
    ("pairing.witness.self_ms", "ms", _self_ms("pairing.witness")),
    ("randgen.calls", "count", _calls("randgen")),
    ("randgen.self_ms", "ms", _self_ms("randgen")),
    ("verify.trials", "count", lambda t: t.per_op("verify", "trials")),
    ("verify.self_ms", "ms", _self_ms("verify")),
    ("statefile.load.calls", "count", _calls("statefile.load")),
    ("statefile.load.bytes", "B", lambda t: t.per_op("statefile.load", "bytes")),
    ("statefile.load.self_ms", "ms", _self_ms("statefile.load")),
    ("statefile.save.calls", "count", _calls("statefile.save")),
    ("statefile.save.bytes", "B", lambda t: t.per_op("statefile.save", "bytes")),
    ("statefile.save.self_ms", "ms", _self_ms("statefile.save")),
    ("constructions.self_ms", "ms", _self_ms("constructions")),
    ("cli.self_ms", "ms", _self_ms("cli")),
]


def layer_metrics(tracer: Tracer, overhead_pct: float) -> dict:
    """{name: (value, unit)} for every per-layer metric."""
    out = {name: (fn(tracer), unit) for name, unit, fn in PER_LAYER}
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
