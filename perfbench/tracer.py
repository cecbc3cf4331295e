"""Spans around calls into sinoquad's public functions, for the traced run.

The package records no spans of its own, so a traced run patches the
public functions of each sinoquad module with timed wrappers and restores
them when it ends. A function imported into several modules is replaced
everywhere it is referenced, so calls between modules are caught too.
Spans stay in memory and are written as JSONL when the run ends.

A span is [id, parent id, name, start, end, attrs]. A layer's self time is
its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import sinoquad.autograd as ag
import sinoquad.io_formats as io_formats
import sinoquad.metrics as metrics
import sinoquad.projector as projector
import sinoquad.rng as rng
import sinoquad.simulate as simulate
import sinoquad.trainer as trainer
import sinoquad.unet as unet

osem = importlib.import_module("sinoquad.osem")  # the package's osem name is the function

AUTOGRAD_OPS = ("conv2d", "conv_transpose2d", "avgpool2x2", "relu", "concat_channels", "mse_loss")


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def replace_function(self, func, wrapper):
        """Point every sinoquad module attribute that holds func at wrapper."""
        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "sinoquad"]:
            for attr, value in list(vars(mod).items()):
                if value is func:
                    self.set(mod, attr, wrapper)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _argument(func, name):
    """Getter for one named argument of a call to func, however it was passed."""
    sig = inspect.signature(func)

    def get(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


class TimedOperator:
    """Stands in for a sparse operator and records each product as a span."""

    def __init__(self, matrix, tracer, name, transpose_name):
        self._matrix = matrix
        self._tracer = tracer
        self._name = name
        self._transpose_name = transpose_name

    def __matmul__(self, vec):
        rec = self._tracer.begin(self._name, {"nnz": int(self._matrix.nnz)})
        try:
            return self._matrix @ vec
        finally:
            self._tracer.end(rec)

    @property
    def T(self):
        return TimedOperator(self._matrix.T, self._tracer, self._transpose_name, self._name)

    def __getattr__(self, attr):
        return getattr(self._matrix, attr)


class Tracer:
    """Records spans while installed."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self.projectors = weakref.WeakSet()
        self._stack: list[int] = []
        self._patches = Patches()

    def begin(self, name, attrs=None):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), 0.0, attrs]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def timed(self, func, name, attrs=None, after=None):
        """func wrapped in a span; name and attrs may be functions of its arguments."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            rec = tracer.begin(label, attrs(*args, **kwargs) if callable(attrs) else attrs)
            try:
                out = func(*args, **kwargs)
            finally:
                tracer.end(rec)
            return after(out, args, kwargs) if after else out

        return wrapper

    def _function(self, module, attr, name, **kw):
        func = getattr(module, attr)
        self._patches.replace_function(func, self.timed(func, name, **kw))

    def _method(self, cls, attr, name, **kw):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patches.set(cls, attr, classmethod(self.timed(raw.__func__, name, **kw)))
        else:
            self._patches.set(cls, attr, self.timed(raw, name, **kw))

    def _op_backward(self, op):
        """Wrap the backward closure of each tensor the op returns."""
        bwd_name = f"autograd.{op}.bwd"

        def after(out, args, kwargs):
            if out._backward is not None:
                attrs = None
                if op == "conv2d":
                    x, weight = _conv2d_operands(*args, **kwargs)
                    grads = int(x.requires_grad) + int(weight.requires_grad)
                    attrs = {"flop": grads * _conv2d_flop(x, weight)}
                out._backward = self.timed(out._backward, bwd_name, attrs=attrs)
            return out

        return after

    def install(self):
        """Patch the public functions of every sinoquad module."""
        for op in AUTOGRAD_OPS:
            self._function(ag, op, f"autograd.{op}.fwd", after=self._op_backward(op),
                           attrs=_conv2d_attrs if op == "conv2d" else None)
        self._method(ag.Tensor, "backward", "autograd.backward")
        self._function(ag, "adam_step", "autograd.adam_step")

        training = _argument(unet.UNet.forward, "training")
        self._method(unet.UNet, "forward",
                     lambda *a, **k: "unet.forward" if training(*a, **k) else "unet.forward_infer")

        n_angles = _argument(projector.ParallelProjector.__init__, "n_angles")

        def register(out, args, kwargs):
            self.projectors.add(args[0])
            return out

        self._method(projector.ParallelProjector, "__init__", "projector.build",
                     attrs=lambda *a, **k: {"views": int(n_angles(*a, **k))}, after=register)
        self._function(projector, "get_projector", "projector.get")
        self._function(projector, "project", "projector.project")
        self._method(projector.ParallelProjector, "forward", "projector.forward")
        self._method(projector.ParallelProjector, "adjoint", "projector.adjoint")

        def timed_pair(out, args, kwargs):
            fwd, adj = out
            return (TimedOperator(fwd, self, "projector.forward", "projector.adjoint"),
                    TimedOperator(adj, self, "projector.adjoint", "projector.forward"))

        self._method(projector.ParallelProjector, "subset_operators", "projector.subset_operators",
                     after=timed_pair)

        sino = _argument(osem.osem, "sino")
        self._function(osem, "osem", "osem.osem",
                       attrs=lambda *a, **k: {"views": int(sino(*a, **k).n_angles)})
        self._function(osem, "log_likelihood", "osem.log_likelihood")

        for attr in ("generate_phantom", "apply_poisson", "subsample_views", "make_dataset"):
            self._function(simulate, attr, f"simulate.{attr}")
        lam = _argument(rng.sample_poisson, "lam")
        self._function(rng, "sample_poisson", "rng.sample_poisson",
                       attrs=lambda *a, **k: {"bins": int(np.size(lam(*a, **k)))})

        obj = _argument(io_formats.write_tomo, "obj")
        self._function(io_formats, "write_tomo", "io_formats.write_tomo",  # 44-byte 2-D header
                       attrs=lambda *a, **k: {"bytes": 44 + 4 * int(np.size(obj(*a, **k).data))})
        for attr in ("read_tomo", "write_manifest", "read_manifest"):
            self._function(io_formats, attr, f"io_formats.{attr}")

        self._method(metrics.MetricsReport, "from_pair", "metrics.from_pair")
        self._function(metrics, "ssim", "metrics.ssim")

        self._function(trainer, "train", "trainer.train")
        self._function(trainer, "evaluate", "trainer.evaluate")

    def uninstall(self):
        self._patches.undo()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": start - self.t0, "end": end - self.t0}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


_CONV2D = inspect.signature(ag.conv2d)


def _conv2d_operands(*args, **kwargs):
    arguments = _CONV2D.bind(*args, **kwargs).arguments
    return arguments["x"], arguments["weight"]


def _conv2d_flop(x, weight) -> int:
    """Multiply-adds of one conv2d product, counted as two flops each."""
    b, _, h, w = x.shape
    return 2 * b * h * w * int(np.prod(weight.shape))


def _conv2d_attrs(*args, **kwargs):
    return {"flop": _conv2d_flop(*_conv2d_operands(*args, **kwargs))}


def step_peak_mb(call):
    """Run call(); return the tracemalloc peak in MB over its first training step.

    The step runs from the first training-mode UNet.forward to the end of
    the adam_step that follows it.
    """
    state = {"peak": 0.0, "done": False}
    patches = Patches()
    forward = unet.UNet.__dict__["forward"]
    adam_step = ag.adam_step
    training = _argument(forward, "training")

    def probed_forward(*args, **kwargs):
        if training(*args, **kwargs) and not state["done"] and not tracemalloc.is_tracing():
            tracemalloc.start()
        return forward(*args, **kwargs)

    def probed_adam_step(*args, **kwargs):
        out = adam_step(*args, **kwargs)
        if tracemalloc.is_tracing() and not state["done"]:
            state["peak"] = tracemalloc.get_traced_memory()[1] / 2**20
            state["done"] = True
            tracemalloc.stop()
        return out

    patches.set(unet.UNet, "forward", probed_forward)
    patches.replace_function(adam_step, probed_adam_step)
    try:
        call()
    finally:
        patches.undo()
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    return state["peak"]


# Per-layer metric -> the span whose self time per work unit it reports.
SELF_MS = {
    **{f"autograd.{op}.{d}_ms": f"autograd.{op}.{d}"
       for op in AUTOGRAD_OPS for d in ("fwd", "bwd")},
    "autograd.backward_ms": "autograd.backward",
    "autograd.adam_step_ms": "autograd.adam_step",
    "projector.forward_ms": "projector.forward",
    "projector.adjoint_ms": "projector.adjoint",
    "projector.subset_operators_ms": "projector.subset_operators",
    "osem.self_ms": "osem.osem",
    "io_formats.read_tomo_ms": "io_formats.read_tomo",
    "metrics.from_pair_ms": "metrics.from_pair",
    "metrics.ssim_ms": "metrics.ssim",
}
# Per-layer metric -> the span whose self time in set-up, per phantom
# generated, it reports.
SETUP_MS = {
    "simulate.generate_phantom_ms": "simulate.generate_phantom",
    "simulate.apply_poisson_ms": "simulate.apply_poisson",
    "rng.sample_poisson_ms": "rng.sample_poisson",
    "io_formats.write_tomo_ms": "io_formats.write_tomo",
}
# Per-layer metric -> the span whose whole duration per work unit it reports.
TOTAL_MS = {
    "unet.forward_ms": "unet.forward",
    "unet.forward_infer_ms": "unet.forward_infer",
    "osem.osem_128v_ms": "osem.osem.128v",
    "osem.osem_32v_ms": "osem.osem.32v",
}


def _aggregate(spans, dur, self_t, keep):
    """Self time, total time, count and attribute sums per span name."""
    self_s, total_s = defaultdict(float), defaultdict(float)
    count, attr_sum = defaultdict(int), defaultdict(float)
    for i, (_, parent, name, _, _, attrs) in enumerate(spans):
        if not keep[i]:
            continue
        self_s[name] += self_t[i]
        total_s[name] += dur[i]
        count[name] += 1
        if name == "osem.osem":
            total_s[f"osem.osem.{attrs['views']}v"] += dur[i]
        for k, v in (attrs or {}).items():
            attr_sum[(name, k)] += v
        if name in ("projector.forward", "projector.adjoint") and parent is not None \
                and spans[parent][2] == "osem.osem":
            attr_sum[("osem.matvec", "flop")] += 2 * (attrs or {}).get("nnz", 0)
    return self_s, total_s, count, attr_sum


def summarize(spans, unit_span):
    """Per-layer figures from recorded spans.

    Most times come from spans under "bench.item" roots, divided by the
    number of work units: "bench.item" roots, or spans named unit_span.
    Data generation runs only in set-up, so its layers (SETUP_MS) come from
    spans under "bench.setup", per phantom generated. Build times and
    cache counts use every span.
    """
    n = len(spans)
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * n
    root = list(range(n))
    for s in spans:
        if s[1] is not None:
            child[s[1]] += dur[s[0]]
            root[s[0]] = root[s[1]]
    self_t = [dur[i] - child[i] for i in range(n)]
    self_s, total_s, count, attr_sum = _aggregate(
        spans, dur, self_t, [spans[root[i]][2] == "bench.item" for i in range(n)])
    setup_s, _, setup_count, setup_attr = _aggregate(
        spans, dur, self_t, [spans[root[i]][2] == "bench.setup" for i in range(n)])

    items = sum(1 for i in range(n) if spans[i][1] is None and spans[i][2] == "bench.item")
    units = items if unit_span == "bench.item" else count[unit_span]
    per = 1.0 / units if units else 0.0
    phantoms = setup_count["simulate.generate_phantom"]
    per_phantom = 1.0 / phantoms if phantoms else 0.0

    builds = [s for s in spans if s[2] == "projector.build"]
    build_s = defaultdict(list)
    for s in builds:
        build_s[s[5]["views"]].append(s[4] - s[3])
    gets = sum(1 for s in spans if s[2] == "projector.get")
    misses = sum(1 for s in builds if s[1] is not None and spans[s[1]][2] == "projector.get")

    out = {metric: 1e3 * self_s[span] * per for metric, span in SELF_MS.items()}
    out.update({metric: 1e3 * setup_s[span] * per_phantom for metric, span in SETUP_MS.items()})
    out.update({metric: 1e3 * total_s[span] * per for metric, span in TOTAL_MS.items()})
    conv_flop = sum(attr_sum[(f"autograd.conv2d.{d}", "flop")] for d in ("fwd", "bwd"))
    conv_s = self_s["autograd.conv2d.fwd"] + self_s["autograd.conv2d.bwd"]
    out["autograd.conv2d.gflop"] = conv_flop * per / 1e9
    out["autograd.conv2d.gflops"] = conv_flop / conv_s / 1e9 if conv_s else 0.0
    for views in (128, 32):
        times = build_s.get(views, [])
        out[f"projector.build_s.{views}v"] = float(np.mean(times)) if times else 0.0
    out["projector.builds"] = float(len(builds))
    out["projector.get_calls"] = float(gets)
    out["projector.cache_hit_ratio"] = (gets - misses) / gets if gets else 0.0
    out["osem.matvec_gflop"] = attr_sum[("osem.matvec", "flop")] * per / 1e9
    out["rng.sample_poisson.bins"] = setup_attr[("rng.sample_poisson", "bins")] * per_phantom
    write_s = setup_s["io_formats.write_tomo"]
    out["io_formats.write_tomo.mb_per_s"] = (
        setup_attr[("io_formats.write_tomo", "bytes")] / write_s / 1e6 if write_s else 0.0)
    item_s = total_s["bench.item"]
    out["trace.unattributed_frac"] = self_s["bench.item"] / item_s if item_s else 0.0

    modules = defaultdict(float)
    for name, value in self_s.items():
        modules[name.split(".")[0]] += value
    breakdown = {mod: {"self_ms_per_unit": 1e3 * value * per,
                       "share_of_item_time": value / item_s if item_s else 0.0}
                 for mod, value in sorted(modules.items(), key=lambda kv: -kv[1])}
    return out, breakdown, units


def stored_mb(projectors) -> float:
    """Computed size of the arrays the live projectors store, in MB."""
    total = 0
    for proj in projectors:
        for value in vars(proj).values():
            if hasattr(value, "indptr"):
                total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
            elif isinstance(value, np.ndarray):
                total += value.nbytes
    return total / 1e6


def nnz(projectors) -> float:
    """Nonzeros of the live projectors' forward operators."""
    total = 0
    for proj in projectors:
        matrix = getattr(proj, "matrix", None)
        if matrix is None:
            matrix = proj.subset_operators(range(proj.n_angles))[0]
        total += matrix.nnz
    return float(total)
