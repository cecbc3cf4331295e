"""The benchmark's traced run still binds to the package.

perfbench/tracer.py wraps the package's public functions and methods by
name, wraps the operators `subset_operators` returns, and wraps the
backward closure of each autograd op's output. A renamed method, an
operator it cannot wrap, or an op argument it cannot bind would break
only the traced benchmark run, which takes minutes; this runs the same
bindings on a small OSEM, one small projector build and one small
training step. The tracer is compiled from its source, so nothing is
written next to it.
"""

import types
from pathlib import Path

import numpy as np
from oracles import stored_matrix

import sinoquad
import sinoquad.autograd as ag
import sinoquad.unet as unet
from sinoquad.osem import ReconConfig
from sinoquad.projector import get_projector, project
from sinoquad.simulate import shepp_logan
from sinoquad.unet import UNet, UNetConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_osem_records_projector_spans():
    size, n_views = 36, 16
    sino = project(shepp_logan(size), n_angles=n_views)
    cfg = ReconConfig(n_subsets=4, n_iterations=1, image_size=size)
    proj = get_projector(size, size, n_views)
    osem = sinoquad.osem
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        sinoquad.osem(sino, cfg)
        sinoquad.osem(sino, cfg)
    finally:
        tracer.uninstall()
    assert sinoquad.osem is osem

    operators = [proj.subset_operators(np.arange(k, n_views, 4))[0] for k in range(4)]
    restricted = [op.nnz for op in operators]
    # the stored rows read, over the field of view only: subset k reads stored views k and k + 4
    full = stored_matrix(proj)
    for k, op in enumerate(operators):
        rows = (np.array([k, k + 4])[:, None] * 2 * size + np.arange(2 * size)).ravel()
        assert 0 < op.factors[1].nnz < full[rows].nnz
    roots = [s for s in tracer.spans if s[2] == "osem.osem"]
    assert len(roots) == 2
    for root in roots:
        children = [s for s in tracer.spans if s[1] == root[0]]
        names = {s[2] for s in children}
        assert {"projector.subset_operators", "projector.forward", "projector.adjoint"} <= names
        products = [s for s in children if s[2] in ("projector.forward", "projector.adjoint")]
        assert all(s[5]["nnz"] > 0 for s in products)
        # one forward per subset per iteration, each over the field of view's pixels only
        assert [s[5]["nnz"] for s in children if s[2] == "projector.forward"] == restricted
    # a projector without a `matrix` attribute: its operator over every view
    assert tracer_module.nnz([proj]) == proj.subset_operators(range(n_views))[0].nnz
    assert tracer_module.stored_mb([proj]) > 0.0


def test_traced_projector_miss_records_one_build_span():
    # a geometry no other test builds, so the first call is a cache miss;
    # called through the package, as the benchmark's workloads call it
    geometry = (32, 32, 32, 3.75)
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        proj = sinoquad.get_projector(*geometry)
        first = len(tracer.spans)
        assert sinoquad.get_projector(*geometry) is proj
    finally:
        tracer.uninstall()

    builds = [s for s in tracer.spans if s[2] == "projector.build"]
    (build,) = builds
    assert build[0] < first  # the repeat call records no build
    assert build[5] == {"views": 32}
    assert tracer.spans[build[1]][2] == "projector.get"
    assert [s[2] for s in tracer.spans[first:]] == ["projector.get"]

    figures, _, _ = tracer_module.summarize(tracer.spans, "bench.item")
    assert figures["projector.build_s.32v"] == build[4] - build[3] > 0.0
    assert figures["projector.builds"] == 1.0
    assert figures["projector.cache_hit_ratio"] == 0.5


def test_traced_train_step_records_autograd_spans():
    rng = np.random.default_rng(0)
    x = rng.random((2, 1, 16, 64), dtype=np.float32)
    target = rng.random((2, 1, 64, 64), dtype=np.float32)
    model = UNet(UNetConfig(base_channels=2), seed=0)
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        out = model.forward(x, training=True)
        ag.mse_loss(out, ag.Tensor(target)).backward()
        ag.adam_step(model.parameters())
        # the network fuses each ReLU into its conv2d, so relu is called here
        act = ag.relu(ag.Tensor(target - 0.5, requires_grad=True))
        act.backward(np.ones_like(act.data))
    finally:
        tracer.uninstall()

    names = {s[2] for s in tracer.spans}
    for op in tracer_module.AUTOGRAD_OPS:
        assert {f"autograd.{op}.fwd", f"autograd.{op}.bwd"} <= names, op
    assert {"autograd.backward", "autograd.adam_step", "unet.forward"} <= names
    conv = [s for s in tracer.spans if s[2] in ("autograd.conv2d.fwd", "autograd.conv2d.bwd")]
    assert conv and all(s[5]["flop"] > 0 for s in conv)
    # one conv2d span per conv layer, so a fused ReLU's time is inside its conv's spans
    conv_layers = [name for name, _ in unet._layer_table(model.config)
                   if name.endswith("_w") and "convt" not in name]
    assert sum(s[2] == "autograd.conv2d.fwd" for s in tracer.spans) == len(conv_layers) == 23
    assert sum(s[2] == "autograd.relu.fwd" for s in tracer.spans) == 1
