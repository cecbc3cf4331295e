"""The benchmark's traced run still binds to the package.

perfbench/tracer.py wraps the package's public functions and methods by
name, and wraps the operators `subset_operators` returns. A renamed
method or an operator it cannot wrap would break only the traced
benchmark run, which takes minutes; this runs the same bindings on a
small OSEM. The tracer is compiled from its source, so nothing is
written next to it.
"""

import types
from pathlib import Path

import sinoquad
from sinoquad.osem import ReconConfig
from sinoquad.projector import project
from sinoquad.simulate import shepp_logan

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_osem_records_projector_spans():
    sino = project(shepp_logan(32), n_angles=16)
    osem = sinoquad.osem
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        sinoquad.osem(sino, ReconConfig(n_subsets=4, n_iterations=1, image_size=32))
    finally:
        tracer.uninstall()
    assert sinoquad.osem is osem

    (root,) = [s for s in tracer.spans if s[2] == "osem.osem"]
    children = [s for s in tracer.spans if s[1] == root[0]]
    names = {s[2] for s in children}
    assert {"projector.subset_operators", "projector.forward", "projector.adjoint"} <= names
    products = [s for s in children if s[2] in ("projector.forward", "projector.adjoint")]
    assert all(s[5]["nnz"] > 0 for s in products)
