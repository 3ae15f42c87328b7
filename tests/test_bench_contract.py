"""The grs4 names that the benchmark under perfbench/ wraps or calls.

perfbench's tracer wraps grs4 entry points by name, and its workloads build
their inputs through the public API (the mesh workload takes its oracle's
reference from the per-point MeridianFamily.jet).  Deleting or renaming one
of those names breaks a traced benchmark run with an AttributeError.  These
tests install the tracer and construct every workload, with no timed pass,
so such a change fails here first.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402
from grs4 import surfaces  # noqa: E402


def test_tracer_installs_and_uninstalls():
    frames = surfaces.frames
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert surfaces.frames is not frames
    finally:
        tracer.uninstall()
    assert surfaces.frames is frames


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_constructs(tmp_path, name):
    workload = workloads.WORKLOADS[name](31, str(tmp_path))
    assert workload.items > 0
