"""The benchmark's workloads, run once through the package as imported here.

perfbench/ drives the package from outside and changes only with the
benchmark, so a package change that renames or drops a name it reads shows
here.  Its modules are loaded from their files as they stand.  The package
handed to them is the one the tests already imported: perfbench/run.py's
load_package would import it again and split class identity for the tests
that follow.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import zccs
import zccs.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NAMES = ("sweep", "long_chain", "qary", "mutants")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    return load("workloads"), load("spans")


@pytest.mark.parametrize("name", NAMES)
def test_every_operation_and_probe_is_correct(perfbench, name, tmp_path):
    workloads, spans = perfbench
    assert set(workloads.WORKLOADS) == set(NAMES)
    tracer = spans.NullTracer()
    workload = workloads.WORKLOADS[name](zccs, tracer, random.Random(1), tmp_path)
    runner = workloads.Runner(zccs, zccs.cli, tracer, tmp_path)
    operations = [*workload.ops, *workload.probes]
    assert operations
    assert [runner.run(op) for op in operations] == [None] * len(operations)
