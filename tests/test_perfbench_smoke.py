"""Each benchmark workload makes its inputs, runs one op and passes its checks,
so that a library change which breaks the benchmark's calls fails here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ unwritten
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["arch_pair", "gap_scan", "ua_oracle", "torsion"])
def test_one_op_passes_its_checks(workloads, name):
    workload = workloads[name]
    inp = workload.generate(11)[0]
    out = workload.op(inp)
    assert workload.check(inp, out) is None
    assert workload.finish([inp], [out]) == []


def test_every_workload_is_smoked(workloads):
    assert sorted(workloads) == ["arch_pair", "gap_scan", "torsion", "ua_oracle"]
