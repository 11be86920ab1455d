"""The benchmark workloads, each run once and untimed: every output check passes.

``perfbench/run.py`` times these workloads in child processes and reports a
failed check only as ``outputs_incorrect`` in its JSON line, so a library
change that breaks a workload, or a check that no longer holds, would show
nowhere else.  The module is loaded from its file without writing bytecode,
so nothing under ``perfbench/`` changes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_checks_pass(name, tmp_path):
    setup, run, check = WORKLOADS[name]
    checks = check(run(setup(0), tmp_path))
    assert checks
    failed = [(check_name, detail) for check_name, passed, detail in checks if not passed]
    assert not failed
