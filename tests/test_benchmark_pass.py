"""One checked pass of each benchmark workload, as ``perfbench/run.py`` makes it.

The benchmark calls floatlab by name (``cli._build``, ``preset_state``,
``care_solve(method=, tol=, alpha0=)``, ``HalfLineFunction``,
``resolvent_apply`` and more) and checks every output apart from
floatlab.  This runs its workloads' own operations and checks at seed 1,
importing ``perfbench`` read-only, so a change that breaks a name the
benchmark uses fails here and not only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        yield importlib.import_module("workloads").WORKLOADS


NAMES = ["lqr-heave", "simulate-bump", "resolvent-halfline"]


def test_every_workload_is_run(workloads):
    assert sorted(workloads) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_one_pass_has_no_failed_operation(workloads, name, tmp_path):
    workload = workloads[name](1)
    results = {op: fn() for op, fn in workload.operations(tmp_path)}
    verdicts = workload.check(results, tmp_path)
    assert verdicts.keys() == results.keys()
    assert not {op: reasons for op, reasons in verdicts.items() if reasons}
