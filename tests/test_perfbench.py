"""Smoke tests of the benchmark in perfbench/: one short traced run per
workload passes every output check, and the self-test catches every
perturbation. A traced run swaps in timed versions of the names the
benchmark patches (`trainer.Tape`, reading its `_ops`, `trainer._FlatAdam`
and its `step`, `trainer.evaluate_loss`, `trainer.make_folds`), so these
tests also guard those names."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

pytestmark = pytest.mark.slow


def run_script(*args: str) -> list[str]:
    """stdout lines of a perfbench script, which must exit 0."""
    done = subprocess.run([sys.executable, str(BENCH / args[0]), *args[1:]],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()


@pytest.mark.parametrize("workload", ["paper-default", "wide-ontology", "bulk-scoring"])
def test_traced_run_is_correct(workload):
    lines = run_script("run.py", "--workload", workload, "--seed", "0",
                       "--seconds", "1", "--trace", "1")
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] > 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trainer.steps.omtl"] > 0
    # the monitor still runs through trainer.evaluate_loss, and a step
    # records the experts, the mixture, the representations and the loss
    # (omtl phase 2 only the last two, its experts frozen)
    for variant, ops in (("omtl", 3.0), ("mmoe", 4.0), ("sb", 4.0)):
        assert metrics[f"trainer.monitor_s.{variant}"] > 0
        assert metrics[f"tensor.ops_per_step.{variant}"] == ops


def test_selftest_catches_every_perturbation():
    last = run_script("selftest.py")[-1]
    caught, _, total = last.split()[:3]
    assert last.endswith("perturbations caught") and caught == total, last
