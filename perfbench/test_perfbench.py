"""Tests of the benchmark itself, run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bosonbunch import haar_unitary, permanent_naive, submatrix  # noqa: E402
from run import checked, run_ops, tail  # noqa: E402
from workloads import (  # noqa: E402
    CLASSES, PINNED_SEED, WORKLOADS, glynn_probability, model_states, spread_evenly)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_tampered_probability_is_a_failed_op(tmp_path):
    w = WORKLOADS["prob-haar"](PINNED_SEED, tmp_path)
    _, (occ, p) = w.op(w.input(0), 0, None)
    assert w.check(0, (occ, p), False)
    assert not w.check(0, (occ, p * (1 + 1e-6)), False)


def test_tampered_probability_fails_against_the_computed_reference(tmp_path):
    w = WORKLOADS["prob-haar"](7, tmp_path)
    _, (occ, p) = w.op(w.input(0), 0, None)
    assert w.check(0, (occ, p), False)
    assert not w.check(0, (occ, p * (1 + 1e-6)), False)


def test_changed_sample_port_is_a_failed_op(tmp_path):
    w = WORKLOADS["sample-dense"](PINNED_SEED, tmp_path)
    _, (seq, ops) = w.op(w.input(0), 0, None)
    assert w.check(0, (seq, ops), False)
    ports = list(seq.ports)
    ports[-1] = ports[-1] % w.m + 1  # the last port enters no step's prefix
    tampered = type(seq)(ports=tuple(ports), row_order=seq.row_order, seed=seq.seed)
    assert not w.check(0, (tampered, ops), False)


def test_sample_state_counts_follow_the_realised_prefix(tmp_path):
    w = WORKLOADS["sample-sparse"](3, tmp_path)
    _, (seq, ops) = w.op(w.input(0), 0, None)
    assert w.check(0, (seq, ops), False)
    assert model_states([]) == 0 and model_states([4]) == 0 and model_states([2, 2, 5]) == 2
    wrong = type(ops)(per_step_gray=ops.per_step_gray[:-1] + (ops.per_step_gray[-1] + 1,),
                      row_ops=ops.row_ops, weight_ops=ops.weight_ops)
    assert not w.check(0, (seq, wrong), False)


def test_truncated_cli_stream_is_a_failed_op(tmp_path):
    w = CLASSES["cli-sample"](PINNED_SEED, tmp_path)
    out = w.render()
    assert w.check(0, {"code": 0, "out": out}, False)
    assert not w.check(0, {"code": 0, "out": out[: len(out) // 2]}, False)
    assert not w.check(0, {"code": 0, "out": out.rsplit(b"\n", 2)[0] + b"\n"}, False)
    assert not w.check(0, {"code": 1, "out": out}, False)


class Flaky:
    """A workload whose op 2 returns something else from its third run on."""

    def __init__(self):
        self.runs = {}

    def input(self, i):
        return i

    def op(self, i, _, tracer):
        self.runs[i] = self.runs.get(i, 0) + 1
        return 1e-3 * (i + 1), i + (i == 2 and self.runs[i] >= 3)

    def check(self, i, result, traced):
        return result == i and i != 3

    def same(self, first, again):
        return first == again

    def op_units(self, result):
        return result + 1


def test_repeats_must_return_the_first_result():
    w = Flaky()
    ops, kept, _ = run_ops(w, 0.05, None, 4, 6)
    assert [op.i for op in kept] == [0, 2, 3, 5]
    runs = [len(op.times) for op in ops]
    assert runs[1] == runs[4] == 1 and runs[2] >= 3
    failed = checked(w, ops)
    assert failed[2] == runs[2] - 2  # every run of op 2 from the third on
    assert failed[3] == runs[3]  # all runs of an op whose first result fails its check
    assert failed[0] == failed[1] == failed[4] == failed[5] == 0


def test_spread_evenly_takes_every_stratum():
    keys = [5, 1, 4, 2, 3, 0, 7, 6]
    assert spread_evenly(keys, 4) == [0, 1, 4, 6]  # keys 5, 1, 3, 7: ranks 1, 3, 5, 7
    assert spread_evenly(keys, 8) == list(range(8))


def test_reference_agrees_with_the_permutation_sum():
    u = haar_unitary(5, seed=11)
    occ = np.array([2, 0, 1, 1, 0])
    ports = np.repeat(np.arange(1, 6), occ)
    per = permanent_naive(submatrix(u, range(1, 5), ports))
    exact = abs(per) ** 2 / math.prod(math.factorial(int(c)) for c in occ)
    assert glynn_probability(u, occ) == pytest.approx(exact, rel=1e-12)


def test_tail_keeps_ten_ops_beyond_it():
    assert tail([float(x) for x in range(100)]) == (90.0, 89.0)
    assert tail([3.0, 1.0, 2.0]) == (100 / 3, 1.0)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for cls in CLASSES.values():
        assert set(cls.owns) <= layer_names


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names_match_benchmark_json(trace, key):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sample-dense", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
