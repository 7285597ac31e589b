import math

import numpy as np
import pytest

from bosonbunch import (
    SampleOps,
    UnitaryMatrix,
    draw_sample_counted,
    haar_unitary,
    sampling_cost_bounds,
    trace_sample,
    validate,
)
from bosonbunch.validate import LOWER_ENVELOPE_SLACK_LOG2, _sample_envelope

BEAMSPLITTER = UnitaryMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_trace_sample_basics():
    u = haar_unitary(5, seed=5)
    seq, ops = trace_sample(u, 1, seed=0)
    assert ops.gray_steps == 0
    assert ops.per_step_gray == (0,)
    assert sum(seq.configuration(5)) == 1

    # a bunched beamsplitter prefix degenerates to the single-product path
    _, ops = trace_sample(BEAMSPLITTER, 2, seed=0)
    assert ops.per_step_gray == (0, 0)


@pytest.mark.parametrize("seed", [1.5, "3"])
def test_trace_sample_rejects_bad_seeds(seed):
    with pytest.raises(ValueError, match="^seed must"):
        trace_sample(haar_unitary(5, seed=5), 2, seed=seed)


@pytest.mark.parametrize("seed", [2.0, np.int64(2)])
def test_trace_sample_integer_valued_seed_draws_like_int(seed):
    u = haar_unitary(5, seed=5)
    seq, ops = trace_sample(u, 3, seed=seed)
    assert (seq, ops) == trace_sample(u, 3, seed=2)
    assert seq.seed == 2


def test_trace_sample_respects_realized_envelope():
    # the internal consistency check raises on violation, so surviving many
    # draws is the assertion; verify the envelope numbers directly as well
    for s in range(60):
        u = haar_unitary(8, seed=600 + s)
        seq, ops = trace_sample(u, 8, seed=s)
        lower, upper = _sample_envelope(8, 8, seq.configuration(8))
        assert ops.op_units <= upper
        assert ops.op_units * 2**LOWER_ENVELOPE_SLACK_LOG2 >= lower


@pytest.mark.parametrize("row_ops", [0, 10**12])
def test_trace_sample_refuses_counters_outside_the_envelope(row_ops, monkeypatch):
    u = haar_unitary(5, seed=5)
    seq, ops = draw_sample_counted(u, 3, seed=0)
    escaped = SampleOps(ops.per_step_gray, row_ops=row_ops, weight_ops=0)
    monkeypatch.setattr(validate, "draw_sample_counted", lambda *args: (seq, escaped))
    with pytest.raises(RuntimeError, match=f"^sample op units {row_ops} escaped the realized envelope"):
        trace_sample(u, 3, seed=0)


def test_trace_sample_within_sampling_bounds_envelope():
    # exponent-level comparison against the epsilon = 0.01 bound report;
    # the bound itself may fail for about that fraction of unitaries
    n_bosons = n_ports = 10
    report = sampling_cost_bounds(n_bosons, n_ports, 0.01)
    outside = 0
    for s in range(100):
        u = haar_unitary(n_ports, seed=700 + s)
        _, ops = trace_sample(u, n_bosons, seed=s)
        exponent = math.log2(ops.op_units)
        if not (
            report.sample_lower_log2 - LOWER_ENVELOPE_SLACK_LOG2
            <= exponent
            <= report.sample_upper_log2
        ):
            outside += 1
    assert outside <= 4  # 1% expected failures plus generous statistical room


def _mean_gray_steps(n_bosons, m_ports, seed0, draws):
    totals = []
    for s in range(draws):
        u = haar_unitary(m_ports, seed=seed0 + s)
        _, ops = trace_sample(u, n_bosons, seed=s)
        totals.append(ops.gray_steps)
    return float(np.mean(totals))


def test_bunching_speeds_up_sampling():
    # at equal boson count, denser ports bunch more and cost fewer gray steps
    # on average; toward the collision-free limit the total over the chain's
    # steps approaches 2^(N-1)
    n_bosons = 14
    means = [_mean_gray_steps(n_bosons, m_ports, seed0, 30)
             for m_ports, seed0 in ((14, 800), (56, 900))]
    assert means[0] < means[1], means
    assert math.log2(means[-1]) > n_bosons - 3


def test_scaling_report_approaches_no_collision_baseline():
    # N = 10 from unit to sixteenfold port density: the mean gray steps rise
    # with M, and the sparsest nears the collision-free 2^(N-1)
    n_bosons = 10
    means = [_mean_gray_steps(n_bosons, m_ports, seed0, 20)
             for m_ports, seed0 in ((10, 1000), (40, 1100), (160, 1200))]
    assert means[0] < means[1] < means[2], means
    assert math.log2(means[2]) > n_bosons - 3
