import io
import math

import numpy as np
import pytest

from bosonbunch import (
    UnitaryMatrix,
    haar_unitary,
    sampling_cost_bounds,
    scaling_report,
    trace_sample,
    write_scaling_csv,
)
from bosonbunch.validate import CSV_COLUMNS, LOWER_ENVELOPE_SLACK_LOG2, _sample_envelope

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


def test_bunching_speeds_up_sampling():
    # equal boson count: unit density bunches more and must cost fewer
    # gray steps on average than quarter density
    n_bosons = 14
    def mean_gray(m_ports, seed0):
        totals = []
        for s in range(30):
            u = haar_unitary(m_ports, seed=seed0 + s)
            _, ops = trace_sample(u, n_bosons, seed=s)
            totals.append(ops.gray_steps)
        return float(np.mean(totals))

    assert mean_gray(n_bosons, 800) < mean_gray(4 * n_bosons, 900)


def test_scaling_report_empty():
    assert scaling_report([], lambda n: n, 5, seed=1) == []


@pytest.mark.parametrize("field", ["samples_per_point", "seed"])
@pytest.mark.parametrize("value", [1.5, "2", -1])
def test_scaling_report_rejects_bad_counts(field, value):
    kwargs = {"samples_per_point": 2, "seed": 1, field: value}
    with pytest.raises(ValueError, match=f"^{field} must"):
        scaling_report([4], lambda n: n, **kwargs)


def test_scaling_report_zero_samples_gives_nan_rows():
    (row,) = scaling_report([4], lambda n: n, 0, seed=1)
    assert math.isnan(row["mean_log2_ops"]) and math.isnan(row["mean_gray_steps"])
    assert scaling_report([4], lambda n: n, 2.0, seed=1.0) == scaling_report([4], lambda n: n, 2, seed=1)


def test_scaling_report_columns_and_csv():
    rows = scaling_report([6, 8], lambda n: 2 * n, 5, seed=3)
    assert len(rows) == 2
    for column in CSV_COLUMNS:
        assert column in rows[0]
    assert rows[0]["N"] == 6 and rows[0]["M"] == 12
    assert rows[0]["t1_lower_log2"] <= rows[0]["t1_upper_log2"]
    buf = io.StringIO()
    write_scaling_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def test_scaling_report_approaches_no_collision_baseline():
    n_bosons = 10
    rows = []
    for m_ports in (n_bosons, 4 * n_bosons, 16 * n_bosons):
        rows.extend(scaling_report([n_bosons], lambda n: m_ports, 20, seed=9 + m_ports))
    means = [row["mean_gray_steps"] for row in rows]
    assert means[0] < means[1] < means[2]
    # collision-free limit: one evaluation's gray steps approach 2^(N-1)
    assert math.log2(means[2]) > n_bosons - 3


def test_scaling_report_refuses_infeasible_points():
    with pytest.raises(ValueError, match="op units"):
        scaling_report([40], lambda n: n, 1, seed=1)
