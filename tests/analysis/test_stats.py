"""Unit tests for summary statistics and confidence intervals."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    confidence_interval,
    jain_fairness_index,
    mean,
    relative_half_width,
    sample_stddev,
    sample_variance,
    standard_error,
    summarize,
)
from repro.errors import ExperimentError

samples = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False), min_size=2, max_size=40
)


class TestBasicStatistics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_variance_and_stddev(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        assert sample_variance(values) == pytest.approx(np.var(values, ddof=1))
        assert sample_stddev(values) == pytest.approx(np.std(values, ddof=1))

    def test_single_value_has_zero_variance(self):
        assert sample_variance([3.0]) == 0.0

    def test_standard_error(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert standard_error(values) == pytest.approx(np.std(values, ddof=1) / 2.0)

    def test_requires_values(self):
        with pytest.raises(ExperimentError):
            mean([])


class TestConfidenceIntervals:
    def test_interval_contains_mean(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        low, high = confidence_interval(values)
        assert low < mean(values) < high

    def test_known_t_interval(self):
        values = [10.0, 12.0, 14.0, 16.0, 18.0]
        low, high = confidence_interval(values, confidence=0.95)
        # t(0.975, df=4) = 2.776; se = sqrt(variance / n) = sqrt(10 / 5)
        half = 2.7764451051977987 * math.sqrt(2.0)
        assert low == pytest.approx(14.0 - half)
        assert high == pytest.approx(14.0 + half)

    def test_single_sample_degenerates(self):
        assert confidence_interval([5.0]) == (5.0, 5.0)
        assert relative_half_width([5.0]) == 0.0

    def test_zero_variance(self):
        assert confidence_interval([2.0, 2.0, 2.0]) == (2.0, 2.0)

    def test_wider_at_higher_confidence(self):
        values = [1.0, 3.0, 2.0, 5.0, 4.0]
        low95, high95 = confidence_interval(values, 0.95)
        low99, high99 = confidence_interval(values, 0.99)
        assert high99 - low99 > high95 - low95

    def test_confidence_validation(self):
        with pytest.raises(ExperimentError):
            confidence_interval([1.0, 2.0], confidence=1.5)

    def test_relative_half_width(self):
        values = [10.0, 10.5, 9.5, 10.2, 9.8]
        assert relative_half_width(values) == pytest.approx(
            (confidence_interval(values)[1] - mean(values)) / mean(values)
        )


class TestSummarize:
    def test_fields(self):
        values = [1.0, 2.0, 3.0, 4.0]
        summary = summarize(values)
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.ci_low <= summary.mean <= summary.ci_high
        assert summary.ci_half_width == pytest.approx((summary.ci_high - summary.ci_low) / 2)
        assert summary.relative_half_width == pytest.approx(summary.ci_half_width / 2.5)

    @given(samples)
    @settings(max_examples=50, deadline=None)
    def test_interval_brackets_mean(self, values):
        summary = summarize(values)
        assert summary.ci_low <= summary.mean + 1e-9
        assert summary.ci_high >= summary.mean - 1e-9
        assert summary.minimum <= summary.mean <= summary.maximum


class TestJainIndex:
    def test_equal_rates_give_one(self):
        assert jain_fairness_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_winner_gives_one_over_n(self):
        assert jain_fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_defined_as_one(self):
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, values):
        index = jain_fairness_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9


def _fresh_interpreter_exit_code(probe: str) -> int:
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", probe], env=env).returncode


def test_importing_the_registry_leaves_scipy_stats_unloaded():
    # ``scipy.stats`` dominates the CLI's cold start; only the Student-t
    # quantile needs it, so it must load lazily (checked in a fresh
    # interpreter, since this one has long imported it).
    probe = (
        "import sys, repro, repro.experiments.registry; "
        "sys.exit('scipy.stats' in sys.modules)"
    )
    assert _fresh_interpreter_exit_code(probe) == 0


@pytest.mark.parametrize("size", [2, 3, 5, 30, 101])
@pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99])
def test_half_width_matches_scipy_stats_t_quantile_exactly(size, confidence):
    # The lazily imported ``stdtrit`` must reproduce ``scipy.stats.t.ppf``
    # bit for bit, or stored confidence intervals would drift.
    from scipy import stats as scipy_stats

    values = [float(v) for v in np.random.default_rng(size).random(size)]
    low, high = confidence_interval(values, confidence=confidence)
    quantile = scipy_stats.t.ppf(0.5 + confidence / 2.0, df=size - 1)
    half_width = float(quantile) * standard_error(values)
    assert (low, high) == (mean(values) - half_width, mean(values) + half_width)
