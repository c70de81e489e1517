"""Self-tests: scaling times to the nominal speed of the reference samples."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import speed  # noqa: E402


def fake(values):
    values = iter(values)
    return speed.Reference(sample=lambda: next(values))


def test_step_scale_uses_samples_before_during_and_after_it():
    nominal = speed.NOMINAL_S
    reference = fake([nominal, 2 * nominal, 3 * nominal, 2 * nominal])
    mark = reference.mark()
    reference.sample()  # taken while the step's child was paused
    reference.sample()
    # A core at half speed doubles the sample time; the step's time is halved back.
    assert reference.factor_since(mark) == pytest.approx(nominal / (8 * nominal / 4))
    assert reference.samples == [nominal, 2 * nominal, 3 * nominal, 2 * nominal]


def test_consecutive_steps_share_the_sample_between_them():
    nominal = speed.NOMINAL_S
    reference = fake([nominal, nominal, 4 * nominal])
    assert reference.factor_since(reference.mark()) == pytest.approx(1.0)
    assert reference.factor_since(reference.mark()) == pytest.approx(2 / 5)


def test_reference_sample_takes_positive_time():
    reference = speed.Reference()
    assert len(reference.samples) == 1 and reference.samples[0] > 0.0
