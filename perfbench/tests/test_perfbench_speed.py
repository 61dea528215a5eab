import pytest

import speed


def test_scale_is_one_at_the_reference_speed():
    assert speed.scale([speed.REF_S, speed.REF_S]) == pytest.approx(1.0)


def test_a_slower_machine_shrinks_raw_times():
    # The kernel took twice as long on average: raw seconds count half.
    assert speed.scale([2 * speed.REF_S]) == pytest.approx(0.5)
    assert speed.scale([speed.REF_S, 3 * speed.REF_S]) == pytest.approx(0.5)


def test_a_reading_is_a_positive_time():
    assert speed.reference_s() > 0
