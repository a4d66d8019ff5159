import pytest

from stats import MIN_TAIL_SAMPLES, median, percentile, tail_percentile


def test_percentile_is_an_observed_sample():
    samples = [0.5, 2.0, 9.0, 1.0]
    for q in (1, 25, 50, 75, 99, 100):
        assert percentile(samples, q) in samples


def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("bad", [0, -1, 100.5])
def test_percentile_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        percentile([1.0], bad)


def test_p99_needs_ten_samples_beyond_it():
    # 999 samples leave 9 beyond p99; 1000 leave exactly 10.
    assert tail_percentile(list(range(999)), 99) is None
    assert tail_percentile(list(range(1000)), 99) == 989
    assert tail_percentile(list(range(1160)), 99) == percentile(list(range(1160)), 99)
    assert MIN_TAIL_SAMPLES == 10


def test_p50_of_a_small_sample():
    # 20 samples: rank 10, ten beyond it; 19 samples: rank 10, nine beyond.
    assert tail_percentile(list(range(20)), 50) == 9
    assert tail_percentile(list(range(19)), 50) is None
    assert tail_percentile([], 50) is None


def test_median_even_and_odd():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_steal_reading_is_monotone_or_absent():
    from stats import steal_seconds

    a = steal_seconds()
    b = steal_seconds()
    assert (a is None and b is None) or 0.0 <= a <= b
