"""Host-speed normalisation: tick parsing, the speed factor and the samplers."""

import os
import time

import pytest

from speed import PAD_S, REFERENCE_KERNEL_S, Samplers, read_ticks, speed_factor


def test_speed_factor_uses_the_median_tick_of_the_padded_interval():
    k = REFERENCE_KERNEL_S
    ticks = [
        (10.0 - PAD_S - 0.01, 100 * k),  # before the padded interval
        (10.0 - PAD_S / 2, 2 * k),  # in the padding
        (11.0, 2 * k),
        (12.0, 4 * k),
        (13.0 + PAD_S + 0.01, 100 * k),  # after it
    ]
    assert speed_factor(10.0, 13.0, ticks) == pytest.approx(0.5)


def test_a_slower_host_scales_a_sample_down():
    fast = [(t / 10, REFERENCE_KERNEL_S) for t in range(100)]
    slow = [(t, 2 * k) for t, k in fast]
    assert 4.0 * speed_factor(1.0, 5.0, fast) == pytest.approx(4.0)
    assert 8.0 * speed_factor(1.0, 5.0, slow) == pytest.approx(4.0)


def test_no_ticks_is_an_error_not_a_guess():
    with pytest.raises(RuntimeError):
        speed_factor(1.0, 2.0, [(10.0, REFERENCE_KERNEL_S)])


def test_read_ticks_skips_a_line_cut_short(tmp_path):
    path = tmp_path / "ticks.txt"
    path.write_text("1.5 0.004\n2.0 0.005\n2.5 0.0\n3.0\n")
    assert read_ticks(path) == [(1.5, 0.004), (2.0, 0.005), (2.5, 0.0)]


def test_samplers_tick_and_stop(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    with Samplers([cpu], tmp_path) as samplers:
        time.sleep(1.0)
    assert all(proc.poll() is not None for proc in samplers.procs)
    ticks = samplers.ticks()
    assert ticks and all(k > 0 for _, k in ticks)
