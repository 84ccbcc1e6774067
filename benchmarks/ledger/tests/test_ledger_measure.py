"""The percentile rule and the /proc readers."""

from __future__ import annotations

import os

import measure
import pytest


@pytest.mark.parametrize(
    ("count", "rank"),
    [
        (108, 98),  # the issue's pooled sample: p90.7, ten samples beyond
        (72, 62),
        (36, 26),
        (20, 10),  # exactly the median: ten beyond, ten up to it
        (15, 8),  # fewer than ten beyond any rank >= the median: the median
        (1, 1),
    ],
)
def test_tail_rank_keeps_ten_samples_beyond(count, rank):
    assert measure.tail_rank(count) == rank
    if count >= 2 * measure.TAIL_MIN_BEYOND:
        assert count - rank == measure.TAIL_MIN_BEYOND


def test_tail_is_never_below_the_p50_reported_beside_it():
    for count in range(1, 130):
        assert measure.tail_rank(count) >= measure.p50_rank(count)
    assert measure.rank_value([5.0, 1.0, 3.0, 4.0], measure.p50_rank(4)) == 3.0


def test_tail_reports_value_and_percentile():
    value, percentile = measure.tail(list(range(100, 0, -1)))
    assert value == 90
    assert percentile == 90.0
    with pytest.raises(ValueError):
        measure.tail([])


def test_stat_parser_survives_spaces_and_parentheses_in_the_command_name():
    # utime=700 stime=50 are the 14th and 15th fields of the whole line.
    line = "4242 (python (cluster) node) S 1 4242 4242 0 -1 4194304 900 0 0 0 700 50 3 4 20 0 1 0 12345 1000 200"
    assert measure.parse_stat_cpu_ticks(line) == 750


def test_cpu_reader_tracks_this_process():
    pid = os.getpid()
    before = measure.cpu_seconds(pid)
    while measure.self_cpu_seconds() < 0.05:
        sum(i * i for i in range(10_000))
    total = 0
    spin_until = measure.self_cpu_seconds() + 0.05
    while measure.self_cpu_seconds() < spin_until:
        total += sum(i * i for i in range(10_000))
    after = measure.cpu_seconds(pid)
    assert before is not None and after is not None
    assert after - before >= 0.03  # 10 ms clock ticks
    assert measure.peak_rss_mb(pid) > 1.0
    assert measure.self_peak_rss_mb() > 1.0


def test_readers_return_none_for_a_process_that_is_gone():
    assert measure.cpu_seconds(2**22 + 12345) is None
    assert measure.peak_rss_mb(2**22 + 12345) is None
