"""Tests of the benchmark's span arithmetic and its ``-X importtime`` parser.

Run from the root of a checkout:  python3 -m pytest perfbench/test_spans.py
"""

import pytest

from spans import Span, aggregate, parse_importtime, self_times, untraced_remainder


def _span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, run=0)


# cli.main [0, 10] holds galerkin [1, 3] and minimal [4, 9]; minimal holds
# two constraint_matrix calls [4.5, 6] and [6, 8.5].  A second root span
# [11, 12] lies outside cli.main.
SPANS = [
    _span(0, "cli.main", 0.0, 10.0),
    _span(1, "transfer.galerkin_matrix", 1.0, 3.0, parent=0),
    _span(2, "control.minimal_norm_control", 4.0, 9.0, parent=0),
    _span(3, "control.constraint_matrix", 4.5, 6.0, parent=2),
    _span(4, "control.constraint_matrix", 6.0, 8.5, parent=2),
    _span(5, "fourier.dft", 11.0, 12.0),
]


def test_self_times_exclude_children():
    selfs = self_times(SPANS)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 2.5, 5: 1.0})


def test_self_times_of_a_subtree_add_up_to_its_root():
    selfs = self_times(SPANS)
    assert sum(selfs[i] for i in range(5)) == pytest.approx(SPANS[0].duration)
    assert selfs[2] + selfs[3] + selfs[4] == pytest.approx(SPANS[2].duration)


def test_self_times_plus_untraced_remainder_add_up_to_the_measured_interval():
    start, end = -0.5, 13.0
    remainder = untraced_remainder(SPANS, start, end)
    assert remainder == pytest.approx(2.5)
    assert sum(self_times(SPANS).values()) + remainder == pytest.approx(end - start)


def test_aggregate_sums_calls_and_does_not_double_count_recursion():
    nested = SPANS + [_span(6, "control.constraint_matrix", 7.0, 8.0, parent=4)]
    agg = aggregate(nested)
    entry = agg["control.constraint_matrix"]
    assert entry["calls"] == 3
    assert entry["s"] == pytest.approx(1.5 + 2.5)
    assert entry["self_s"] == pytest.approx(1.5 + 1.5 + 1.0)
    assert agg["cli.main"]["s"] == pytest.approx(10.0)


# An excerpt, in its original order, of one recorded run of
# python3 -X importtime -c "import linresp" (numpy 2.4.6, scipy 1.17.1).
IMPORTTIME_SAMPLE = """\
import time: self [us] | cumulative | imported package
import time:      2258 |      53022 | site
import time:       555 |      40449 |       numpy.lib
import time:      2311 |     102063 |     numpy
import time:      9469 |       9469 |     linresp.fourier
import time:      6951 |       6951 |       linresp.maps
import time:      4921 |       4921 |       linresp.transfer
import time:      3013 |      14884 |     linresp.response
import time:      6456 |     145556 |   linresp.control
import time:      2377 |       2377 |   linresp.doubling
import time:       648 |      16557 |       scipy
import time:       382 |       6703 |                 numpy.polynomial
import time:       835 |     286307 |     scipy.sparse
import time:      3305 |     289612 |   linresp.verify
import time:       943 |     438486 | linresp
"""


def test_parse_importtime_reads_a_recorded_sample():
    parsed = parse_importtime(IMPORTTIME_SAMPLE)
    assert parsed["total_s"] == pytest.approx(0.438486)
    assert parsed["numpy_s"] == pytest.approx(0.102063)
    # scipy and numpy.polynomial are nested inside scipy.sparse: both count as scipy's
    assert parsed["scipy_s"] == pytest.approx(0.286307)
    linresp_self = 9469 + 6951 + 4921 + 3013 + 6456 + 2377 + 3305 + 943
    assert parsed["linresp_self_s"] == pytest.approx(linresp_self * 1e-6)
