"""``tools/pair_time.py``'s verdict on fixed samples, with no subprocess: a
gain needs at least ten pairs, the change lower in nine tenths of them, ties
counting for neither side, and a median gap wider than the parent's quartile
spread."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pair_time.py"
_spec = importlib.util.spec_from_file_location("pair_time", TOOL)
pair_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_time)

# median 1.09; quartiles 1.035 and 1.145 by statistics.quantiles' default
# (exclusive) method, so the spread is 0.11
PARENT = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]


def test_medians_spread_and_lower_count():
    change = [p - 0.2 for p in PARENT]
    change[0] = PARENT[0]   # a tie counts for neither side
    v = pair_time.verdict(PARENT, change)
    assert (v["parent"], v["change"], v["spread"]) == pytest.approx((1.09, 0.91, 0.11))
    assert (v["lower"], v["pairs"], v["gain"]) == (9, 10, True)


@pytest.mark.parametrize("change,gain", [
    ([p - 0.2 for p in PARENT], True),
    # lower in 8 of 10 pairs: two ties
    (PARENT[:2] + [p - 0.2 for p in PARENT[2:]], False),
    # lower in every pair, but by 0.1, inside the spread of 0.11
    ([p - 0.1 for p in PARENT], False),
    # higher in every pair
    ([p + 0.2 for p in PARENT], False),
], ids=["10-of-10-wide", "8-of-10", "10-of-10-inside-spread", "slower"])
def test_gain_needs_nine_tenths_and_a_gap_past_the_spread(change, gain):
    assert pair_time.verdict(PARENT, change)["gain"] is gain


def test_nine_tenths_of_twenty_pairs_is_eighteen():
    parent = PARENT + [p + 0.2 for p in PARENT]
    change = [p - 1.0 for p in parent]
    assert pair_time.verdict(parent, change)["gain"]
    change[:3] = parent[:3]   # 17 of 20
    assert not pair_time.verdict(parent, change)["gain"]


def test_fewer_than_ten_pairs_make_no_gain():
    parent = PARENT[:9]
    assert not pair_time.verdict(parent, [p - 1.0 for p in parent])["gain"]
