"""Warm-up false-ticker rejection."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.falsetickers import FalseTickerVerdict, reject_false_tickers


def test_empty_rejected():
    with pytest.raises(ValueError):
        reject_false_tickers({})


def test_single_source_accepted_as_is():
    verdict = reject_false_tickers({"a": 0.5})
    assert verdict.accepted == {"a": 0.5}
    assert verdict.rejected == []
    assert verdict.combined_offset == 0.5


def test_obvious_outlier_rejected():
    verdict = reject_false_tickers({"a": 0.001, "b": 0.002, "liar": 0.400})
    assert "liar" in verdict.rejected
    assert set(verdict.accepted) == {"a", "b"}
    assert verdict.combined_offset == pytest.approx(0.0015)


def test_negative_outlier_rejected_too():
    verdict = reject_false_tickers({"a": 0.001, "b": 0.002, "liar": -0.400})
    assert "liar" in verdict.rejected


def test_identical_offsets_all_accepted():
    verdict = reject_false_tickers({"a": 0.01, "b": 0.01, "c": 0.01})
    assert verdict.rejected == []
    assert verdict.combined_offset == pytest.approx(0.01)


def test_never_rejects_everything():
    # Two sources exactly 1 sigma apart in a symmetric pair: the rule
    # could fire on both; the guard keeps the population.
    verdict = reject_false_tickers({"a": -1.0, "b": 1.0})
    assert verdict.accepted


def test_combined_is_mean_of_survivors():
    verdict = reject_false_tickers({"a": 0.0, "b": 0.002, "c": 0.004, "liar": 1.0})
    assert verdict.combined_offset == pytest.approx(
        sum(verdict.accepted.values()) / len(verdict.accepted)
    )


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=4),
        st.floats(-1.0, 1.0),
        min_size=1,
        max_size=8,
    )
)
def test_invariants_property(offsets):
    verdict = reject_false_tickers(offsets)
    assert set(verdict.accepted) | set(verdict.rejected) == set(offsets)
    assert set(verdict.accepted) & set(verdict.rejected) == set()
    assert verdict.accepted  # never empty
    lo, hi = min(offsets.values()), max(offsets.values())
    assert lo - 1e-9 <= verdict.combined_offset <= hi + 1e-9


def _numpy_reference(offsets_by_source):
    """The vote computed with numpy ``mean``/``std``, as it was first written."""
    if len(offsets_by_source) == 1:
        ((source, offset),) = offsets_by_source.items()
        return FalseTickerVerdict({source: offset}, [], offset)
    values = np.asarray(list(offsets_by_source.values()))
    mean = float(values.mean())
    std = float(values.std())
    accepted, rejected = {}, []
    for source, offset in offsets_by_source.items():
        if std > 0 and abs(offset - mean) > std:
            rejected.append(source)
        else:
            accepted[source] = offset
    if not accepted:
        accepted, rejected = dict(offsets_by_source), []
    return FalseTickerVerdict(
        accepted, rejected, float(np.mean(list(accepted.values())))
    )


_magnitude = st.integers(-6, 1).map(lambda e: 10.0**e)
_offset = st.builds(
    lambda sign, mantissa, scale: sign * mantissa * scale,
    st.sampled_from((-1.0, 1.0)), st.floats(0.0, 9.99), _magnitude,
)


@given(st.lists(_offset, min_size=2, max_size=7))
def test_matches_numpy_reference_bit_for_bit(values):
    offsets = {f"s{i}": v for i, v in enumerate(values)}
    got = reject_false_tickers(offsets)
    want = _numpy_reference(offsets)
    assert got == want
    assert got.combined_offset.hex() == want.combined_offset.hex()
