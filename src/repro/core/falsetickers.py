"""Warm-up false-ticker rejection.

Following "the philosophy of NTP's clock selection heuristic", the
warm-up phase queries three pool servers in parallel and rejects the
sources whose offsets exceed the population mean plus one standard
deviation (§4.2).  The deviation is measured as distance from the mean,
so a source that is wrong in either direction is caught; this matches
the heuristic's intent (NTP's own intersection algorithm is symmetric).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Dict, List


@dataclass(frozen=True)
class FalseTickerVerdict:
    """Result of one rejection round.

    Attributes:
        accepted: Surviving (source, offset) pairs.
        rejected: Sources classified as false tickers.
        combined_offset: Mean of the surviving offsets.
    """

    accepted: Dict[str, float]
    rejected: List[str]
    combined_offset: float


def _mean(values: List[float]) -> float:
    # A left-to-right sum from +0.0 gives numpy's bits below its 8-wide
    # pairwise block, so a vote over a few sources matches
    # ``np.mean``/``np.std`` exactly.  Not ``sum()``: it compensates
    # from Python 3.12 on.
    return reduce(operator.add, values, 0.0) / len(values)


def reject_false_tickers(offsets_by_source: Dict[str, float]) -> FalseTickerVerdict:
    """Classify sources and combine the survivors.

    Args:
        offsets_by_source: One offset per responding source.

    Raises:
        ValueError: With an empty input.

    With a single source there is nothing to vote against, so it is
    accepted as-is.  With ≥2 sources, a source is a false ticker when
    ``|offset - mean| > std``; if the rule would reject everything (all
    sources equidistant), all are kept — rejecting the full population
    would deadlock the warm-up.
    """
    if not offsets_by_source:
        raise ValueError("need at least one source offset")
    if len(offsets_by_source) == 1:
        ((source, offset),) = offsets_by_source.items()
        return FalseTickerVerdict(
            accepted={source: offset}, rejected=[], combined_offset=offset
        )
    values = list(offsets_by_source.values())
    mean = _mean(values)
    std = math.sqrt(_mean([(v - mean) * (v - mean) for v in values]))
    accepted: Dict[str, float] = {}
    rejected: List[str] = []
    for source, offset in offsets_by_source.items():
        if std > 0 and abs(offset - mean) > std:
            rejected.append(source)
        else:
            accepted[source] = offset
    if not accepted:
        accepted = dict(offsets_by_source)
        rejected = []
    combined = _mean(list(accepted.values()))
    return FalseTickerVerdict(
        accepted=accepted, rejected=rejected, combined_offset=combined
    )
