"""Experiment result persistence.

Saves :class:`~repro.testbed.experiment.ExperimentResult` objects as
JSON so runs can be archived, diffed across code versions, and
post-processed without re-simulating.  The format is versioned and
forward-checked on load.
"""

from __future__ import annotations

import json
from typing import IO, Any, Callable, Dict, List

from repro.core.protocol import MntpPhase, MntpReport
from repro.obs.explain import explain_run
from repro.testbed.experiment import ExperimentResult, OffsetPoint

FORMAT = "mntp-experiment-v1"

#: Worst-sample depth of the embedded explain report.
_EXPLAIN_WORST_N = 5


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Convert a result to a JSON-serialisable dict.

    The run's telemetry snapshot rides along under ``"telemetry"``
    when present, so archived runs stay inspectable with
    ``repro-mntp trace`` / ``repro-mntp metrics``; a compact
    root-cause report (``repro.obs.explain``) is embedded under
    ``"explain"`` so archives answer "why was this run noisy?"
    without re-assembly.
    """
    out = {
        "format": FORMAT,
        "duration": result.duration,
        "sntp_failures": result.sntp_failures,
        "sntp": [_point(p) for p in result.sntp],
        "true_offsets": [_point(p) for p in result.true_offsets],
        "mntp_reports": [_report(r) for r in result.mntp_reports],
    }
    if result.telemetry is not None:
        out["telemetry"] = result.telemetry
        out["explain"] = explain_run(
            result.telemetry, samples=result.offset_samples()
        ).to_dict(worst_n=_EXPLAIN_WORST_N)
    if result.health is not None:
        out["health"] = result.health
    return out


def result_from_dict(data: Any) -> ExperimentResult:
    """Rebuild a result from :func:`result_to_dict` output.

    Raises:
        ValueError: If ``data`` is not a JSON object of this format, or
            a key is missing or holds a value of the wrong type; the
            message names the offending key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if data.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} document")
    result = ExperimentResult(
        duration=_field(data, "duration", float),
        sntp_failures=_field(data, "sntp_failures", int, 0),
    )
    result.sntp = _field(data, "sntp", _list_of(_point_from), [])
    result.true_offsets = _field(data, "true_offsets", _list_of(_point_from), [])
    result.mntp_reports = _field(data, "mntp_reports", _list_of(_report_from), [])
    result.telemetry = _field(data, "telemetry", _object, None)
    result.explain = _field(data, "explain", _object, None)
    result.health = _field(data, "health", _object, None)
    return result


_MISSING = object()


def _field(data: Dict[str, Any], key: str, parse: Callable[[Any], Any],
           default: Any = _MISSING) -> Any:
    """``parse(data[key])``, or ``default`` when the key is absent.

    Raises:
        ValueError: Naming ``key`` when it is missing (and required) or
            ``parse`` rejects its value.
    """
    if key not in data:
        if default is _MISSING:
            raise ValueError(f"missing key {key!r}")
        return default
    try:
        return parse(data[key])
    except KeyError as exc:
        raise ValueError(f"bad {key!r}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad {key!r}: {exc}") from exc


def _object(value: Any) -> Any:
    if value is not None and not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _list_of(parse: Callable[[Any], Any]) -> Callable[[Any], List[Any]]:
    def parse_all(items: Any) -> List[Any]:
        if not isinstance(items, list):
            raise TypeError(f"expected a list, got {type(items).__name__}")
        return [parse(item) for item in items]

    return parse_all


def save_result(result: ExperimentResult, fileobj: IO[str]) -> None:
    """Write a result as JSON."""
    json.dump(result_to_dict(result), fileobj)


def load_result(fileobj: IO[str]) -> ExperimentResult:
    """Read a result written by :func:`save_result`."""
    return result_from_dict(json.load(fileobj))


def _point(p: OffsetPoint) -> Dict[str, Any]:
    out: Dict[str, Any] = {"t": p.time, "o": p.offset}
    if p.truth == p.truth:  # not NaN
        out["truth"] = p.truth
    return out


def _point_from(d: Dict[str, Any]) -> OffsetPoint:
    return OffsetPoint(
        time=float(d["t"]),
        offset=float(d["o"]),
        truth=float(d["truth"]) if "truth" in d else float("nan"),
    )


def _report(r: MntpReport) -> Dict[str, Any]:
    return {
        "t": r.time,
        "o": r.offset,
        "accepted": r.accepted,
        "phase": r.phase.value,
        "corrected": r.corrected,
        "residual": r.residual,
        "truth": r.truth,
    }


def _report_from(d: Dict[str, Any]) -> MntpReport:
    return MntpReport(
        time=float(d["t"]),
        offset=float(d["o"]),
        accepted=bool(d["accepted"]),
        phase=MntpPhase(d["phase"]),
        corrected=bool(d.get("corrected", False)),
        residual=d.get("residual"),
        truth=d.get("truth"),
    )
