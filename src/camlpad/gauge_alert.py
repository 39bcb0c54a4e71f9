"""Window-level gauge scores, history-percentile alerting, and gauge re-indexing.

A window's gauge is the mean of its rows' ensemble scores. The current
window's gauge is ranked against the distribution of historical window
gauges; strictly passing the threshold percentile (default 75) fires an
alert. Every reading has history days to rank against: a run refuses a
history day holding no records, and the combined gauge pools every source's.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .datamodel import DAY_MS, time_buckets
from .errors import CamlpadError
from .ingest_store import StoreLocator, StoreUnreachable, post_json, redact_url, url_refusal

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD_PERCENTILE = 75.0
WEBHOOK_ATTEMPTS = 3
WEBHOOK_BACKOFF_SECONDS = (1.0, 2.0)  # slept between the attempts
GAUGES_INDEX = "gauges"

COMBINED_SCOPE = "combined"


class Comparison(str, Enum):
    MORE_ANOMALOUS = "more_anomalous"
    LESS_ANOMALOUS = "less_anomalous"
    EQUAL = "equal"


@dataclass(frozen=True)
class GaugeReading:
    """One window's gauge: scope is a source kind value or "combined"."""

    scope: str
    window_id: str
    score: float
    history_percentile: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"gauge score must be in [0,1], got {self.score}")
        if not 0.0 <= self.history_percentile <= 100.0:  # a None raises TypeError
            raise ValueError(f"history_percentile must be in [0,100], got {self.history_percentile}")


@dataclass
class SinkOutcome:
    sink: str
    ok: bool
    detail: str
    attempts: int = 1


@dataclass
class AlertEvent:
    """Built only after alert_decision fired for the reading."""

    fired_at: int
    reading: GaugeReading
    threshold_percentile: float
    message: str
    delivery: list[SinkOutcome] = field(default_factory=list)


def window_score(ensemble_scores: Sequence[float]) -> float:
    """Arithmetic mean of the window's per-row ensemble scores."""
    scores = np.asarray(ensemble_scores, dtype=float)
    if scores.size == 0:
        raise CamlpadError("cannot score an empty window")
    return float(scores.mean())


def day_gauges(timestamps: Sequence[int], scores: Sequence[float], boundary_ms: int) -> dict[int, float]:
    """Day start -> window_score of that day's rows, for each day present, in day order.

    History day k spans [boundary - k * DAY_MS, boundary - (k - 1) * DAY_MS), so
    every day is as long as the current window whatever the boundary's time of
    day. Each day's scores keep their row order, so its mean sums them in that order.
    """
    days, index = time_buckets(np.asarray(timestamps, dtype=np.int64) - boundary_ms, DAY_MS)
    order = np.argsort(index, kind="stable")
    per_day = np.split(np.asarray(scores, dtype=float)[order], np.cumsum(np.bincount(index))[:-1])
    return {boundary_ms + day: window_score(day_scores) for day, day_scores in zip(days.tolist(), per_day)}


def percentile_rank(current: float, history: Sequence[float]) -> float:
    """100 * |{h in history : h < current}| / |history|; an empty history raises."""
    history = list(history)
    if not history:
        raise CamlpadError("cannot rank against an empty history")
    below = sum(1 for h in history if h < current)
    return 100.0 * below / len(history)


def alert_decision(reading: GaugeReading, threshold: float = DEFAULT_THRESHOLD_PERCENTILE) -> bool:
    """Fire iff the reading's history percentile strictly passes the threshold."""
    return reading.history_percentile > threshold


def compare_recent_previous(recent: float, previous: float) -> Comparison:
    if recent > previous:
        return Comparison.MORE_ANOMALOUS
    if recent < previous:
        return Comparison.LESS_ANOMALOUS
    return Comparison.EQUAL


def gauge_document(reading: GaugeReading) -> dict:
    return {
        "scope": reading.scope,
        "window_id": reading.window_id,
        "score": round(reading.score, 6),
        "history_percentile": round(reading.history_percentile, 6),
    }


def gauge_json_bytes(reading: GaugeReading) -> bytes:
    """Canonical gauge document: sorted keys, UTF-8, newline-terminated."""
    return (json.dumps(gauge_document(reading), sort_keys=True) + "\n").encode("utf-8")


def alert_document(event: AlertEvent) -> dict:
    return {**gauge_document(event.reading), "threshold": event.threshold_percentile, "fired_at": event.fired_at}


def build_alert(
    reading: GaugeReading,
    threshold: float = DEFAULT_THRESHOLD_PERCENTILE,
    fired_at: int | None = None,
) -> AlertEvent:
    if not alert_decision(reading, threshold):
        raise ValueError("alert events are only constructed when the decision fired")
    fired_at = int(time.time() * 1000) if fired_at is None else fired_at
    message = (
        f"{reading.scope} window {reading.window_id}: gauge {reading.score:.6f} "
        f"at percentile {reading.history_percentile:.1f} passed threshold {threshold:g}"
    )
    return AlertEvent(
        fired_at=fired_at,
        reading=reading,
        threshold_percentile=threshold,
        message=message,
    )


def _deliver_file(event: AlertEvent, path: Path) -> SinkOutcome:
    line = json.dumps(alert_document(event), sort_keys=True) + "\n"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(line)  # single write keeps lines whole under concurrency
        return SinkOutcome(sink=f"file:{path}", ok=True, detail="appended")
    except OSError as exc:
        return SinkOutcome(sink=f"file:{path}", ok=False, detail=str(exc))


def _deliver_webhook(
    event: AlertEvent,
    url: str,
    sleep: Callable[[float], None],
) -> SinkOutcome:
    body = json.dumps(alert_document(event)).encode()
    sink = f"webhook:{redact_url(url)}"
    # a URL that post_json refuses unsent fails alike on every attempt: it gets one, and no wait
    attempts = 1 if url_refusal(url) else WEBHOOK_ATTEMPTS
    detail = ""
    for attempt in range(1, attempts + 1):
        try:
            status, _ = post_json(url, body)
            if 200 <= status < 300:
                return SinkOutcome(sink=sink, ok=True, detail=f"HTTP {status}", attempts=attempt)
            detail = f"HTTP {status}"
        except StoreUnreachable as exc:
            detail = str(exc)
        if attempt < attempts:
            sleep(WEBHOOK_BACKOFF_SECONDS[attempt - 1])
    return SinkOutcome(
        sink=sink, ok=False,
        detail=f"failed after {attempts} attempt{'s' if attempts > 1 else ''}: {detail}",
        attempts=attempts,
    )


def emit_alert(
    event: AlertEvent,
    file_path: Path | str | None = None,
    webhook_url: str | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> list[SinkOutcome]:
    """Deliver an alert to the configured sinks; failures never cross sinks.

    With no sink there is nothing to deliver and the result is []. Raises
    only when every configured sink failed; ``event.delivery`` holds the
    outcomes either way.
    """
    outcomes: list[SinkOutcome] = []
    if file_path is not None:
        outcomes.append(_deliver_file(event, Path(file_path)))
    if webhook_url:
        outcomes.append(_deliver_webhook(event, webhook_url, sleep))
    event.delivery = outcomes
    for outcome in outcomes:
        level = logging.INFO if outcome.ok else logging.WARNING
        logger.log(level, "alert sink %s: %s", outcome.sink, outcome.detail)
    if outcomes and not any(o.ok for o in outcomes):
        raise CamlpadError("no alert sink succeeded: " + "; ".join(o.detail for o in outcomes))
    return outcomes


def reindex_gauge(locator: StoreLocator, reading: GaugeReading) -> None:
    """Append a gauge document to the store's append-only gauges index."""
    locator.append(GAUGES_INDEX, reading.window_id, gauge_json_bytes(reading))
