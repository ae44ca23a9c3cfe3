"""Declarative SLOs evaluated against ``MetricsRegistry`` snapshots.

The ~27 ``gelee_*`` series answer questions when an operator asks; this
module asks continuously.  An :class:`SloEngine` holds declarative
:class:`SloRule`\\ s, evaluates them all against one registry snapshot
(on demand, or on the scheduler's recurring ``maintenance:slo-evaluate``
job), keeps per-rule :class:`AlertState`, and reports *edges* — a rule
crossing its threshold publishes ``alert.fired``, a firing rule dropping
back publishes ``alert.resolved``.  The service publishes those through
the kernel event bus, so on a durable node alerts are journaled and ship
down the replication stream like any other event: the cockpit on a
follower shows the primary's alert history.

Rule kinds:

``error-rate``
    Share of error-status API responses among requests *since the last
    evaluation* (windowed counter deltas — cumulative ratios could never
    resolve).  Defaults to 5xx on ``gelee_api_requests_total``.
``latency-quantile``
    A quantile estimated from fixed-bucket histogram deltas: the
    smallest bucket bound covering the target quantile of the window's
    samples (the standard Prometheus ``histogram_quantile`` upper-bound
    estimate; +Inf overflow reports ``inf`` and always breaches).
``replication-lag``
    Gauge threshold on ``gelee_replication_lag_records``.
``in-flight-saturation``
    Gauge threshold on ``gelee_dispatch_in_flight``.
``heartbeat-miss``
    Liveness stall: the election-heartbeat histogram saw samples before
    but none since the last evaluation — renewals have stopped.

Windowed kinds *hold* their state (no transition) when the window has
fewer than ``min_samples`` samples, so an idle service neither fires nor
flaps.  Gauge kinds clear when the backing instrument disappears (a
promoted replica stops having lag).

The window arithmetic — counter resets, histogram bucket deltas, the
bucket-bound quantile — is :mod:`repro.telemetry.history`'s; each
windowed rule keeps only its own cursor (the previous reading).  Rules
cannot read the history rings instead: those hold per-series derived
quantiles, which do not merge across label sets the way a whole-API
latency rule needs.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..clock import Clock, SystemClock
from .history import (HistogramReading, bucket_quantile, counter_delta,
                      histogram_delta, histogram_reading)
from .registry import MetricsRegistry, get_registry

__all__ = ["AlertState", "SloEngine", "SloRule", "default_slo_rules"]

RULE_KINDS = ("error-rate", "latency-quantile", "replication-lag",
              "in-flight-saturation", "heartbeat-miss")

_DEFAULT_METRICS = {
    "error-rate": "gelee_api_requests_total",
    "latency-quantile": "gelee_api_request_seconds",
    "replication-lag": "gelee_replication_lag_records",
    "in-flight-saturation": "gelee_dispatch_in_flight",
    "heartbeat-miss": "gelee_election_heartbeat_seconds",
}


class SloRule:
    """One declarative objective over one metric."""

    __slots__ = ("name", "kind", "threshold", "metric", "quantile",
                 "min_samples", "error_status_prefixes", "severity",
                 "description")

    def __init__(self, name: str, kind: str, threshold: float,
                 metric: Optional[str] = None, quantile: float = 0.99,
                 min_samples: int = 1,
                 error_status_prefixes: Tuple[str, ...] = ("5",),
                 severity: str = "warn", description: str = ""):
        if kind not in RULE_KINDS:
            raise ValueError("unknown SLO rule kind {!r} (known: {})".format(
                kind, ", ".join(RULE_KINDS)))
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1), got {!r}".format(quantile))
        self.name = name
        self.kind = kind
        self.threshold = float(threshold)
        self.metric = metric or _DEFAULT_METRICS[kind]
        self.quantile = float(quantile)
        self.min_samples = max(1, int(min_samples))
        self.error_status_prefixes = tuple(str(p) for p in error_status_prefixes)
        self.severity = severity
        self.description = description

    def to_dict(self) -> Dict[str, Any]:
        document = {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "threshold": self.threshold,
            "severity": self.severity,
            "description": self.description,
        }
        if self.kind == "latency-quantile":
            document["quantile"] = self.quantile
        if self.kind in ("error-rate", "latency-quantile"):
            document["min_samples"] = self.min_samples
        if self.kind == "error-rate":
            document["error_status_prefixes"] = list(self.error_status_prefixes)
        return document


class AlertState:
    """The evaluated side of one rule: ok/firing plus transition history."""

    __slots__ = ("rule", "state", "value", "fired_at", "resolved_at",
                 "fired_count", "last_evaluated_at")

    def __init__(self, rule: SloRule):
        self.rule = rule
        self.state = "ok"
        self.value: Optional[float] = None
        self.fired_at: Optional[str] = None
        self.resolved_at: Optional[str] = None
        self.fired_count = 0
        self.last_evaluated_at: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule.name,
            "kind": self.rule.kind,
            "metric": self.rule.metric,
            "severity": self.rule.severity,
            "state": self.state,
            "value": self.value,
            "threshold": self.rule.threshold,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "fired_count": self.fired_count,
            "last_evaluated_at": self.last_evaluated_at,
        }


def default_slo_rules() -> List[SloRule]:
    """The stock catalog — conservative thresholds that stay quiet in tests."""
    return [
        SloRule("api-error-rate", "error-rate", threshold=0.05,
                min_samples=20, severity="page",
                description="More than 5% of API responses were 5xx "
                            "since the last evaluation."),
        SloRule("api-latency-p99", "latency-quantile", threshold=2.5,
                quantile=0.99, min_samples=20, severity="warn",
                description="The p99 API latency bucket bound exceeded "
                            "2.5s over the evaluation window."),
        SloRule("replication-lag", "replication-lag", threshold=1000,
                severity="warn",
                description="This replica is more than 1000 journal "
                            "records behind the primary."),
        SloRule("dispatch-saturation", "in-flight-saturation", threshold=10000,
                severity="warn",
                description="More than 10000 action invocations are "
                            "in flight at once."),
        SloRule("election-heartbeat", "heartbeat-miss", threshold=0,
                severity="page",
                description="The leader election loop stopped renewing "
                            "its lease between evaluations."),
    ]


class SloEngine:
    """Evaluates a rule set against registry snapshots, tracking alert edges.

    ``publish`` is a ``(kind, subject_id, payload)`` callback — the
    service wires it to the kernel bus so ``alert.fired`` /
    ``alert.resolved`` travel the same journal/replication path as
    lifecycle events.  ``refresh`` (optional) runs before each snapshot
    so scrape-time gauges (in-flight, lag, queue depth) are current.
    """

    def __init__(self, rules: Optional[List[SloRule]] = None,
                 registry: Optional[MetricsRegistry] = None,
                 clock: Optional[Clock] = None,
                 publish: Optional[Callable[[str, str, Dict[str, Any]], None]] = None,
                 refresh: Optional[Callable[[], Any]] = None):
        self._registry = registry
        self._clock = clock or SystemClock()
        self._publish = publish
        self._refresh = refresh
        self._lock = threading.RLock()
        self._states: Dict[str, AlertState] = {}
        # Per-rule cursor: the previous reading of the rule's metric.
        self._windows: Dict[str, Any] = {}
        self._evaluations = 0
        self._last_evaluated_at: Optional[str] = None
        for rule in (rules if rules is not None else default_slo_rules()):
            self.add_rule(rule)

    # ----------------------------------------------------------------- rules
    def add_rule(self, rule: SloRule) -> SloRule:
        with self._lock:
            if rule.name in self._states:
                raise ValueError("SLO rule {!r} already registered".format(rule.name))
            self._states[rule.name] = AlertState(rule)
        return rule

    def remove_rule(self, name: str) -> None:
        with self._lock:
            self._states.pop(name, None)
            self._windows.pop(name, None)

    @property
    def rules(self) -> List[SloRule]:
        with self._lock:
            return [state.rule for state in self._states.values()]

    # ------------------------------------------------------------ evaluation
    def evaluate(self) -> Dict[str, Any]:
        """Evaluate every rule once; publish and return any transitions."""
        if self._refresh is not None:
            self._refresh()
        registry = self._registry if self._registry is not None else get_registry()
        snapshot = registry.snapshot()
        metrics = {metric["name"]: metric for metric in snapshot["metrics"]}
        now = self._clock.now().isoformat()
        transitions: List[Dict[str, Any]] = []
        with self._lock:
            self._evaluations += 1
            self._last_evaluated_at = now
            for state in self._states.values():
                outcome = self._evaluate_rule(state.rule, metrics)
                state.last_evaluated_at = now
                if outcome is None:
                    continue  # window too small: hold, neither fire nor flap
                value, breached = outcome
                state.value = value
                if breached and state.state != "firing":
                    state.state = "firing"
                    state.fired_at = now
                    state.resolved_at = None
                    state.fired_count += 1
                    transitions.append(self._transition("alert.fired", state))
                elif not breached and state.state == "firing":
                    state.state = "ok"
                    state.resolved_at = now
                    transitions.append(self._transition("alert.resolved", state))
        if self._publish is not None:
            for transition in transitions:
                self._publish(transition["kind"], transition["rule"],
                              dict(transition["payload"]))
        return {
            "evaluated_at": now,
            "rules_evaluated": len(self._states),
            "transitions": transitions,
            "firing": self.firing(),
        }

    @staticmethod
    def _transition(kind: str, state: AlertState) -> Dict[str, Any]:
        return {"kind": kind, "rule": state.rule.name,
                "payload": {
                    "rule": state.rule.name,
                    "rule_kind": state.rule.kind,
                    "metric": state.rule.metric,
                    "severity": state.rule.severity,
                    "value": state.value,
                    "threshold": state.rule.threshold,
                    "description": state.rule.description,
                }}

    def _evaluate_rule(self, rule: SloRule,
                       metrics: Dict[str, Any]) -> Optional[Tuple[Optional[float], bool]]:
        metric = metrics.get(rule.metric)
        if rule.kind == "error-rate":
            return self._eval_error_rate(rule, metric)
        if rule.kind == "latency-quantile":
            return self._eval_latency_quantile(rule, metric)
        if rule.kind == "heartbeat-miss":
            return self._eval_heartbeat_miss(rule, metric)
        # Gauge kinds: absent instrument clears (a promoted replica has
        # no lag gauge to be behind on).
        if metric is None or not metric["series"]:
            return (None, False)
        value = max(series["value"] for series in metric["series"])
        return (value, value > rule.threshold)

    def _window(self, rule: SloRule,
                reading: HistogramReading) -> HistogramReading:
        """Advance the rule's cursor to ``reading``; return the window."""
        window = histogram_delta(self._windows.get(rule.name), reading)
        self._windows[rule.name] = reading
        return window

    def _eval_error_rate(self, rule: SloRule,
                         metric: Optional[Dict[str, Any]]) -> Optional[Tuple[Optional[float], bool]]:
        if metric is None:
            return (None, False)
        total = sum(series["value"] for series in metric["series"])
        errors = sum(
            series["value"] for series in metric["series"]
            if str(series["labels"].get("status", "")).startswith(
                rule.error_status_prefixes))
        # Errors are a sub-count of all requests, as a bucket is of a
        # histogram's count: one reading, so a reset in the total
        # (registry swap) restarts both.
        delta_total, _, delta_buckets = self._window(
            rule, (total, 0.0, {"errors": errors}))
        if delta_total < rule.min_samples:
            return None
        rate = delta_buckets["errors"] / delta_total
        return (round(rate, 4), rate > rule.threshold)

    def _eval_latency_quantile(self, rule: SloRule,
                               metric: Optional[Dict[str, Any]]) -> Optional[Tuple[Optional[float], bool]]:
        if metric is None:
            return (None, False)
        # Every label set merged into one windowed bucket view.
        delta_count, _, delta_buckets = self._window(
            rule, histogram_reading(metric["series"]))
        if delta_count < rule.min_samples:
            return None
        bound = bucket_quantile(delta_buckets, delta_count, rule.quantile)
        return (bound, bound > rule.threshold)

    def _eval_heartbeat_miss(self, rule: SloRule,
                             metric: Optional[Dict[str, Any]]) -> Optional[Tuple[Optional[float], bool]]:
        if metric is None or not metric["series"]:
            return (None, False)
        count = histogram_reading(metric["series"])[0]
        previous = self._windows.get(rule.name)
        self._windows[rule.name] = count
        if previous is None:
            return None  # first sighting: establish the baseline, hold
        delta = counter_delta(previous, count)
        return (float(delta), delta == 0 and previous > 0)

    # --------------------------------------------------------------- surface
    def firing(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [state.to_dict() for state in self._states.values()
                    if state.state == "firing"]

    def status(self) -> Dict[str, Any]:
        with self._lock:
            alerts = [state.to_dict() for state in self._states.values()]
            return {
                "rules": [state.rule.to_dict() for state in self._states.values()],
                "alerts": alerts,
                "firing": sum(1 for alert in alerts if alert["state"] == "firing"),
                "evaluations": self._evaluations,
                "last_evaluated_at": self._last_evaluated_at,
            }
