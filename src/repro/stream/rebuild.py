"""Background rebuilder: policy evaluation + promotion off the hot path.

One daemon thread wakes every ``interval_s``, asks the
:class:`~repro.stream.policy.StalenessPolicy` what the measured
break-even says, runs the chosen maintenance on the
:class:`~repro.stream.mutable.MutableIndex` (whose heavy work happens
outside the index lock), feeds the measured cost back into the policy,
and finally calls the ``promote`` hook — typically
``CagraServer.swap_index`` — whose generation bump + cache clear makes
the promotion safe mid-traffic.

``run_once`` is the same evaluation as a synchronous call (tests and the
CLI drive it directly; ``force="incremental"|"full"`` bypasses the
policy), so background and foreground behaviour cannot drift.
"""

from __future__ import annotations

import threading
import time

from repro.stream.policy import StalenessPolicy

__all__ = ["Rebuilder"]


class Rebuilder:
    """Runs the staleness decision off the serving path (see module doc)."""

    def __init__(
        self,
        index,
        policy: StalenessPolicy | None = None,
        *,
        interval_s: float = 0.5,
        promote=None,
        calibrate: bool = False,
        on_stage=None,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.index = index
        self.policy = policy or StalenessPolicy()
        self.interval_s = float(interval_s)
        self._promote = promote
        self._calibrate = bool(calibrate)
        self._on_stage = on_stage
        self._lock = threading.Lock()
        self._history = []  # (decision, report, promote_latency_s)
        self._errors = []
        self._listeners = []  # called with (decision, report, promote_latency_s)
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-rebuilder", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        self._wake.set()
        thread.join()

    def kick(self) -> None:
        """Wake the background thread now instead of at the next tick."""
        self._wake.set()

    def __enter__(self) -> "Rebuilder":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # the decision loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        if self._calibrate:
            try:
                inner = getattr(self.index.base_index, "inner", None)
                if inner is not None:
                    self.policy.calibrate(inner)
            except Exception as exc:  # calibration is best-effort
                with self._lock:
                    self._errors.append(exc)
        while not self._stop.is_set():
            self._wake.wait(self.interval_s)
            self._wake.clear()
            if self._stop.is_set():
                return
            try:
                self.run_once()
            except Exception as exc:  # keep serving; surface via errors()
                with self._lock:
                    self._errors.append(exc)

    def run_once(self, force: str | None = None):
        """One evaluation: decide → maintain → feed costs back → promote.

        Returns the :class:`~repro.stream.mutable.MaintenanceReport`, or
        ``None`` when the policy says there is nothing worth doing.
        """
        decision = None
        if force is None:
            decision = self.policy.decide(self.index.freshness())
            action = decision.action
        else:
            if force not in ("incremental", "full"):
                raise ValueError("force must be 'incremental' or 'full'")
            action = force
        if action == "none":
            return None
        if action == "incremental":
            report = self.index.repair_incremental(on_stage=self._on_stage)
        else:
            report = self.index.rebuild_full(on_stage=self._on_stage)
        self.policy.note_report(report)
        promote_started = time.perf_counter()
        if self._promote is not None:
            self._promote(self.index)
        promote_latency = (
            time.perf_counter() - promote_started
        ) + report.promote_seconds
        with self._lock:
            self._history.append((decision, report, promote_latency))
            listeners = list(self._listeners)
        for listener in listeners:
            listener(decision, report, promote_latency)
        return report

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def add_listener(self, callback) -> None:
        """``callback(decision, report, promote_latency_s)`` after every
        completed maintenance run (the server hooks stats here)."""
        with self._lock:
            self._listeners.append(callback)

    def history(self) -> list:
        with self._lock:
            return list(self._history)

    def errors(self) -> list:
        with self._lock:
            return list(self._errors)
