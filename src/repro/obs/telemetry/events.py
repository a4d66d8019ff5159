"""Append-only service telemetry journal (DESIGN §16.1).

A :class:`TelemetrySink` samples every statestore lifecycle transition
plus the worker-side instants the store never sees (crashes, per-phase
work) into one ordered, logically-timestamped event list, optionally
mirrored line-by-line to a provenance-stamped sidecar journal next to
the statestore journal (``service.jsonl`` → ``service.telemetry.jsonl``).

Events are plain dicts — ``{"kind": ..., "t": ..., **fields}`` — written
as sorted-key JSON lines, so a telemetry journal is byte-stable for a
deterministic (logical-clock) run and replayable into the exact same
rollups by :func:`load_events`.  Wall-clock material (per-phase seconds
of completed tasks) is kept under the event's ``timings`` field so the
rollup layer can quarantine it per DESIGN §11.8.

The sink attaches to a store at construction
(``StateStore(telemetry=sink)``) or later via
:meth:`~repro.service.statestore.StateStore.attach_telemetry`; from
then on :meth:`TelemetrySink.record_store_op` receives every journal
event the store applies **live** (replay does not re-sample — the
telemetry journal is its own history).

>>> sink = TelemetrySink()
>>> _ = sink.record_store_op({"op": "submit", "task_id": "t-000001",
...                           "key": "k", "client": "anon", "priority": 0,
...                           "max_retries": 3, "now": 0.0})
>>> sink.events[0]["kind"], sink.events[0]["t"]
('submit', 0.0)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Store ops sampled 1:1 into telemetry events.
STORE_OPS = (
    "submit",
    "resubmit",
    "claim",
    "start",
    "heartbeat",
    "complete",
    "requeue",
    "cancel",
)

#: Worker/store instants recorded via :meth:`TelemetrySink.note`.
NOTE_KINDS = (
    "cache_hit",
    "dedup",
    "lease_expiry",
    "worker_crash",
    "phase_work",
    "alert",
    "journal_truncated",
)


def telemetry_path_for(store_path: Union[str, Path]) -> Path:
    """The sidecar telemetry journal path for one statestore journal.

    >>> str(telemetry_path_for("runs/service.jsonl"))
    'runs/service.telemetry.jsonl'
    """
    path = Path(store_path)
    stem = path.name[: -len(path.suffix)] if path.suffix else path.name
    return path.with_name(f"{stem}.telemetry.jsonl")


class TelemetrySink:
    """Collect (and optionally persist) service telemetry events in order.

    Parameters
    ----------
    path:
        Optional sidecar journal; events are appended as sorted-key
        JSON lines.  ``None`` keeps the journal in memory only.
    fresh:
        Truncate an existing sidecar instead of appending to it (used
        when the statestore itself starts a fresh journal).
    """

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        *,
        fresh: bool = False,
    ) -> None:
        self.events: List[Dict[str, Any]] = []
        self._path: Optional[Path] = None
        if path is not None:
            self._path = Path(path)
            self._path.parent.mkdir(parents=True, exist_ok=True)
            if fresh or not self._path.exists():
                self._path.write_text("")

    @property
    def path(self) -> Optional[Path]:
        """The sidecar journal path (None for in-memory sinks)."""
        return self._path

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _append(self, event: Dict[str, Any]) -> Dict[str, Any]:
        self.events.append(event)
        if self._path is not None:
            with self._path.open("a") as fh:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        return event

    def record_store_op(self, store_event: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Sample one live statestore journal event.

        Called by :meth:`repro.service.statestore.StateStore._record`
        after the event is applied; ops outside :data:`STORE_OPS`
        (``set_quota``) carry no SLO signal and are skipped.
        """
        op = str(store_event.get("op"))
        if op not in STORE_OPS:
            return None
        event: Dict[str, Any] = {
            "kind": op,
            "t": float(store_event["now"]),
            "task": store_event.get("task_id"),
        }
        for field in ("key", "client", "priority", "worker"):
            if field in store_event:
                event[field] = store_event[field]
        if op == "requeue":
            event["terminal"] = bool(store_event["terminal"])
            event["expired"] = bool(store_event.get("expired", False))
            event["not_before"] = float(store_event["not_before"])
        return self._append(event)

    def note(self, kind: str, t: float, **fields: Any) -> Dict[str, Any]:
        """Record one worker-side or derived instant (crash, cache hit …).

        >>> TelemetrySink().note("worker_crash", 3.0, worker="w0")["kind"]
        'worker_crash'
        """
        if kind not in NOTE_KINDS:
            raise ValueError(
                f"unknown telemetry note kind {kind!r}; expected one of "
                f"{NOTE_KINDS}"
            )
        event: Dict[str, Any] = {"kind": kind, "t": float(t)}
        event.update(fields)
        return self._append(event)

    def write_provenance(self, seed: Optional[int] = None) -> Dict[str, Any]:
        """Stamp the journal with a provenance header event.

        Recorded once per sink activation so a persisted telemetry
        journal names the commit/seed it was produced under (the
        EXPERIMENTS.md footer policy).  Provenance events carry
        ``t = -1`` and are ignored by the rollup layer.
        """
        from repro.obs.report import collect_provenance

        prov = collect_provenance(seed=seed)
        event = {"kind": "provenance", "t": -1.0, "provenance": prov.as_dict()}
        return self._append(event)


def load_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read one telemetry sidecar journal back into an event list.

    Blank lines are skipped; corrupt lines raise ``ValueError`` with
    the offending line number (mirroring the statestore's replay
    contract).
    """
    out: List[Dict[str, Any]] = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"corrupt telemetry journal {path}:{lineno}: {exc}"
            ) from None
    return out
