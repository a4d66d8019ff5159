"""Persistent task statestore: the service's correctness contract.

The store owns the task lifecycle of the simulation service
(DESIGN §12.2)::

    submit ──> waiting ──claim──> claimed ──start──> running ──complete──> complete
                  ^                  │                  │
                  │                  └──fail/lease──────┘
                  └── (retry with exponential backoff; budget exhausted
                       => terminal ``errored``)

Design points, modeled on alchemiscale's Neo4j statestore contract
(``test_statestore.py``):

* **Claiming** hands each waiting task to exactly one worker: highest
  ``priority`` first, FIFO (submit order) within a priority band.  A
  claimed task is invisible to further claims — double-claiming is
  structurally impossible.
* **Leases** bound worker silence.  Claims carry a lease deadline that
  :meth:`StateStore.heartbeat` extends; :meth:`StateStore.expire_leases`
  requeues (or terminally errors) tasks whose worker went quiet — the
  crash-recovery path the chaos suite exercises.
* **Bounded retry with backoff**: each claim consumes one attempt; a
  failed/expired task becomes eligible again only after an
  exponentially growing delay, and exhausting ``max_retries`` parks it
  in the terminal ``errored`` state.
* **Idempotent resubmission**: tasks are content-addressed by a cache
  ``key`` (see :func:`repro.service.jobs.cache_key`).  Resubmitting a
  completed key is a **cache hit** (the stored result is returned, no
  new task); resubmitting a live key deduplicates onto the existing
  task; resubmitting an errored key revives it with a fresh retry
  budget.
* **Persistence** is an append-only JSON journal: every transition is
  one line carrying its explicit timestamp, so replaying the journal
  rebuilds the exact store state (same statuses, results, quotas) with
  no wall-clock dependence.  A final line cut short by a crash
  mid-append is dropped on replay (or kept, if it parses); a malformed
  newline-terminated line anywhere is corruption and raises.  The
  journal path honours the repo-wide artifact overwrite guard
  (:func:`repro.utils.artifacts.prepare_artifact_path`).

>>> store = StateStore()                    # in-memory (no journal)
>>> out = store.submit({"job": "h2"}, key="ck-1", now=0.0)
>>> out.task.status
'waiting'
>>> [t.task_id for t in store.claim("w0", now=1.0)]
['t-000001']
>>> store.complete("t-000001", "w0", {"alpha": 4.5}, now=2.0)
>>> store.submit({"job": "h2"}, key="ck-1", now=3.0).cache_hit
True
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import QuotaExceededError, ServiceError, TaskTransitionError
from repro.utils.artifacts import prepare_artifact_path

#: The task lifecycle states (DESIGN §12.2).
WAITING = "waiting"
CLAIMED = "claimed"
RUNNING = "running"
COMPLETE = "complete"
ERRORED = "errored"
CANCELLED = "cancelled"

#: Every status a task may carry.
ALL_STATUSES = (WAITING, CLAIMED, RUNNING, COMPLETE, ERRORED, CANCELLED)

#: States that count against a client's active-task quota and that a
#: same-key resubmission deduplicates onto.
LIVE_STATUSES = (WAITING, CLAIMED, RUNNING)

#: States a task can never leave.
TERMINAL_STATUSES = (COMPLETE, ERRORED, CANCELLED)


@dataclass
class TaskRecord:
    """One task's full mutable state inside the store."""

    task_id: str
    key: str
    payload: Dict[str, Any]
    client: str = "anon"
    priority: int = 0
    max_retries: int = 3
    status: str = WAITING
    attempts: int = 0
    submit_index: int = 0
    submitted_at: float = 0.0
    not_before: float = 0.0
    waiting_since: float = 0.0
    worker: Optional[str] = None
    lease_expires: Optional[float] = None
    error: str = ""
    resubmissions: int = 0

    @property
    def live(self) -> bool:
        """Is the task still in flight (waiting/claimed/running)?"""
        return self.status in LIVE_STATUSES

    @property
    def terminal(self) -> bool:
        """Has the task reached a state it can never leave?"""
        return self.status in TERMINAL_STATUSES


@dataclass
class SubmitOutcome:
    """What one :meth:`StateStore.submit` call resolved to.

    Exactly one of three shapes:

    * fresh submission — ``task`` is a new waiting task;
    * ``deduplicated`` — ``task`` is the pre-existing live task for
      the same key;
    * ``cache_hit`` — ``task`` is the completed task and ``result``
      carries its stored result payload (no recomputation).
    """

    task: TaskRecord
    cache_hit: bool = False
    deduplicated: bool = False
    resubmitted: bool = False
    result: Optional[Dict[str, Any]] = None

    @property
    def fresh(self) -> bool:
        """Did this submission enqueue new work?"""
        return not (self.cache_hit or self.deduplicated)


class StateStore:
    """Persistent priority task queue with leases, retries and a result cache.

    Parameters
    ----------
    path:
        JSON-journal location.  ``None`` keeps the store in memory
        (tests, ephemeral pools).  An existing journal is *resumed* —
        replayed into the exact prior state — unless ``fresh`` is set.
    fresh:
        Start a brand-new journal at ``path``.  Refuses to clobber an
        existing file unless ``force`` is also given (the repo-wide
        :class:`~repro.errors.ArtifactError` exit-2 contract).
    lease_seconds:
        How long a claim stays valid without a heartbeat.
    backoff_base, backoff_factor:
        Retry eligibility delay: attempt *n* (1-based) waits
        ``backoff_base * backoff_factor**(n - 1)`` seconds.
    clock:
        Time source used when a mutator is called without an explicit
        ``now`` (defaults to :func:`time.time`); tests pass logical
        times instead.
    telemetry:
        Optional :class:`~repro.obs.telemetry.events.TelemetrySink`.
        Every **live** journal transition (plus cache hits, dedups and
        lease expiries, which never reach the journal themselves) is
        sampled into it; journal *replay* does not re-sample — the
        telemetry journal is its own history.
    """

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        *,
        fresh: bool = False,
        force: bool = False,
        lease_seconds: float = 30.0,
        backoff_base: float = 1.0,
        backoff_factor: float = 2.0,
        clock: Optional[Callable[[], float]] = None,
        telemetry=None,
    ) -> None:
        if lease_seconds <= 0:
            raise ServiceError(f"lease_seconds must be > 0, got {lease_seconds}")
        if backoff_base < 0 or backoff_factor < 1.0:
            raise ServiceError("backoff_base must be >= 0 and backoff_factor >= 1")
        self.lease_seconds = float(lease_seconds)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self._clock = clock or time.time
        self.telemetry = telemetry
        self._tasks: Dict[str, TaskRecord] = {}
        self._by_key: Dict[str, str] = {}
        self._results: Dict[str, Dict[str, Any]] = {}
        self._quotas: Dict[str, int] = {}
        self._worker_heartbeats: Dict[str, float] = {}
        self._submit_counter = 0
        self._journal: Optional[Path] = None
        if path is not None:
            path = Path(path)
            if fresh or not path.exists():
                # A *new* journal goes through the artifact guard: an
                # existing file is only truncated under --force.
                self._journal = prepare_artifact_path(path, force=force)
                self._journal.write_text("")
            else:
                self._journal = path
                self._replay(path)

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    def _replay(self, path: Path) -> None:
        """Rebuild the state from the journal at *path*.

        Every newline-terminated line must parse.  Text after the last
        newline is the tail of an append a crash cut short: it is kept
        (and its newline written) when it parses, and otherwise cut off
        so the store reopens after the very crash it models.
        """
        data = path.read_bytes()
        cut = data.rfind(b"\n") + 1
        tail = data[cut:]
        lines = data[:cut].decode().splitlines()
        del data  # only the lines stay alive while the state is rebuilt
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ServiceError(
                    f"corrupt statestore journal {path}:{lineno}: {exc}"
                ) from None
            self._apply(event)
        if not tail.strip():
            return
        try:
            event = json.loads(tail.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            os.truncate(path, cut)
            self._note("journal_truncated", self._now(None), path=str(path),
                       line=len(lines) + 1, dropped_bytes=len(tail))
            return
        self._apply(event)
        with path.open("a") as fh:
            fh.write("\n")

    def _record(self, event: Dict[str, Any]) -> None:
        self._apply(event)
        if self._journal is not None:
            with self._journal.open("a") as fh:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        if self.telemetry is not None:
            self.telemetry.record_store_op(event)

    def attach_telemetry(self, sink) -> None:
        """Start sampling live transitions into *sink* from now on.

        Past history is not backfilled — resume a telemetry sidecar
        journal (:func:`repro.obs.telemetry.events.load_events`) for
        that.
        """
        self.telemetry = sink

    def _note(self, kind: str, t: float, **fields: Any) -> None:
        """Record one non-journal telemetry instant, if a sink is attached."""
        if self.telemetry is not None:
            self.telemetry.note(kind, t, **fields)

    def _now(self, now: Optional[float]) -> float:
        return float(self._clock() if now is None else now)

    def now(self) -> float:
        """The store's current clock reading (shared by worker pools)."""
        return float(self._clock())

    # ------------------------------------------------------------------
    # Event application (shared by live mutation and journal replay)
    # ------------------------------------------------------------------
    def _apply(self, event: Dict[str, Any]) -> None:
        op = event["op"]
        handler = getattr(self, f"_apply_{op}", None)
        if handler is None:
            raise ServiceError(f"unknown statestore journal op {op!r}")
        handler(event)

    def _apply_submit(self, ev: Dict[str, Any]) -> None:
        self._submit_counter += 1
        task = TaskRecord(
            task_id=ev["task_id"],
            key=ev["key"],
            payload=ev["payload"],
            client=ev["client"],
            priority=int(ev["priority"]),
            max_retries=int(ev["max_retries"]),
            submit_index=self._submit_counter,
            submitted_at=float(ev["now"]),
            not_before=float(ev["now"]),
            waiting_since=float(ev["now"]),
        )
        self._tasks[task.task_id] = task
        self._by_key[task.key] = task.task_id

    def _apply_resubmit(self, ev: Dict[str, Any]) -> None:
        task = self._tasks[ev["task_id"]]
        task.status = WAITING
        task.attempts = 0
        self._release_worker(task)
        task.error = ""
        task.not_before = float(ev["now"])
        task.waiting_since = float(ev["now"])
        task.resubmissions += 1

    def _apply_claim(self, ev: Dict[str, Any]) -> None:
        task = self._tasks[ev["task_id"]]
        task.status = CLAIMED
        task.worker = ev["worker"]
        task.attempts += 1
        task.lease_expires = float(ev["lease_expires"])
        self._worker_heartbeats[ev["worker"]] = float(ev["now"])

    def _apply_start(self, ev: Dict[str, Any]) -> None:
        self._tasks[ev["task_id"]].status = RUNNING
        self._worker_heartbeats[ev["worker"]] = float(ev["now"])

    def _apply_heartbeat(self, ev: Dict[str, Any]) -> None:
        self._tasks[ev["task_id"]].lease_expires = float(ev["lease_expires"])
        self._worker_heartbeats[ev["worker"]] = float(ev["now"])

    def _apply_complete(self, ev: Dict[str, Any]) -> None:
        task = self._tasks[ev["task_id"]]
        task.status = COMPLETE
        self._release_worker(task)
        self._results[task.key] = ev["result"]
        self._worker_heartbeats[ev["worker"]] = float(ev["now"])

    def _apply_requeue(self, ev: Dict[str, Any]) -> None:
        task = self._tasks[ev["task_id"]]
        # A worker-reported failure is still worker contact; a lease
        # expiry is precisely the absence of it.
        worker = ev.get("worker")
        if worker and not ev.get("expired", False):
            self._worker_heartbeats[worker] = float(ev["now"])
        self._release_worker(task)
        task.error = ev.get("error", "")
        if ev["terminal"]:
            task.status = ERRORED
        else:
            task.status = WAITING
            task.not_before = float(ev["not_before"])
            task.waiting_since = float(ev["now"])

    def _apply_cancel(self, ev: Dict[str, Any]) -> None:
        task = self._tasks[ev["task_id"]]
        task.status = CANCELLED
        self._release_worker(task)

    @staticmethod
    def _release_worker(task: TaskRecord) -> None:
        """Drop a task's worker binding (shared by every leaving transition)."""
        task.worker = None
        task.lease_expires = None

    def _apply_set_quota(self, ev: Dict[str, Any]) -> None:
        self._quotas[ev["client"]] = int(ev["max_active"])

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        payload: Dict[str, Any],
        *,
        key: str,
        client: str = "anon",
        priority: int = 0,
        max_retries: int = 3,
        now: Optional[float] = None,
    ) -> SubmitOutcome:
        """Enqueue one content-addressed task (idempotently).

        See :class:`SubmitOutcome` for the three possible resolutions.
        Raises :class:`~repro.errors.QuotaExceededError` when the
        client's active-task quota is full (cache hits and dedups never
        count against it).
        """
        now = self._now(now)
        if max_retries < 0:
            raise ServiceError(f"max_retries must be >= 0, got {max_retries}")
        existing_id = self._by_key.get(key)
        if existing_id is not None:
            existing = self._tasks[existing_id]
            if existing.status == COMPLETE:
                # Cache hits bypass the journal (no state changes), so
                # the telemetry sample happens here, not in _record.
                self._note("cache_hit", now, task=existing.task_id,
                           key=key, client=client)
                return SubmitOutcome(
                    task=existing, cache_hit=True, result=self._results.get(key)
                )
            if existing.live:
                self._note("dedup", now, task=existing.task_id,
                           key=key, client=client)
                return SubmitOutcome(task=existing, deduplicated=True)
            if existing.status == ERRORED:
                self._check_quota(client, now)
                self._record(
                    {"op": "resubmit", "task_id": existing.task_id, "now": now}
                )
                return SubmitOutcome(task=existing, resubmitted=True)
            # cancelled: fall through and enqueue a brand-new task
        self._check_quota(client, now)
        task_id = f"t-{self._submit_counter + 1:06d}"
        self._record(
            {
                "op": "submit",
                "task_id": task_id,
                "key": key,
                "payload": payload,
                "client": client,
                "priority": int(priority),
                "max_retries": int(max_retries),
                "now": now,
            }
        )
        return SubmitOutcome(task=self._tasks[task_id])

    def _check_quota(self, client: str, now: float) -> None:
        quota = self._quotas.get(client)
        if quota is None:
            return
        active = sum(
            1 for t in self._tasks.values() if t.client == client and t.live
        )
        if active >= quota:
            raise QuotaExceededError(
                f"client {client!r} has {active} active task(s), "
                f"quota is {quota}",
                client=client, active=active, quota=quota,
            )

    def set_quota(self, client: str, max_active: int) -> None:
        """Cap how many live (waiting/claimed/running) tasks ``client`` may hold."""
        if max_active < 0:
            raise ServiceError(f"quota must be >= 0, got {max_active}")
        self._record({"op": "set_quota", "client": client,
                      "max_active": int(max_active)})

    # ------------------------------------------------------------------
    # Claiming and the worker-side lifecycle
    # ------------------------------------------------------------------
    def claim(
        self, worker: str, *, limit: int = 1, now: Optional[float] = None
    ) -> List[TaskRecord]:
        """Hand up to ``limit`` eligible tasks to ``worker``.

        Eligible means ``waiting`` with its retry backoff elapsed.
        Ordering is priority-descending, then FIFO by submit order —
        the alchemiscale claim contract.  Claimed tasks are invisible
        to subsequent claims until their lease expires.
        """
        now = self._now(now)
        if limit < 1:
            raise ServiceError(f"claim limit must be >= 1, got {limit}")
        eligible = sorted(
            (
                t for t in self._tasks.values()
                if t.status == WAITING and t.not_before <= now
            ),
            key=lambda t: (-t.priority, t.submit_index),
        )
        claimed: List[TaskRecord] = []
        for task in eligible[:limit]:
            self._record(
                {
                    "op": "claim",
                    "task_id": task.task_id,
                    "worker": worker,
                    "now": now,
                    "lease_expires": now + self.lease_seconds,
                }
            )
            claimed.append(task)
        return claimed

    def _checked(self, task_id: str, worker: Optional[str],
                 allowed: Sequence[str], op: str) -> TaskRecord:
        task = self._tasks.get(task_id)
        if task is None:
            raise TaskTransitionError(f"{op}: unknown task {task_id!r}")
        if task.status not in allowed:
            raise TaskTransitionError(
                f"{op}: task {task_id} is {task.status!r}, "
                f"expected one of {tuple(allowed)}"
            )
        if worker is not None and task.worker != worker:
            raise TaskTransitionError(
                f"{op}: task {task_id} is held by {task.worker!r}, "
                f"not {worker!r}"
            )
        return task

    def start(self, task_id: str, worker: str,
              now: Optional[float] = None) -> None:
        """Acknowledge a claim: the worker began computing (claimed -> running)."""
        self._checked(task_id, worker, (CLAIMED,), "start")
        self._record({"op": "start", "task_id": task_id, "worker": worker,
                      "now": self._now(now)})

    def heartbeat(self, task_id: str, worker: str,
                  now: Optional[float] = None) -> float:
        """Extend the lease of a claimed/running task; returns the new deadline."""
        now = self._now(now)
        self._checked(task_id, worker, (CLAIMED, RUNNING), "heartbeat")
        deadline = now + self.lease_seconds
        self._record({"op": "heartbeat", "task_id": task_id, "worker": worker,
                      "now": now, "lease_expires": deadline})
        return deadline

    def complete(self, task_id: str, worker: str, result: Dict[str, Any],
                 now: Optional[float] = None) -> None:
        """Finish a task successfully and cache its result under the task key."""
        self._checked(task_id, worker, (CLAIMED, RUNNING), "complete")
        self._record({"op": "complete", "task_id": task_id, "worker": worker,
                      "now": self._now(now), "result": result})

    def fail(self, task_id: str, worker: str, error: str,
             now: Optional[float] = None) -> TaskRecord:
        """Report a task failure; requeues with backoff or errors out terminally."""
        now = self._now(now)
        task = self._checked(task_id, worker, (CLAIMED, RUNNING), "fail")
        self._requeue(task, error=error, now=now)
        return task

    def _requeue(
        self, task: TaskRecord, error: str, now: float, *, expired: bool = False
    ) -> None:
        """The one requeue/backoff path shared by ``fail`` and lease expiry.

        Emits the single ``requeue`` journal op both callers share:
        terminality (``attempts > max_retries``), the exponential
        backoff eligibility delay, the reporting worker and whether the
        requeue came from a lease expiry (``expired``) are all decided
        here, so the two failure paths cannot drift apart.
        """
        terminal = task.attempts > task.max_retries
        delay = self.backoff_base * self.backoff_factor ** (task.attempts - 1)
        self._record(
            {
                "op": "requeue",
                "task_id": task.task_id,
                "worker": task.worker,
                "error": error,
                "terminal": terminal,
                "expired": expired,
                "not_before": now + delay,
                "now": now,
            }
        )

    def expire_leases(self, now: Optional[float] = None) -> List[TaskRecord]:
        """Requeue every claimed/running task whose lease deadline passed.

        This is the crashed-worker recovery path: a worker that died
        after claiming never completes nor heartbeats, so its tasks
        return to the queue here (or reach terminal ``errored`` once
        the retry budget is spent).
        """
        from repro.obs import obs_counter

        now = self._now(now)
        expired = [
            t for t in self._tasks.values()
            if t.status in (CLAIMED, RUNNING)
            and t.lease_expires is not None and t.lease_expires < now
        ]
        for task in sorted(expired, key=lambda t: t.submit_index):
            obs_counter("service.lease_expiries")
            self._note("lease_expiry", now, task=task.task_id,
                       worker=task.worker)
            self._requeue(task, error=f"lease expired (worker {task.worker})",
                          now=now, expired=True)
        return expired

    def cancel(self, task_id: str, now: Optional[float] = None) -> None:
        """Withdraw a live task (any of waiting/claimed/running)."""
        self._checked(task_id, None, LIVE_STATUSES, "cancel")
        self._record({"op": "cancel", "task_id": task_id,
                      "now": self._now(now)})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, task_id: str) -> TaskRecord:
        """Look one task up by id (raises for unknown ids)."""
        task = self._tasks.get(task_id)
        if task is None:
            raise TaskTransitionError(f"unknown task {task_id!r}")
        return task

    def task_for_key(self, key: str) -> Optional[TaskRecord]:
        """The task currently owning a cache key, if any."""
        task_id = self._by_key.get(key)
        return self._tasks.get(task_id) if task_id is not None else None

    def result_for_key(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result payload for a completed key, if any."""
        return self._results.get(key)

    def tasks(self, status: Optional[str] = None) -> List[TaskRecord]:
        """All tasks (optionally filtered by status), in submit order."""
        if status is not None and status not in ALL_STATUSES:
            raise ServiceError(
                f"unknown status {status!r}; expected one of {ALL_STATUSES}"
            )
        out = [
            t for t in self._tasks.values()
            if status is None or t.status == status
        ]
        return sorted(out, key=lambda t: t.submit_index)

    def worker_heartbeats(self) -> Dict[str, float]:
        """Last store-contact time per worker (claim/start/heartbeat/
        complete/fail), rebuilt identically by journal replay.

        >>> s = StateStore()
        >>> _ = s.submit({}, key="k", now=0.0)
        >>> _ = s.claim("w0", now=1.0)
        >>> s.worker_heartbeats()
        {'w0': 1.0}
        """
        return dict(self._worker_heartbeats)

    def counts(self) -> Dict[str, int]:
        """Task counts per lifecycle status (zero statuses omitted).

        >>> s = StateStore()
        >>> _ = s.submit({}, key="k", now=0.0)
        >>> s.counts()
        {'waiting': 1}
        """
        out: Dict[str, int] = {}
        for status in ALL_STATUSES:
            n = sum(1 for t in self._tasks.values() if t.status == status)
            if n:
                out[status] = n
        return out

    def oldest_waiting_age(self, now: Optional[float] = None) -> float:
        """Age of the longest-waiting eligible task (0.0 for an empty queue).

        >>> s = StateStore()
        >>> _ = s.submit({}, key="k", now=1.0)
        >>> s.oldest_waiting_age(now=4.0)
        3.0
        """
        now = self._now(now)
        waiting = [t for t in self._tasks.values() if t.status == WAITING]
        if not waiting:
            return 0.0
        return max(0.0, now - min(t.waiting_since for t in waiting))

    def render_status(self, now: Optional[float] = None) -> str:
        """Human-readable queue dashboard (the ``repro status`` output).

        Beyond the per-task table this surfaces the service health
        signals — per-worker last-heartbeat age with its
        live/degraded/stuck verdict and the oldest-waiting queue age —
        sourced from the same model the telemetry rollups use
        (:mod:`repro.obs.telemetry.health`).
        """
        from repro.obs.telemetry.health import health_from_store
        from repro.utils.reports import TableFormatter

        now = self._now(now)
        lines = [
            f"statestore: {len(self._tasks)} task(s), "
            f"{len(self._results)} cached result(s)"
            + (f" — journal {self._journal}" if self._journal else " (in-memory)")
        ]
        counts = self.counts()
        if counts:
            lines.append("  " + "  ".join(f"{k}={v}" for k, v in counts.items()))
        if counts.get(WAITING):
            lines.append(
                f"  oldest waiting task: {self.oldest_waiting_age(now):g}s"
            )
        if self._tasks:
            table = TableFormatter(
                ["task", "status", "prio", "attempts", "client", "worker", "key"],
                title="tasks",
            )
            for t in self.tasks():
                table.add_row([
                    t.task_id, t.status, t.priority,
                    f"{t.attempts}/{t.max_retries + 1}",
                    t.client, t.worker or "-", t.key[:16],
                ])
            lines += ["", table.render()]
        health = health_from_store(self, now)
        if health:
            table = TableFormatter(
                ["worker", "last heartbeat", "age", "state", "live tasks"],
                title="workers",
            )
            for row in health:
                table.add_row([
                    row.worker, f"t={row.last_heartbeat:g}",
                    f"{row.age:g}s", row.state, row.live_tasks,
                ])
            lines += ["", table.render()]
        return "\n".join(lines)
