"""Alchemiscale-style contract suite for the service statestore.

Pins the task-lifecycle semantics the whole service layer rests on
(DESIGN §12.2): priority-then-FIFO claiming, impossible double-claims,
lease expiry, bounded retry with backoff, terminal ``errored``,
idempotent content-addressed resubmission, per-client quotas and
byte-faithful journal replay.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    ArtifactError,
    QuotaExceededError,
    ServiceError,
    TaskTransitionError,
)
from repro.service import (
    CANCELLED,
    CLAIMED,
    COMPLETE,
    ERRORED,
    RUNNING,
    WAITING,
    StateStore,
)


def make_store(**kwargs):
    kwargs.setdefault("lease_seconds", 10.0)
    kwargs.setdefault("backoff_base", 1.0)
    kwargs.setdefault("backoff_factor", 2.0)
    return StateStore(**kwargs)


def submit(store, key, **kwargs):
    kwargs.setdefault("now", 0.0)
    return store.submit({"job": key}, key=key, **kwargs)


class TestSubmit:
    def test_submit_creates_waiting_task(self):
        store = make_store()
        out = submit(store, "k1")
        assert out.fresh and not out.cache_hit and not out.deduplicated
        assert out.task.status == WAITING
        assert out.task.key == "k1"
        assert out.task.attempts == 0

    def test_task_ids_are_sequential(self):
        store = make_store()
        ids = [submit(store, f"k{i}").task.task_id for i in range(3)]
        assert ids == ["t-000001", "t-000002", "t-000003"]

    def test_submit_records_client_and_priority(self):
        store = make_store()
        task = submit(store, "k1", client="alice", priority=7).task
        assert task.client == "alice"
        assert task.priority == 7

    def test_negative_max_retries_rejected(self):
        store = make_store()
        with pytest.raises(ServiceError):
            submit(store, "k1", max_retries=-1)


class TestClaim:
    def test_claim_respects_priority_then_fifo(self):
        store = make_store()
        submit(store, "low-a", priority=0)
        submit(store, "high", priority=5)
        submit(store, "low-b", priority=0)
        order = [t.key for t in store.claim("w0", limit=3, now=1.0)]
        assert order == ["high", "low-a", "low-b"]

    def test_claim_marks_task_claimed(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        assert task.status == CLAIMED
        assert task.worker == "w0"
        assert task.attempts == 1
        assert task.lease_expires == pytest.approx(11.0)

    def test_double_claim_impossible(self):
        store = make_store()
        submit(store, "k1")
        assert store.claim("w0", now=1.0)
        assert store.claim("w1", now=1.0) == []

    def test_claim_limit_bounds_batch(self):
        store = make_store()
        for i in range(5):
            submit(store, f"k{i}")
        assert len(store.claim("w0", limit=2, now=1.0)) == 2
        assert len(store.claim("w1", limit=10, now=1.0)) == 3

    def test_claim_skips_backed_off_tasks(self):
        store = make_store()
        submit(store, "k1", max_retries=3)
        (task,) = store.claim("w0", now=1.0)
        store.fail(task.task_id, "w0", "boom", now=2.0)
        # backoff after attempt 1 is base * factor**0 = 1s -> eligible at 3.0
        assert store.claim("w1", now=2.5) == []
        assert [t.key for t in store.claim("w1", now=3.0)] == ["k1"]

    def test_claim_limit_must_be_positive(self):
        store = make_store()
        with pytest.raises(ServiceError):
            store.claim("w0", limit=0, now=1.0)

    def test_terminal_tasks_never_claimable(self):
        store = make_store()
        submit(store, "k1", max_retries=0)
        (task,) = store.claim("w0", now=1.0)
        store.fail(task.task_id, "w0", "boom", now=2.0)
        assert store.get(task.task_id).status == ERRORED
        assert store.claim("w1", now=100.0) == []


class TestWorkerLifecycle:
    def test_start_moves_claimed_to_running(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.start(task.task_id, "w0", now=1.5)
        assert store.get(task.task_id).status == RUNNING

    def test_start_by_wrong_worker_rejected(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        with pytest.raises(TaskTransitionError):
            store.start(task.task_id, "w1", now=1.5)

    def test_heartbeat_extends_lease(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        deadline = store.heartbeat(task.task_id, "w0", now=8.0)
        assert deadline == pytest.approx(18.0)
        assert store.expire_leases(now=12.0) == []

    def test_heartbeat_wrong_worker_rejected(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        with pytest.raises(TaskTransitionError):
            store.heartbeat(task.task_id, "w1", now=2.0)

    def test_heartbeat_on_waiting_task_rejected(self):
        store = make_store()
        out = submit(store, "k1")
        with pytest.raises(TaskTransitionError):
            store.heartbeat(out.task.task_id, "w0", now=1.0)

    def test_complete_stores_result(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {"alpha": 4.5}, now=2.0)
        assert store.get(task.task_id).status == COMPLETE
        assert store.result_for_key("k1") == {"alpha": 4.5}

    def test_complete_by_wrong_worker_rejected(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        with pytest.raises(TaskTransitionError):
            store.complete(task.task_id, "w1", {}, now=2.0)

    def test_complete_unclaimed_task_rejected(self):
        store = make_store()
        out = submit(store, "k1")
        with pytest.raises(TaskTransitionError):
            store.complete(out.task.task_id, "w0", {}, now=1.0)

    def test_complete_twice_rejected(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {}, now=2.0)
        with pytest.raises(TaskTransitionError):
            store.complete(task.task_id, "w0", {}, now=3.0)

    def test_unknown_task_rejected(self):
        store = make_store()
        with pytest.raises(TaskTransitionError):
            store.heartbeat("t-999999", "w0", now=1.0)
        with pytest.raises(TaskTransitionError):
            store.get("t-999999")


class TestRetryAndBackoff:
    def test_fail_requeues_with_backoff(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.fail(task.task_id, "w0", "kaboom", now=2.0)
        t = store.get(task.task_id)
        assert t.status == WAITING
        assert t.error == "kaboom"
        assert t.not_before == pytest.approx(3.0)  # 2.0 + 1*2**0

    def test_backoff_grows_exponentially(self):
        store = make_store()
        out = submit(store, "k1", max_retries=5)
        delays = []
        now = 0.0
        for _ in range(3):
            now = store.get(out.task.task_id).not_before + 0.5
            (task,) = store.claim("w0", now=now)
            store.fail(task.task_id, "w0", "x", now=now)
            delays.append(store.get(task.task_id).not_before - now)
        assert delays == [pytest.approx(1.0), pytest.approx(2.0),
                          pytest.approx(4.0)]

    def test_retry_budget_exhausts_to_errored(self):
        store = make_store()
        out = submit(store, "k1", max_retries=2)
        now = 0.0
        for attempt in range(3):  # 1 first try + 2 retries
            now = store.get(out.task.task_id).not_before + 0.5
            (task,) = store.claim("w0", now=now)
            store.fail(task.task_id, "w0", f"fail {attempt}", now=now)
        final = store.get(out.task.task_id)
        assert final.status == ERRORED
        assert final.attempts == 3
        assert final.terminal


class TestLeaseExpiry:
    def test_expired_lease_requeues(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        expired = store.expire_leases(now=12.0)  # lease was 1.0 + 10.0
        assert [t.task_id for t in expired] == [task.task_id]
        t = store.get(task.task_id)
        assert t.status == WAITING
        assert t.worker is None
        assert "lease expired" in t.error

    def test_unexpired_lease_untouched(self):
        store = make_store()
        submit(store, "k1")
        store.claim("w0", now=1.0)
        assert store.expire_leases(now=10.5) == []

    def test_expiry_applies_to_running_tasks(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.start(task.task_id, "w0", now=2.0)
        assert len(store.expire_leases(now=20.0)) == 1
        assert store.get(task.task_id).status == WAITING

    def test_expiry_respects_retry_budget(self):
        store = make_store()
        submit(store, "k1", max_retries=0)
        store.claim("w0", now=1.0)
        (expired,) = store.expire_leases(now=20.0)
        assert store.get(expired.task_id).status == ERRORED

    def test_requeued_task_claimable_by_other_worker(self):
        store = make_store()
        submit(store, "k1")
        store.claim("w0", now=1.0)
        store.expire_leases(now=12.0)
        eligible_at = store.get("t-000001").not_before
        (task,) = store.claim("w1", now=eligible_at + 0.1)
        assert task.worker == "w1"
        assert task.attempts == 2


class TestIdempotentResubmission:
    def test_completed_key_is_cache_hit(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {"alpha": 1.25}, now=2.0)
        out = submit(store, "k1", now=3.0)
        assert out.cache_hit
        assert out.result == {"alpha": 1.25}
        assert len(store.tasks()) == 1  # no new task enqueued

    def test_live_key_deduplicates(self):
        store = make_store()
        first = submit(store, "k1")
        out = submit(store, "k1", now=1.0)
        assert out.deduplicated
        assert out.task.task_id == first.task.task_id
        assert len(store.tasks()) == 1

    def test_claimed_key_still_deduplicates(self):
        store = make_store()
        submit(store, "k1")
        store.claim("w0", now=1.0)
        assert submit(store, "k1", now=2.0).deduplicated

    def test_errored_key_resubmission_revives(self):
        store = make_store()
        submit(store, "k1", max_retries=0)
        (task,) = store.claim("w0", now=1.0)
        store.fail(task.task_id, "w0", "boom", now=2.0)
        out = submit(store, "k1", now=3.0)
        assert out.resubmitted and out.fresh
        revived = store.get(task.task_id)
        assert revived.status == WAITING
        assert revived.attempts == 0
        assert revived.error == ""
        assert revived.resubmissions == 1

    def test_cancelled_key_resubmission_is_new_task(self):
        store = make_store()
        out = submit(store, "k1")
        store.cancel(out.task.task_id, now=1.0)
        fresh = submit(store, "k1", now=2.0)
        assert fresh.fresh and not fresh.resubmitted
        assert fresh.task.task_id != out.task.task_id


class TestCancel:
    def test_cancel_waiting_task(self):
        store = make_store()
        out = submit(store, "k1")
        store.cancel(out.task.task_id, now=1.0)
        assert store.get(out.task.task_id).status == CANCELLED
        assert store.claim("w0", now=2.0) == []

    def test_cancel_running_task(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.start(task.task_id, "w0", now=1.5)
        store.cancel(task.task_id, now=2.0)
        assert store.get(task.task_id).status == CANCELLED

    def test_cancel_terminal_task_rejected(self):
        store = make_store()
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {}, now=2.0)
        with pytest.raises(TaskTransitionError):
            store.cancel(task.task_id, now=3.0)


class TestQuotas:
    def test_quota_blocks_excess_live_submissions(self):
        store = make_store()
        store.set_quota("alice", 2)
        submit(store, "k1", client="alice")
        submit(store, "k2", client="alice")
        with pytest.raises(QuotaExceededError) as exc:
            submit(store, "k3", client="alice")
        assert exc.value.client == "alice"
        assert exc.value.active == 2 and exc.value.quota == 2

    def test_quota_does_not_bind_other_clients(self):
        store = make_store()
        store.set_quota("alice", 1)
        submit(store, "k1", client="alice")
        assert submit(store, "k2", client="bob").fresh

    def test_completed_tasks_free_quota(self):
        store = make_store()
        store.set_quota("alice", 1)
        submit(store, "k1", client="alice")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {}, now=2.0)
        assert submit(store, "k2", client="alice", now=3.0).fresh

    def test_cache_hits_and_dedups_do_not_consume_quota(self):
        store = make_store()
        store.set_quota("alice", 1)
        submit(store, "k1", client="alice")
        # dedup onto the live task is allowed even at the quota edge
        assert submit(store, "k1", client="alice", now=1.0).deduplicated

    def test_negative_quota_rejected(self):
        store = make_store()
        with pytest.raises(ServiceError):
            store.set_quota("alice", -1)


class TestJournalPersistence:
    def test_replay_reproduces_state(self, tmp_path):
        path = tmp_path / "svc" / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1", priority=3)
        submit(store, "k2")
        store.set_quota("alice", 2)
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {"alpha": 2.5}, now=2.0)

        replayed = make_store(path=path)
        assert replayed.counts() == store.counts()
        assert replayed.result_for_key("k1") == {"alpha": 2.5}
        assert replayed.get("t-000002").status == WAITING
        assert [t.task_id for t in replayed.tasks()] == ["t-000001", "t-000002"]
        with pytest.raises(QuotaExceededError):
            submit(replayed, "k3", client="alice", now=3.0)
            submit(replayed, "k4", client="alice", now=3.0)
            submit(replayed, "k5", client="alice", now=3.0)

    def test_replay_preserves_claims_for_crash_recovery(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1")
        store.claim("w0", now=1.0)
        del store  # simulate service-process crash

        recovered = make_store(path=path)
        t = recovered.get("t-000001")
        assert t.status == CLAIMED and t.worker == "w0"
        recovered.expire_leases(now=12.0)
        assert recovered.get("t-000001").status == WAITING

    def test_journal_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "a" / "b" / "journal.jsonl"
        make_store(path=path)
        assert path.exists()

    def test_corrupt_journal_raises_service_error(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"op": "submit"\n')
        with pytest.raises(ServiceError):
            make_store(path=path)

    def test_journal_lines_are_valid_sorted_json(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        store.complete(task.task_id, "w0", {"x": 1}, now=2.0)
        for line in path.read_text().splitlines():
            doc = json.loads(line)
            assert line == json.dumps(doc, sort_keys=True)


class TestTornJournalTail:
    """A crash mid-append leaves an unterminated final line."""

    @staticmethod
    def _journal(tmp_path):
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1")
        (task,) = store.claim("w0", now=1.0)
        return path, store, task

    def test_unparsable_tail_is_truncated_and_noted(self, tmp_path):
        from repro.obs.telemetry import TelemetrySink

        path, store, _ = self._journal(tmp_path)
        intact = path.read_bytes()
        event = json.dumps({"op": "submit", "task": "t-000002"}, sort_keys=True)
        path.write_bytes(intact + event[:17].encode())

        sink = TelemetrySink()
        recovered = make_store(path=path, telemetry=sink)
        assert path.read_bytes() == intact
        assert recovered.counts() == store.counts()
        (note,) = [e for e in sink.events if e["kind"] == "journal_truncated"]
        assert note["line"] == 3 and note["dropped_bytes"] == 17

    def test_truncation_without_sink_is_silent(self, tmp_path):
        path, _, _ = self._journal(tmp_path)
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"op": "comp')
        make_store(path=path)
        assert path.read_bytes() == intact

    def test_parsable_tail_is_kept_and_terminated(self, tmp_path):
        path, store, task = self._journal(tmp_path)
        store.start(task.task_id, "w0", now=2.0)
        data = path.read_bytes()
        assert data.endswith(b"\n")
        path.write_bytes(data[:-1])

        recovered = make_store(path=path)
        assert path.read_bytes() == data
        assert recovered.get(task.task_id).status == RUNNING

    def test_append_and_replay_after_truncation(self, tmp_path):
        path, store, task = self._journal(tmp_path)
        path.write_bytes(path.read_bytes() + b'{"now": 2.0, "op": "sta')

        recovered = make_store(path=path)
        recovered.start(task.task_id, "w0", now=2.0)
        recovered.complete(task.task_id, "w0", {"alpha": 1.5}, now=3.0)
        for line in path.read_text().splitlines():
            json.loads(line)

        again = make_store(path=path)
        assert again.get(task.task_id).status == COMPLETE
        assert again.result_for_key("k1") == {"alpha": 1.5}
        assert again.counts() == recovered.counts()

    def test_torn_line_before_the_tail_still_raises(self, tmp_path):
        path, _, _ = self._journal(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text(lines[0][:10] + "\n" + lines[1] + "\n")
        with pytest.raises(ServiceError, match=":1:"):
            make_store(path=path)


class TestArtifactGuard:
    """Satellite fix: the overwrite guard covers the journal path."""

    def test_fresh_over_existing_journal_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        make_store(path=path)
        with pytest.raises(ArtifactError, match="--force"):
            make_store(path=path, fresh=True)

    def test_fresh_with_force_truncates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1")
        fresh = make_store(path=path, fresh=True, force=True)
        assert fresh.tasks() == []
        assert path.read_text() == ""

    def test_directory_path_refused(self, tmp_path):
        with pytest.raises(ArtifactError):
            make_store(path=tmp_path, fresh=True)

    def test_cli_fresh_collision_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "journal.jsonl"
        make_store(path=path)
        rc = main(["status", "--store", str(path), "--fresh"])
        assert rc == 2
        assert "--force" in capsys.readouterr().err


class TestQueriesAndRendering:
    def test_tasks_filter_validates_status(self):
        store = make_store()
        with pytest.raises(ServiceError):
            store.tasks("bogus")

    def test_counts_and_tasks_by_status(self):
        store = make_store()
        submit(store, "k1")
        submit(store, "k2")
        store.claim("w0", now=1.0)
        assert store.counts() == {"waiting": 1, "claimed": 1}
        assert [t.key for t in store.tasks(WAITING)] == ["k2"]

    def test_task_for_key_lookup(self):
        store = make_store()
        out = submit(store, "k1")
        assert store.task_for_key("k1").task_id == out.task.task_id
        assert store.task_for_key("missing") is None

    def test_render_status_mentions_tasks_and_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        store = make_store(path=path)
        submit(store, "k1", client="alice")
        text = store.render_status()
        assert "t-000001" in text and "alice" in text
        assert str(path) in text

    def test_invalid_construction_parameters(self):
        with pytest.raises(ServiceError):
            StateStore(lease_seconds=0.0)
        with pytest.raises(ServiceError):
            StateStore(backoff_factor=0.5)
