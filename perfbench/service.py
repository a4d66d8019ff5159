"""The ``service-campaign`` workload: resume, submit, drain, fetch, roll up.

A store whose journal holds ``N_HISTORY`` completed tasks is resumed
(journal replay) with a telemetry sink attached.  One client then
submits, in a closed loop, ``N_HITS`` resubmissions of history items
(cache hits), ``N_FRESH`` new replicates with distinct seeds over a few
small molecules, and ``N_DUPS`` in-batch repeats of those (dedups).
Two workers drain the queue in fleet waves of up to 32 tasks, as
``repro serve --fleet 32 --workers 2`` does.  The campaign then fetches
every request's result and runs the SLO rollup and alert rules.

The history is written before timing (:func:`prepare`) in its own
process, so the campaign process starts with no warm physics caches.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from checks import check_physics, check_service, load_references
from physics import fill_fraction, install_layers as install_physics, physics_layer_metrics
from spans import Recorder, totals, unspanned_fraction
from stats import median, percentile, steal_seconds, tail_percentile
from traffic import Traffic, generate

N_HISTORY = 10_000
N_HITS = 1_000
N_FRESH = 64
N_DUPS = 16
WORKERS = 2
FLEET = 32
#: Rollup window, the ``repro serve --slo-window`` default.
SLO_WINDOW = 4.0
#: H2 bond lengths (bohr) of the catalogue, plus water.
H2_BONDS = (1.30, 1.35, 1.40, 1.45)
ENTRIES = tuple(f"h2-{b:.2f}" for b in H2_BONDS) + ("water",)


def traffic(seed: int) -> Traffic:
    return generate(seed, ENTRIES, n_history=N_HISTORY, n_hits=N_HITS,
                    n_fresh=N_FRESH, n_dups=N_DUPS)


def _structure(entry: str):
    from repro.atoms import hydrogen_molecule, water

    if entry == "water":
        return water()
    return hydrogen_molecule(float(entry.split("-", 1)[1]))


def _request(entry: str, seed: int, structures: Dict[str, Any]):
    from repro.config import get_settings
    from repro.service import JobRequest

    return JobRequest(molecule=structures[entry],
                      settings=get_settings("minimal", backend="numpy"),
                      client="campaign", seed=seed)


def prepare(seed: int, journal: Path) -> Dict[str, Any]:
    """Write the seeded history journal through the public service API.

    Each catalogue entry's physics runs once; every history task on
    that entry completes with that result, stamped with its own key and
    seed exactly as the worker's ``result_payload`` stamps it.
    """
    from repro.core import PerturbationSimulator
    from repro.obs.report import collect_provenance
    from repro.service import StateStore, submit_job
    from repro.service.worker import result_payload

    t0 = time.perf_counter()
    commit = collect_provenance().commit
    structures = {e: _structure(e) for e in ENTRIES}
    refs = load_references()
    store = StateStore(journal, fresh=True, force=True)
    history = traffic(seed).history
    requests = [_request(e, s, structures) for e, s in history]
    for i, req in enumerate(requests):
        submit_job(store, req, commit=commit, now=float(i))
    now = float(len(requests))
    tasks = store.claim("prep", limit=len(requests), now=now)
    templates: Dict[str, Dict[str, Any]] = {}
    problems: List[str] = []
    first: Dict[str, Any] = {}
    for (entry, _), req in zip(history, requests):
        first.setdefault(entry, req)
    for entry, req in first.items():
        physics = PerturbationSimulator(req.structure(), req.settings).run_physics()
        problems += [f"history {entry}: {p}" for p in check_physics(
            physics.ground_state.total_energy, physics.polarizability, refs[entry])]
        templates[entry] = result_payload(tasks[0], req.structure(),
                                          req.settings, physics)
    for task, (entry, s) in zip(tasks, history):
        result = json.loads(json.dumps(templates[entry]))
        result["task"]["key"] = task.key
        result["provenance"]["seed"] = s
        store.start(task.task_id, "prep", now=now)
        store.complete(task.task_id, "prep", result, now=now)
    return {"prep_s": time.perf_counter() - t0, "commit": commit,
            "journal_mb": journal.stat().st_size / 1e6, "problems": problems}


def open_store(journal: Path, sidecar: Path, seed: int):
    """Resume the store (journal replay) and attach a telemetry sink,
    as ``repro serve`` does."""
    from repro.obs.telemetry import TelemetrySink
    from repro.service import StateStore

    store = StateStore(journal)
    sink = TelemetrySink(sidecar, fresh=True)
    sink.write_provenance(seed=seed)
    store.attach_telemetry(sink)
    return store, sink


def setup_seconds(journal: Path, sidecar: Path, seed: int) -> float:
    """Wall time of one :func:`open_store`."""
    t0 = time.perf_counter()
    open_store(journal, sidecar, seed)
    return time.perf_counter() - t0


def _install(rec: Recorder, fleet_calls: List[Any]) -> None:
    """Wrap the service layers (and, for the drain's physics, the
    physics layers) at their public entry points."""
    import repro.obs.report as report
    import repro.service.jobs as jobs
    import repro.service.worker as worker
    from repro.fleet import FleetDriver
    from repro.service import StateStore

    install_physics(rec)
    rec.wrap(StateStore, "__init__", "statestore.open")
    rec.wrap(StateStore, "submit", "statestore.submit")
    rec.wrap(StateStore, "claim", "statestore.claim")
    rec.wrap(StateStore, "expire_leases", "statestore.expire_leases")
    rec.wrap(StateStore, "tasks", "statestore.tasks")
    rec.wrap(jobs, "submit_job", "jobs.submit")
    rec.wrap(jobs, "cache_key", "jobs.cache_key")
    rec.wrap(report, "collect_provenance", "provenance")
    rec.wrap(worker, "result_payload", "worker.result_payload")
    rec.wrap(FleetDriver, "run_tasks", "fleet.run_tasks", returns=fleet_calls)


def _phase(rec: Optional[Recorder], name: str):
    from contextlib import nullcontext

    return rec.span(name) if rec is not None else nullcontext()


def run(seed: int, journal: Path, sidecar: Path, trace: bool) -> Dict[str, Any]:
    """One campaign over a prepared journal (which it appends to)."""
    import repro.service.jobs as jobs
    from repro.obs.telemetry import AlertEngine, overall, rollup, window_origin
    from repro.service import WorkerPool

    plan = traffic(seed)
    structures = {e: _structure(e) for e in ENTRIES}
    requests = [_request(str(r["entry"]), int(r["seed"]), structures)
                for r in plan.requests]
    # Only the size: reading the journal here would warm the replay.
    size_before = journal.stat().st_size
    rec: Optional[Recorder] = Recorder() if trace else None
    fleet_calls: List[Any] = []
    if rec is not None:
        _install(rec, fleet_calls)
    latencies: List[float] = []
    submitted_at: List[float] = []
    outcomes: List[str] = []
    keys: List[str] = []
    try:
        with _phase(rec, "campaign") as root:
            steal0 = steal_seconds()
            t_open = time.perf_counter()
            with _phase(rec, "setup"):
                store, sink = open_store(journal, sidecar, seed)
            setup_s = time.perf_counter() - t_open
            with _phase(rec, "submit"):
                for req in requests:
                    t0 = time.perf_counter()
                    out = jobs.submit_job(store, req)
                    t1 = time.perf_counter()
                    latencies.append(t1 - t0)
                    submitted_at.append(t1)
                    keys.append(out.task.key)
                    outcomes.append("hit" if out.cache_hit else
                                    "dup" if out.deduplicated else
                                    "fresh" if out.fresh else "resubmit")
            t_drain = time.perf_counter()
            with _phase(rec, "drain"):
                pool = WorkerPool(store, n_workers=WORKERS, fleet=FLEET)
                report = pool.run_until_idle()
            drain_s = time.perf_counter() - t_drain
            t_fetch = time.perf_counter()
            with _phase(rec, "fetch"):
                results = []
                fetched_at = []
                for key in keys:
                    results.append(store.result_for_key(key))
                    fetched_at.append(time.perf_counter())
            with _phase(rec, "rollup"):
                t0 = window_origin(sink.events, SLO_WINDOW)
                windows = rollup(sink.events, SLO_WINDOW, t0=t0)
                alerts = AlertEngine().evaluate(windows, sink=sink)
                queue_wait_p50 = overall(sink.events, t0=t0).metric(
                    "queue_wait_p50")
            campaign_s = time.perf_counter() - t_open
            steal1 = steal_seconds()
    finally:
        if rec is not None:
            rec.uninstall()

    failed, problems = check_service(plan.requests, outcomes, results,
                                     load_references())
    if not report.idle or report.failed:
        problems.append(f"drain: {report.summary()}")
        failed = max(failed, 1)
    fresh_ttr = [fetched_at[i] - submitted_at[i]
                 for i, r in enumerate(plan.requests) if r["kind"] == "fresh"]
    p99 = tail_percentile(latencies, 99)
    if p99 is None:
        problems.append(f"{len(latencies)} submits are too few for a p99")
        p99 = float("nan")
    out: Dict[str, Any] = {
        "time_to_alpha_s": median(fresh_ttr),
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "submit_p50_ms": 1e3 * percentile(latencies, 50),
        "submit_p99_ms": 1e3 * p99,
        "submit_samples": len(latencies),
        "drain_tasks_per_s": report.completed / drain_s,
        "phase_s": {"setup": setup_s, "submit": t_drain - t_open - setup_s,
                    "drain": drain_s, "fetch+rollup": campaign_s - (t_fetch - t_open)},
        "steal_s": None if steal0 is None else steal1 - steal0,
        "alerts": len(alerts),
        "expected": plan.counts(),
        "attempted": len(plan.requests),
        "failed": failed,
        "problems": problems[:20],
    }
    if rec is not None:
        out["layers"] = _layer_metrics(rec, root.id, fleet_calls, outcomes,
                                       journal, size_before, sink, queue_wait_p50)
    return out


def _layer_metrics(rec, root, fleet_calls, outcomes, journal, size_before,
                   sink, queue_wait_p50) -> Dict[str, float]:
    from repro.fleet.driver import plan_fleet

    every = totals(rec.spans, root)

    def get(name, field="inclusive"):
        return getattr(every[name], field) if name in every else 0.0

    def per_call(name, field="inclusive"):
        calls = every[name].calls if name in every else 0
        return get(name, field) / calls if calls else 0.0

    groups = tasks = scf_it = cpscf_it = 0
    fills = []
    for args, outcome in fleet_calls:
        for group in plan_fleet(args[1]).groups:
            result = outcome.results[group.tasks[0].key]
            scf_it += result["scf_iterations"]
            cpscf_it += sum(result["cpscf_iterations"])
        groups += outcome.report.n_groups
        tasks += outcome.report.n_requests
        fills += [prof["sparsity"]["fill_fraction"]
                  for prof in outcome.report.profiles.values()]
    metrics = physics_layer_metrics(rec, root,
                                    (scf_it, cpscf_it, fill_fraction(fills)))
    metrics.update({
        "statestore.replay_s": get("statestore.open"),
        "statestore.journal_mb": journal.stat().st_size / 1e6,
        "jobs.cache_key_ms": 1e3 * per_call("jobs.cache_key", "self"),
        "provenance.calls": every["provenance"].calls if "provenance" in every else 0,
        "provenance.s": get("provenance"),
        "statestore.submit_us": 1e6 * per_call("statestore.submit"),
        "statestore.cache_hit_ratio": outcomes.count("hit") / len(outcomes),
        "statestore.claim_us": 1e6 * per_call("statestore.claim"),
        "statestore.appends": _appended_lines(journal, size_before),
        "statestore.expire_leases_s": get("statestore.expire_leases"),
        "statestore.tasks_scan_s": get("statestore.tasks"),
        "worker.result_payload_s": get("worker.result_payload"),
        "fleet.run_tasks_s": get("fleet.run_tasks"),
        "fleet.groups": groups,
        "fleet.tasks_per_group": tasks / groups if groups else 0.0,
        "telemetry.events": len(sink.events),
        "service.queue_wait_p50_s": queue_wait_p50,
        "telemetry.rollup_s": get("rollup"),
        "trace.unspanned_frac": unspanned_fraction(rec.spans, root),
    })
    return metrics


def _appended_lines(journal: Path, size_before: int) -> int:
    """Journal lines written after the file was ``size_before`` bytes."""
    with journal.open("rb") as fh:
        fh.seek(size_before)
        return fh.read().count(b"\n")
