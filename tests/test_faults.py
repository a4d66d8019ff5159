"""Fault injection, retry/backoff, degradation, checkpoint-restart.

The unmarked tests are the fast smoke profile and run in tier-1; the
``chaos``-marked sweeps are deselected by default (``make chaos``).
"""

import numpy as np
import pytest

from repro.comm import (
    BaselineRowwiseAllreduce,
    PackedAllreduce,
    PackedHierarchicalAllreduce,
    ResilientReduction,
    default_ladder,
)
from repro.dfpt.response import DFPTSolver
from repro.dft.scf import SCFDriver
from repro.atoms import hydrogen_molecule
from repro.errors import (
    CollectiveTimeoutError,
    CommunicationError,
    FaultInjectionError,
    ShmCorruptionError,
)
from repro.runtime import (
    CycleFaultInjector,
    FaultPlan,
    FaultRates,
    HPC1_SUNWAY,
    HPC2_AMD,
    RetryPolicy,
    ScheduledFault,
)
from repro.testing import run_chaos


def serial_sum(buffers):
    """Rank-ascending accumulation — the collectives' exact order."""
    out = buffers[0].copy()
    for b in buffers[1:]:
        out = out + b
    return out


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        for _ in range(2):
            plans = [
                FaultPlan(seed=7, rates=FaultRates(message_corruption=0.5))
                for _ in range(2)
            ]
            verdicts = [
                [
                    p.collective_fault(f"allreduce[{i}]", i, 0, range(4))
                    for i in range(20)
                ]
                for p in plans
            ]
            assert [
                (e.kind if e else None) for e in verdicts[0]
            ] == [(e.kind if e else None) for e in verdicts[1]]

    def test_different_seeds_differ(self):
        def kinds(seed):
            p = FaultPlan(seed=seed, rates=FaultRates(message_corruption=0.5))
            return tuple(
                (e.kind if e else None)
                for i in range(40)
                for e in [p.collective_fault(f"allreduce[{i}]", i, 0, range(4))]
            )

        assert kinds(1) != kinds(2)

    def test_schedule_fires_at_exact_call(self):
        plan = FaultPlan(schedule=[ScheduledFault("message_drop", call_index=3)])
        hits = [
            plan.collective_fault(f"allreduce[{i}]", i, 0, range(4)) for i in range(6)
        ]
        assert [e.kind if e else None for e in hits] == [
            None, None, None, "message_drop", None, None,
        ]
        # Non-persistent: the retry attempt succeeds.
        assert plan.collective_fault("allreduce[3]", 3, 1, range(4)) is None

    def test_persistent_schedule_fires_every_attempt(self):
        plan = FaultPlan(
            schedule=[ScheduledFault("message_corruption", 0, persistent=True)]
        )
        for attempt in range(5):
            ev = plan.collective_fault("allreduce[0]", 0, attempt, range(4))
            assert ev is not None and ev.kind == "message_corruption"

    def test_rank_failure_budget(self):
        plan = FaultPlan(
            seed=3, rates=FaultRates(rank_failure=1.0), max_rank_failures=1
        )
        events = [
            plan.collective_fault(f"allreduce[{i}]", i, 0, range(4)) for i in range(5)
        ]
        assert sum(1 for e in events if e and e.kind == "rank_failure") == 1

    def test_rate_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultRates(message_corruption=1.5)
        with pytest.raises(FaultInjectionError):
            FaultRates(message_corruption=0.6, message_drop=0.6)
        with pytest.raises(FaultInjectionError):
            ScheduledFault("meteor_strike", 0)
        with pytest.raises(FaultInjectionError):
            RetryPolicy(max_retries=-1)

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(base_backoff=1e-4, backoff_factor=2.0)
        assert policy.backoff(3) == pytest.approx(8e-4)


class TestSimCommResilience:
    def test_no_plan_means_no_overhead(self, make_cluster, rng):
        cl = make_cluster(4)
        cl.comm().allreduce([rng.normal(size=5) for _ in range(4)])
        assert cl.stats.retries == 0 and cl.stats.backoff_time == 0.0

    def test_corruption_is_retried_bit_exact(self, make_cluster, rng):
        plan = FaultPlan(schedule=[ScheduledFault("message_corruption", 0)])
        cl = make_cluster(4, fault_plan=plan)
        bufs = [rng.normal(size=(3, 2)) for _ in range(4)]
        out = cl.comm().allreduce(bufs)
        assert np.array_equal(out, serial_sum(bufs))
        assert cl.stats.retries == 1
        assert cl.stats.corrupted_collectives == 1
        assert cl.stats.backoff_time > 0

    def test_rank_failure_is_recovered(self, make_cluster, rng):
        plan = FaultPlan(schedule=[ScheduledFault("rank_failure", 0, rank=2)])
        cl = make_cluster(4, fault_plan=plan)
        bufs = [rng.normal(size=6) for _ in range(4)]
        out = cl.comm().allreduce(bufs)
        assert np.array_equal(out, serial_sum(bufs))
        assert cl.stats.rank_failures == 1
        assert cl.stats.recovery_time > 0
        assert not cl.failed_ranks  # healed

    def test_straggler_delays_but_succeeds(self, make_cluster, rng):
        plan = FaultPlan(schedule=[ScheduledFault("straggler", 0, rank=1)])
        cl = make_cluster(4, fault_plan=plan)
        bufs = [rng.normal(size=4) for _ in range(4)]
        out = cl.comm().allreduce(bufs)
        assert np.array_equal(out, serial_sum(bufs))
        assert cl.stats.straggler_events == 1
        assert cl.stats.straggler_time > 0
        assert cl.stats.retries == 0

    def test_persistent_fault_times_out(self, make_cluster, rng):
        plan = FaultPlan(
            schedule=[ScheduledFault("message_corruption", 0, persistent=True)]
        )
        cl = make_cluster(4, fault_plan=plan)
        with pytest.raises(CollectiveTimeoutError) as exc:
            cl.comm().allreduce([rng.normal(size=3) for _ in range(4)])
        assert exc.value.site == "allreduce[0]"
        assert cl.stats.retries == cl.retry_policy.max_retries + 1

    def test_timeout_budget_cuts_retries_short(self, make_cluster, rng):
        plan = FaultPlan(
            schedule=[ScheduledFault("message_corruption", 0, persistent=True)]
        )
        policy = RetryPolicy(max_retries=10, base_backoff=1.0, timeout=2.0)
        cl = make_cluster(4, fault_plan=plan, retry_policy=policy)
        with pytest.raises(CollectiveTimeoutError):
            cl.comm().allreduce([rng.normal(size=3) for _ in range(4)])
        assert cl.stats.retries < 10

    def test_all_collectives_are_guarded(self, make_cluster, rng):
        plan = FaultPlan(rates=FaultRates(collective_error=0.4), seed=5)
        cl = make_cluster(4, fault_plan=plan)
        comm = cl.comm()
        bufs = [rng.normal(size=4) for _ in range(4)]
        comm.allreduce(bufs)
        comm.bcast(bufs[0])
        comm.gather(bufs)
        comm.barrier()
        assert cl._collective_seq == 4  # each call consulted the plan

    def test_shared_window_corruption_raises(self, make_cluster, rng):
        plan = FaultPlan(schedule=[ScheduledFault("shm_corruption", 0)])
        cl = make_cluster(8, fault_plan=plan)
        from repro.runtime import SharedWindow

        win = SharedWindow(cl, (4,))
        with pytest.raises(ShmCorruptionError):
            win.accumulate_chunked(0, [np.ones(4)] * 8)


class TestResilientReduction:
    def test_default_ladder_respects_capabilities(self):
        assert [s.name for s in default_ladder(HPC2_AMD)] == [
            "packed_hierarchical", "packed", "baseline",
        ]
        assert [s.name for s in default_ladder(HPC1_SUNWAY)] == [
            "packed", "baseline",
        ]

    def test_fault_free_uses_primary(self, make_cluster, rng):
        cl = make_cluster(8)
        rows = [rng.normal(size=(6, 3)) for _ in range(8)]
        out, rep = ResilientReduction().reduce(cl, rows)
        assert rep.scheme == "packed_hierarchical"
        assert np.allclose(out, np.sum(rows, axis=0), atol=1e-12)

    def test_packed_degrades_to_baseline_bit_exact(self, rng, make_cluster):
        plan = FaultPlan(
            schedule=[ScheduledFault("message_corruption", 1, persistent=True)]
        )
        cl = make_cluster(6, base=HPC1_SUNWAY, fault_plan=plan)
        rows = [rng.normal(size=(10, 3)) for _ in range(6)]
        out, rep = ResilientReduction(
            [PackedAllreduce(rows_cap=3), BaselineRowwiseAllreduce()]
        ).reduce(cl, rows)
        assert rep.scheme == "baseline"
        assert np.array_equal(out, serial_sum(rows))  # degradation changes no bits
        assert len(cl.stats.degradations) == 1
        assert cl.stats.degradations[0].startswith("packed->baseline")

    def test_hierarchical_degrades_on_shm_corruption(self, make_cluster, rng):
        plan = FaultPlan(schedule=[ScheduledFault("shm_corruption", 0)])
        cl = make_cluster(64, fault_plan=plan)
        rows = [rng.normal(size=(8, 3)) for _ in range(64)]
        out, rep = ResilientReduction().reduce(cl, rows)
        assert rep.scheme == "packed"
        assert np.array_equal(out, serial_sum(rows))
        assert cl.stats.degradations[0].startswith("packed_hierarchical->packed")

    def test_ladder_exhaustion_raises(self, make_cluster, rng):
        # Every collective is persistently corrupted: nothing can finish.
        schedule = [
            ScheduledFault("message_corruption", i, persistent=True)
            for i in range(64)
        ]
        cl = make_cluster(4, fault_plan=FaultPlan(schedule=schedule))
        rows = [rng.normal(size=(4, 2)) for _ in range(4)]
        with pytest.raises(CommunicationError, match="exhausted"):
            ResilientReduction(
                [PackedAllreduce(rows_cap=2), BaselineRowwiseAllreduce()]
            ).reduce(cl, rows)

    def test_estimate_delegates_to_primary(self):
        est = ResilientReduction().estimate(HPC2_AMD, 256, 1000, 13 * 1024)
        ref = PackedHierarchicalAllreduce().estimate(HPC2_AMD, 256, 1000, 13 * 1024)
        assert est.scheme == ref.scheme and est.total_time == ref.total_time


class TestDriverCheckpointRestart:
    def test_scf_restart_is_bit_exact(self, minimal_settings, h2_ground_state):
        plan = FaultPlan(
            schedule=[ScheduledFault("cycle_fault", 1, site="scf")]
        )
        injector = CycleFaultInjector(plan)
        gs = SCFDriver(hydrogen_molecule(), minimal_settings).run(
            fault_injector=injector
        )
        assert gs.restarts == 1
        assert gs.total_energy == h2_ground_state.total_energy
        assert np.array_equal(gs.density_matrix, h2_ground_state.density_matrix)
        assert gs.iterations == h2_ground_state.iterations

    @staticmethod
    def _assert_cpscf_restart_bit_exact(settings, gs, cycle):
        """A fault at ``cycle`` of direction 2 changes nothing but restarts."""
        reference = DFPTSolver(gs, settings.cpscf).solve_direction(2)
        assert reference.iterations > cycle
        plan = FaultPlan(
            schedule=[ScheduledFault("cycle_fault", cycle, site="cpscf2")]
        )
        faulted = DFPTSolver(
            gs, settings.cpscf, fault_injector=CycleFaultInjector(plan)
        ).solve_direction(2)
        assert faulted.restarts == 1
        assert faulted.iterations == reference.iterations
        assert np.array_equal(
            faulted.response_density_matrix, reference.response_density_matrix
        )

    def test_cpscf_restart_is_bit_exact(self, minimal_settings, h2_ground_state):
        self._assert_cpscf_restart_bit_exact(minimal_settings, h2_ground_state, 1)

    def test_cpscf_restart_with_diis_history_is_bit_exact(
        self, minimal_settings, h2_ground_state
    ):
        """Cycle 3: the DIIS history already holds two entries."""
        self._assert_cpscf_restart_bit_exact(minimal_settings, h2_ground_state, 3)

    def test_unsurvivable_cycle_raises(self, minimal_settings):
        plan = FaultPlan(
            schedule=[ScheduledFault("cycle_fault", 1, site="scf", persistent=True)]
        )
        injector = CycleFaultInjector(plan, max_restarts=2)
        with pytest.raises(FaultInjectionError, match="consecutive"):
            SCFDriver(hydrogen_molecule(), minimal_settings).run(
                fault_injector=injector
            )


class TestChaosHarness:
    def test_acceptance_criterion(self):
        """Fixed seed; >=1 rank failure + >=1 corrupted collective; the
        run completes, polarizability is bit-exact with the fault-free
        reference, and CommStats shows retries + the degradation path."""
        report = run_chaos(seed=2023)
        counts = report.event_counts()
        assert counts.get("rank_failure", 0) >= 1
        assert counts.get("message_corruption", 0) >= 1
        assert report.comm_stats.retries > 0
        assert report.comm_stats.rank_failures >= 1
        assert report.comm_stats.corrupted_collectives >= 1
        assert report.degradations  # the path taken is recorded
        assert report.scheme_used == "packed"
        assert report.reduction_bit_exact
        assert report.polarizability_bit_exact
        assert report.scf_restarts + report.cpscf_restarts > 0
        assert "bit-exact vs fault-free: YES" in report.summary()

    def test_chaos_is_deterministic(self):
        a = run_chaos(seed=11)
        b = run_chaos(seed=11)
        assert np.array_equal(a.polarizability, b.polarizability)
        assert a.comm_stats.retries == b.comm_stats.retries
        assert a.degradations == b.degradations
        assert [e.kind for e in a.fault_events] == [e.kind for e in b.fault_events]

    @pytest.mark.chaos
    @pytest.mark.parametrize("seed", range(20, 30))
    def test_randomized_seeds_recover_bit_exact(self, seed):
        report = run_chaos(seed=seed)
        assert report.polarizability_bit_exact
        assert report.reduction_max_abs_err < 1e-11


@pytest.mark.chaos
class TestChaosSweeps:
    """Long randomized sweeps (deselected by default; `make chaos`)."""

    def test_collectives_survive_random_fault_pressure(self, make_cluster):
        rates = FaultRates(
            message_corruption=0.15,
            message_drop=0.10,
            collective_error=0.10,
            straggler=0.15,
        )
        for seed in range(40):
            rng = np.random.default_rng(seed)
            cl = make_cluster(6, fault_plan=FaultPlan(seed=seed, rates=rates))
            bufs = [rng.normal(size=11) for _ in range(6)]
            try:
                out = cl.comm().allreduce(bufs)
            except CollectiveTimeoutError:
                continue  # a legal outcome under persistent bad luck
            assert np.array_equal(out, serial_sum(bufs))

    def test_resilient_reduction_under_random_faults(self, make_cluster):
        rates = FaultRates(
            rank_failure=0.05,
            message_corruption=0.10,
            straggler=0.10,
            shm_corruption=0.25,
        )
        for seed in range(25):
            rng = np.random.default_rng(1000 + seed)
            cl = make_cluster(
                64, fault_plan=FaultPlan(seed=seed, rates=rates, max_rank_failures=3)
            )
            rows = [rng.normal(size=(12, 4)) for _ in range(64)]
            out, rep = ResilientReduction().reduce(cl, rows)
            assert np.allclose(out, np.sum(rows, axis=0), atol=1e-11)
            if rep.scheme != "packed_hierarchical":
                assert cl.stats.degradations
