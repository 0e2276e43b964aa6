"""Traffic subsystem tests: generators, queues, schedulers, integration.

Marked ``traffic`` (tier-1; select just these with ``-m traffic``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.city.mac import ShardRoundRobin
from repro.core.config import SkyRANConfig
from repro.core.epoch import EpochTrigger
from repro.faults import FaultInjector, FaultPlan
from repro.lte.enodeb import ENodeB
from repro.lte.linkadapt import OuterLoopLinkAdaptation
from repro.lte.throughput import _THRESHOLDS, throughput_mbps
from repro.lte.ue import UE
from repro.sim.metrics import jain_fairness
from repro.traffic import (
    MACSimulation,
    QueueBank,
    available_schedulers,
    available_traffic_models,
    make_scheduler,
    make_traffic_model,
    run_tti_batch,
)
from repro.traffic.generators import BYTES_PER_TTI_PER_MBPS
from repro.traffic.simulate import rate_per_prb_bytes

pytestmark = pytest.mark.traffic

RESULT_FIELDS = ("grants", "served_bytes", "dropped_bytes", "backlog_end_bytes")


# -- registries -----------------------------------------------------------------


class TestRegistries:
    def test_traffic_models_registered(self):
        assert set(available_traffic_models()) >= {
            "full_buffer",
            "cbr",
            "poisson",
            "onoff_video",
        }

    def test_schedulers_registered(self):
        assert set(available_schedulers()) == {
            "round_robin",
            "proportional_fair",
            "max_min",
        }

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic model"):
            make_traffic_model("nope")
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("nope")

    def test_kwargs_filtered_like_interpolator_registry(self):
        # One config can carry the union of every model's knobs.
        cbr = make_traffic_model("cbr", rate_mbps=3.0, packet_bytes=100.0)
        assert cbr.rate_mbps == 3.0
        rr = make_scheduler("round_robin", time_constant_tti=7)
        assert rr.name == "round_robin"
        pf = make_scheduler("proportional_fair", time_constant_tti=7)
        assert pf.time_constant_tti == 7


# -- generators -----------------------------------------------------------------


class TestGenerators:
    def test_deterministic_per_seed_and_ue(self):
        model = make_traffic_model("poisson", rate_mbps=3.0)
        a = model.source(4, seed=1).offered_bytes(500)
        b = model.source(4, seed=1).offered_bytes(500)
        c = model.source(5, seed=1).offered_bytes(500)
        d = model.source(4, seed=2).offered_bytes(500)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    @pytest.mark.parametrize("name", ["poisson", "onoff_video"])
    def test_chunked_draws_continue_the_stream(self, name):
        model = make_traffic_model(name)
        chunked = model.source(2, seed=3)
        parts = np.concatenate([chunked.offered_bytes(137), chunked.offered_bytes(263)])
        whole = model.source(2, seed=3).offered_bytes(400)
        assert np.array_equal(parts, whole)

    def test_deterministic_sources_draw_no_entropy(self):
        # full_buffer and cbr must not even own a generator.
        for name in ("full_buffer", "cbr"):
            src = make_traffic_model(name).source(1, seed=0)
            assert not hasattr(src, "_rng")
        cbr = make_traffic_model("cbr", rate_mbps=2.0).source(1)
        assert np.all(cbr.offered_bytes(10) == 2.0 * BYTES_PER_TTI_PER_MBPS)
        fb = make_traffic_model("full_buffer").source(1)
        assert fb.full_buffer
        assert np.all(fb.offered_bytes(10) == 0.0)

    def test_poisson_mean_matches_rate(self):
        src = make_traffic_model("poisson", rate_mbps=4.0).source(1, seed=0)
        bytes_per_tti = src.offered_bytes(20000).mean()
        assert bytes_per_tti == pytest.approx(4.0 * BYTES_PER_TTI_PER_MBPS, rel=0.05)

    def test_onoff_duty_cycle(self):
        src = make_traffic_model(
            "onoff_video", rate_mbps=4.0, mean_on_s=2.0, mean_off_s=2.0
        ).source(1, seed=0)
        offered = src.offered_bytes(60000)
        duty = (offered > 0).mean()
        assert 0.3 < duty < 0.7

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            make_traffic_model("cbr", rate_mbps=0.0)
        with pytest.raises(ValueError):
            make_traffic_model("poisson", rate_mbps=-1.0)
        with pytest.raises(ValueError):
            make_traffic_model("onoff_video", mean_on_s=0.0)


# -- queues ---------------------------------------------------------------------


class TestQueueBank:
    def test_requires_sorted_unique_ids(self):
        with pytest.raises(ValueError):
            QueueBank((3, 1))
        with pytest.raises(ValueError):
            QueueBank((1, 1))
        with pytest.raises(ValueError):
            QueueBank(())

    def test_tail_drop_admission(self):
        q = QueueBank((1, 2), limit_bytes=100.0)
        q.backlog_bytes[:] = [90.0, 0.0]
        accepted, dropped = q.admit(np.array([50.0, 50.0]))
        assert np.array_equal(accepted, [10.0, 50.0])
        assert np.array_equal(dropped, [40.0, 0.0])
        # Pure function: admit() must not mutate the backlog.
        assert np.array_equal(q.backlog_bytes, [90.0, 0.0])

    def test_full_buffer_seeds_infinite_backlog(self):
        q = QueueBank((1,), full_buffer=True)
        assert np.isinf(q.backlog_bytes[0])
        assert q.total_backlog_bytes() == np.inf


# -- kernel vs reference --------------------------------------------------------


def _batch(
    scheduler_name,
    *,
    limit=0.0,
    full_buffer=False,
    n_tti=300,
    tti0=0,
    snr=(3.0, 8.0, 14.0, 20.0, -10.0),
    reference=False,
):
    ue_ids = tuple(range(1, len(snr) + 1))
    rates = rate_per_prb_bytes(np.array(snr))
    model = make_traffic_model("poisson", rate_mbps=5.0)
    if full_buffer:
        offered = np.zeros((len(ue_ids), n_tti))
    else:
        offered = np.stack(
            [model.source(u, seed=9).offered_bytes(n_tti) for u in ue_ids]
        )
    queues = QueueBank(ue_ids, limit_bytes=limit, full_buffer=full_buffer)
    result = run_tti_batch(
        bytes_per_prb=rates,
        offered_bytes=offered,
        scheduler=make_scheduler(scheduler_name),
        queues=queues,
        tti0=tti0,
        reference=reference,
    )
    return result, queues


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", ["round_robin", "proportional_fair", "max_min"])
    @pytest.mark.parametrize("limit", [0.0, 4000.0])
    def test_kernel_bit_identical_to_reference(self, name, limit):
        kernel, qk = _batch(name, limit=limit)
        reference, qr = _batch(name, limit=limit, reference=True)
        for f in RESULT_FIELDS:
            assert np.array_equal(getattr(kernel, f), getattr(reference, f)), f
        assert np.array_equal(qk.backlog_bytes, qr.backlog_bytes)
        assert np.array_equal(qk.dropped_bytes, qr.dropped_bytes)

    @pytest.mark.parametrize("name", ["round_robin", "max_min"])
    def test_full_buffer_slab_bit_identical(self, name):
        cases = (
            {},
            # Fewer TTIs than active UEs, starting mid-rotation: the
            # slab must pick the rotation of each TTI.  Tied rates
            # make each rotation's grants differ.
            {"snr": (8.0, 8.0, 8.0, 14.0, 14.0, 14.0), "n_tti": 4, "tti0": 4},
            {"n_tti": 0},
        )
        for case in cases:
            kernel, _ = _batch(name, full_buffer=True, **case)
            reference, _ = _batch(name, full_buffer=True, reference=True, **case)
            for f in RESULT_FIELDS:
                assert np.array_equal(getattr(kernel, f), getattr(reference, f)), (case, f)

    def test_zero_rate_ue_never_granted_or_served(self):
        kernel, _ = _batch("round_robin")
        assert kernel.grants[-1].sum() == 0  # UE 5 is at -10 dB
        assert kernel.served_bytes[-1].sum() == 0.0

    def test_finite_buffer_drops_are_counted(self):
        kernel, queues = _batch("round_robin", limit=2000.0)
        assert kernel.total_dropped_bytes() > 0.0
        assert np.all(queues.backlog_bytes <= 2000.0 + 1e-9)
        # Conservation: arrivals = served + dropped + final backlog.
        total_in = kernel.offered_bytes.sum()
        total_out = (
            kernel.served_bytes.sum()
            + kernel.dropped_bytes.sum()
            + queues.backlog_bytes.sum()
        )
        assert total_in == pytest.approx(total_out)

    def test_chunked_run_matches_single_batch(self):
        snr = {1: 6.0, 2: 12.0, 3: 18.0}

        def run(chunks):
            sim = MACSimulation(
                [1, 2, 3],
                traffic_model="poisson",
                scheduler="proportional_fair",
                seed=11,
                traffic_params={"rate_mbps": 6.0},
            )
            return [sim.run(snr, n) for n in chunks]

        whole = run([600])[0]
        parts = run([250, 350])
        assert np.array_equal(
            whole.served_bytes, np.concatenate([p.served_bytes for p in parts], axis=1)
        )
        assert np.array_equal(whole.backlog_end_bytes, parts[-1].backlog_end_bytes)


# -- scheduler properties (hypothesis) ------------------------------------------


snr_arrays = st.lists(
    st.floats(min_value=-20.0, max_value=30.0, allow_nan=False), min_size=1, max_size=8
)


class TestRoundRobinSlab:
    """A round-robin slab is its per-TTI grants stacked, dtype included."""

    N_PRB = 50

    @staticmethod
    def _stacked(grants, n_tti, tti0):
        cols = [np.asarray(grants(tti0 + t)) for t in range(n_tti)]
        return np.stack(cols, axis=1) if cols else None

    # n_active below, dividing and above n_prb; 0 and 1; tti0 on and
    # either side of a rotation wrap and far out.
    @pytest.mark.parametrize("n_active", [0, 1, 7, 10, 50, 64, 130])
    @pytest.mark.parametrize("wrap", [0, 1, 3])
    @pytest.mark.parametrize("tti0_offset", [-1, 0, 1, 2**40])
    def test_slab_equals_stacked_grants(self, n_active, wrap, tti0_offset):
        rng = np.random.default_rng(n_active + 7 * wrap)
        n = 160
        schedulable = np.zeros(n, dtype=bool)
        schedulable[rng.choice(n, n_active, replace=False)] = True
        rates = rng.uniform(1.0, 90.0, n)
        tti0 = max(0, wrap * n_active + tti0_offset)
        n_tti = 2 * n_active + 3

        rr = make_scheduler("round_robin")
        slab = rr.grants_slab(schedulable, rates, self.N_PRB, tti0, n_tti)
        want = self._stacked(
            lambda t: rr.grants(schedulable, rates, self.N_PRB, t), n_tti, tti0
        )
        ref = self._stacked(
            lambda t: rr.grants_reference(schedulable.tolist(), rates, self.N_PRB, t),
            n_tti,
            tti0,
        )
        assert slab.dtype == want.dtype == np.int64
        assert np.array_equal(slab, want) and np.array_equal(slab, ref)
        assert (slab.sum(axis=0) == (self.N_PRB if n_active else 0)).all()

        ranks = np.where(schedulable, np.cumsum(schedulable) - 1, -1)
        for sl in (slice(0, n), slice(40, 103), slice(150, 160)):
            shard = ShardRoundRobin(ranks=ranks[sl], n_active_global=n_active)
            got = shard.grants_slab(schedulable[sl], rates[sl], self.N_PRB, tti0, n_tti)
            per_tti = self._stacked(
                lambda t: shard.grants(schedulable[sl], rates[sl], self.N_PRB, t),
                n_tti,
                tti0,
            )
            assert got.dtype == np.int64
            assert np.array_equal(got, per_tti) and np.array_equal(got, slab[sl])

    def test_zero_ttis(self):
        schedulable = np.array([True, False, True])
        rr = make_scheduler("round_robin")
        assert rr.grants_slab(schedulable, np.ones(3), 50, 4, 0).shape == (3, 0)
        shard = ShardRoundRobin(ranks=np.array([0, -1, 1]), n_active_global=2)
        assert shard.grants_slab(schedulable, np.ones(3), 50, 4, 0).shape == (3, 0)


class TestProportionalFairShortcuts:
    """PF with at most one schedulable UE skips its heap, to the same grants."""

    @pytest.mark.parametrize("n_prb", [-1, 0, 1, 50])
    def test_lone_or_no_ue_matches_reference(self, n_prb):
        rates = np.array([12.5, 0.0, 40.0, 300.0, 7.0])
        fast = make_scheduler("proportional_fair")
        ref = make_scheduler("proportional_fair")
        masks = [np.zeros(5, dtype=bool)] + [np.eye(5, dtype=bool)[i] for i in range(5)]
        for t, mask in enumerate(masks * 3):
            g = fast.grants(mask, rates, n_prb, t)
            assert g.dtype == np.int64
            assert g.tolist() == ref.grants_reference(mask.tolist(), rates, n_prb, t)
            served = g * rates
            fast.update(served)
            ref.update_reference(served.tolist())
            assert fast._avg_bytes.tobytes() == ref._avg_bytes.tobytes()

    def test_update_before_grants_starts_from_zero(self):
        fast = make_scheduler("proportional_fair")
        ref = make_scheduler("proportional_fair")
        served = np.array([10.0, 0.0, 3.5])
        fast.update(served)
        ref.update_reference(served.tolist())
        assert fast._avg_bytes.tobytes() == ref._avg_bytes.tobytes()

    def test_sparse_traffic_kernel_matches_reference(self):
        # Light Poisson load: most TTIs have zero or one UE with data.
        ue_ids = tuple(range(1, 6))
        rates = rate_per_prb_bytes(np.array([3.0, 8.0, 14.0, 20.0, 25.0]))
        model = make_traffic_model("poisson", rate_mbps=0.5)
        offered = np.stack([model.source(u, seed=4).offered_bytes(400) for u in ue_ids])
        runs = []
        for reference in (False, True):
            queues = QueueBank(ue_ids, limit_bytes=0.0)
            runs.append(
                run_tti_batch(
                    bytes_per_prb=rates,
                    offered_bytes=offered,
                    scheduler=make_scheduler("proportional_fair"),
                    queues=queues,
                    reference=reference,
                )
            )
        kernel, reference = runs
        active = (kernel.grants > 0).sum(axis=0)
        assert (active <= 1).mean() > 0.5 and (active >= 2).any()
        for f in RESULT_FIELDS:
            got = getattr(kernel, f)
            assert np.array_equal(got, getattr(reference, f)), f
            assert got.flags.c_contiguous, f


class TestSchedulerProperties:
    @given(snr_arrays, st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_prb_conservation(self, snrs, tti):
        rates = rate_per_prb_bytes(np.array(snrs))
        schedulable = rates > 0.0
        for name in available_schedulers():
            grants = make_scheduler(name).grants(schedulable, rates, 50, tti)
            if schedulable.any():
                assert grants.sum() == 50
            else:
                assert grants.sum() == 0
            assert np.all(grants[~schedulable] == 0)
            assert np.all(grants >= 0)

    @pytest.mark.parametrize("name", ["proportional_fair", "max_min"])
    @given(
        st.lists(st.sampled_from((0.0, 12.5, 40.0, 300.0)), min_size=1, max_size=8),
        st.sampled_from((1, 3, 50, 100)),
        st.integers(min_value=0, max_value=100),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_grants_match_reference_under_ties(self, name, rates, n_prb, tti0, data):
        # Rates from a small set, so metric ties between UEs are the
        # norm: the heap greedy must keep the reference's first-in-
        # rotated-order tie-break at every rotation phase.
        rates = np.array(rates)
        n = len(rates)
        masks = data.draw(
            st.lists(
                st.lists(st.booleans(), min_size=n, max_size=n),
                min_size=30,
                max_size=30,
            )
        )
        fast = make_scheduler(name)
        ref = make_scheduler(name)
        if name == "proportional_fair":
            # A zero and a NaN average exercise the TINY_BYTES floor.
            avg = rates.copy()
            avg[0] = 0.0
            avg[-1] = np.nan
            fast._avg_bytes = avg.copy()
            ref._avg_bytes = avg.copy()
        for t, mask in enumerate(masks, start=tti0):
            schedulable = np.array(mask)
            g = fast.grants(schedulable, rates, n_prb, t)
            g_ref = ref.grants_reference(mask, rates.tolist(), n_prb, t)
            assert g.tolist() == g_ref, (t, mask)
            served = g * rates
            fast.update(served)
            ref.update_reference(served.tolist())
            if name == "proportional_fair":
                assert fast._avg_bytes.tobytes() == ref._avg_bytes.tobytes(), t

    @given(
        st.floats(min_value=-5.0, max_value=25.0, allow_nan=False),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_pf_equals_rr_under_symmetry(self, snr, n_ues, tti0):
        # Identical rates, backlogs AND served-rate averages: PF's
        # greedy (with the within-TTI virtual update) must reproduce
        # RR's rotated split exactly, at every rotation phase.  The
        # symmetry is per-TTI: one EWMA update after an uneven
        # remainder split legitimately breaks it.
        rates = rate_per_prb_bytes(np.full(n_ues, snr))
        schedulable = rates > 0.0
        rr = make_scheduler("round_robin")
        for tti in range(tti0, tti0 + max(n_ues, 2)):
            g_pf = make_scheduler("proportional_fair").grants(
                schedulable, rates, 50, tti
            )
            g_rr = rr.grants(schedulable, rates, 50, tti)
            assert np.array_equal(g_pf, g_rr), (tti, rates)

    @given(
        st.floats(min_value=-10.0, max_value=35.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_throughput_monotone_in_snr(self, snr, delta):
        assert throughput_mbps(snr + delta) >= throughput_mbps(snr)

    def test_cqi_thresholds_strictly_increasing(self):
        assert np.all(np.diff(_THRESHOLDS) > 0)

    def test_max_min_favors_weak_ue(self):
        rates = rate_per_prb_bytes(np.array([2.0, 22.0]))
        grants = make_scheduler("max_min").grants(rates > 0, rates, 50, 0)
        assert grants[0] > grants[1]
        # Granted capacity is as equal as integer PRBs allow.
        cap = grants * rates
        assert abs(cap[0] - cap[1]) <= rates.max()


# -- eNodeB scheduler rotation and OLLA forget ----------------------------------


class TestENodeBScheduling:
    def _enodeb(self, n_ues):
        enb = ENodeB()
        for i in range(1, n_ues + 1):
            enb.register_ue(UE(ue_id=i))
        return enb

    def test_legacy_call_equals_tti_zero(self):
        enb = self._enodeb(3)
        snrs = {1: 10.0, 2: 12.0, 3: 14.0}
        legacy = enb.schedule(snrs)
        assert legacy.prb_share == enb.schedule(snrs, tti=0).prb_share
        # The old bias: remainder PRBs land on the lowest ids.
        assert legacy.prb_share == {1: 17, 2: 17, 3: 16}

    def test_rotation_is_long_run_fair(self):
        enb = self._enodeb(3)
        snrs = {1: 10.0, 2: 12.0, 3: 14.0}
        totals = {1: 0, 2: 0, 3: 0}
        for tti in range(3 * 40):
            for ue_id, prb in enb.schedule(snrs, tti=tti).prb_share.items():
                totals[ue_id] += prb
        assert len(set(totals.values())) == 1

    def test_deregister_forgets_olla_state(self):
        enb = ENodeB(olla=OuterLoopLinkAdaptation())
        enb.register_ue(UE(ue_id=7))
        for _ in range(5):
            enb.olla.report(7, ack=False)
        assert enb.olla.offset_db(7) < 0.0
        enb.deregister_ue(7)
        assert enb.olla.offset_db(7) == 0.0
        assert enb.olla.realized_bler(7) is None


# -- config / trigger validation ------------------------------------------------


class TestConfigValidation:
    def test_unknown_traffic_model_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic model"):
            SkyRANConfig(traffic_model="nope")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            SkyRANConfig(scheduler="nope")

    def test_bad_trigger_metric_rejected(self):
        with pytest.raises(ValueError):
            SkyRANConfig(epoch_trigger_metric="bogus")
        with pytest.raises(ValueError):
            EpochTrigger(metric="bogus")

    def test_positive_knobs_enforced(self):
        with pytest.raises(ValueError):
            SkyRANConfig(tti_batch=0)
        with pytest.raises(ValueError):
            SkyRANConfig(traffic_rate_mbps=0.0)
        with pytest.raises(ValueError):
            SkyRANConfig(traffic_buffer_bytes=-1.0)
        with pytest.raises(ValueError):
            SkyRANConfig(pf_time_constant_tti=0)


# -- traffic-burst fault channel ------------------------------------------------


class TestTrafficBurstFault:
    def test_bursts_amplify_offered_load(self):
        plan = FaultPlan(seed=3, traffic_burst_rate=0.5, traffic_burst_factor=4.0)
        inj = FaultInjector(plan)
        offered = np.full((4, 200), 100.0)
        burst = inj.traffic_bursts(offered)
        assert burst.shape == offered.shape
        assert set(np.unique(burst)) == {100.0, 400.0}
        frac = (burst == 400.0).mean()
        assert 0.3 < frac < 0.7

    def test_zero_rate_is_inert_and_draws_no_rng(self):
        inj = FaultInjector(FaultPlan(seed=3))
        state_before = inj._rng["traffic"].bit_generator.state
        offered = np.full((2, 50), 10.0)
        out = inj.traffic_bursts(offered)
        assert np.array_equal(out, offered)
        assert inj._rng["traffic"].bit_generator.state == state_before

    def test_deterministic_per_plan_seed(self):
        plan = FaultPlan(seed=5, traffic_burst_rate=0.2)
        offered = np.full((3, 100), 50.0)
        a = FaultInjector(plan).traffic_bursts(offered)
        b = FaultInjector(plan).traffic_bursts(offered)
        assert np.array_equal(a, b)


# -- metrics --------------------------------------------------------------------


class TestJainFairness:
    def test_equal_rates_are_perfectly_fair(self):
        assert jain_fairness(np.array([3.0, 3.0, 3.0])) == pytest.approx(1.0)

    def test_single_active_ue_is_minimal(self):
        assert jain_fairness(np.array([5.0, 0.0, 0.0, 0.0])) == pytest.approx(0.25)

    def test_degenerate_inputs(self):
        assert jain_fairness(np.array([])) == 1.0
        assert jain_fairness(np.zeros(4)) == 1.0


# -- end-to-end runner integration ----------------------------------------------


class TestRunnerIntegration:
    def _run(self, **cfg_overrides):
        from repro.sim.runner import run_simulation
        from repro.sim.scenario import Scenario

        scenario = Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3)
        cfg = SkyRANConfig(
            rem_cell_size_m=16.0, measurement_budget_m=250.0, **cfg_overrides
        )
        return run_simulation(
            scenario,
            cfg,
            scheme="skyran",
            n_epochs=1,
            budget_per_epoch_m=250.0,
            seed=0,
            altitude=60.0,
        )

    def test_default_config_has_no_traffic_fields(self):
        rec = self._run().records[-1]
        assert rec.offered_mbps is None
        assert rec.served_mbps is None
        assert rec.backlog_bytes is None
        assert rec.dropped_bytes is None

    def test_traffic_config_populates_records(self):
        rec = self._run(
            traffic_model="poisson",
            scheduler="proportional_fair",
            traffic_rate_mbps=3.0,
            epoch_trigger_metric="served",
            tti_batch=300,
        ).records[-1]
        assert rec.offered_mbps is not None and rec.offered_mbps > 0.0
        assert rec.served_mbps is not None
        assert rec.served_mbps <= rec.offered_mbps + 1e-9
        assert rec.backlog_bytes >= 0.0
        assert rec.dropped_bytes >= 0.0
