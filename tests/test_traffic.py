"""Traffic subsystem tests: generators, queues, schedulers, integration.

Marked ``traffic`` (tier-1; select just these with ``-m traffic``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SkyRANConfig
from repro.core.epoch import EpochTrigger
from repro.faults import FaultInjector, FaultPlan
from repro.lte.enodeb import ENodeB
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
from repro.traffic.schedulers import round_robin_slab
from repro.traffic.simulate import rate_per_prb_bytes
from tests.traffic_oracles import ProportionalFair, RoundRobin, make_oracle, replay

pytestmark = pytest.mark.traffic

RESULT_FIELDS = ("grants", "served_bytes", "backlog_end_bytes")


# -- registries -----------------------------------------------------------------


class TestRegistries:
    def test_traffic_models_registered(self):
        assert available_traffic_models() == ("full_buffer", "poisson")

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

    def test_factories_take_no_other_settings(self):
        assert make_traffic_model("poisson", rate_mbps=3.0).rate_mbps == 3.0
        with pytest.raises(TypeError):
            make_traffic_model("poisson", packet_bytes=100.0)
        with pytest.raises(TypeError):
            make_scheduler("proportional_fair", time_constant_tti=7)


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

    @pytest.mark.parametrize("name", ["poisson"])
    def test_chunked_draws_continue_the_stream(self, name):
        model = make_traffic_model(name)
        chunked = model.source(2, seed=3)
        parts = np.concatenate([chunked.offered_bytes(137), chunked.offered_bytes(263)])
        whole = model.source(2, seed=3).offered_bytes(400)
        assert np.array_equal(parts, whole)

    def test_deterministic_sources_draw_no_entropy(self):
        # full_buffer must not even own a generator.
        fb = make_traffic_model("full_buffer").source(1, seed=0)
        assert not hasattr(fb, "_rng")
        assert fb.full_buffer
        assert np.all(fb.offered_bytes(10) == 0.0)

    def test_poisson_mean_matches_rate(self):
        src = make_traffic_model("poisson", rate_mbps=4.0).source(1, seed=0)
        bytes_per_tti = src.offered_bytes(20000).mean()
        assert bytes_per_tti == pytest.approx(4.0 * BYTES_PER_TTI_PER_MBPS, rel=0.05)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            make_traffic_model("poisson", rate_mbps=0.0)
        with pytest.raises(ValueError):
            make_traffic_model("poisson", rate_mbps=-1.0)


# -- queues ---------------------------------------------------------------------


class TestQueueBank:
    def test_requires_sorted_unique_ids(self):
        with pytest.raises(ValueError):
            QueueBank((3, 1))
        with pytest.raises(ValueError):
            QueueBank((1, 1))
        with pytest.raises(ValueError):
            QueueBank(())

    def test_full_buffer_seeds_infinite_backlog(self):
        q = QueueBank((1,), full_buffer=True)
        assert np.isinf(q.backlog_bytes[0])
        assert q.total_backlog_bytes() == np.inf


# -- kernel vs the pure-Python oracle -------------------------------------------


def _batch(
    scheduler_name,
    *,
    backlog0=0.0,
    full_buffer=False,
    offered=None,
    n_tti=300,
    tti0=0,
    snr=(3.0, 8.0, 14.0, 20.0, -10.0),
):
    """One kernel batch, its queues, and the oracle's replay of it.

    ``full_buffer`` (one bool or one per UE) marks the UEs whose queue
    starts at ``inf``; ``backlog0`` is every other queue's start.
    Without ``offered``, full-buffer UEs offer nothing and the rest
    Poisson arrivals.
    """
    ue_ids = tuple(range(1, len(snr) + 1))
    rates = rate_per_prb_bytes(np.array(snr))
    model = make_traffic_model("poisson", rate_mbps=5.0)
    fb = np.broadcast_to(np.asarray(full_buffer, dtype=bool), (len(ue_ids),))
    queues = QueueBank(ue_ids)
    if offered is None:
        offered = np.stack(
            [model.source(u, seed=9).offered_bytes(n_tti) for u in ue_ids]
        )
        offered[fb] = 0.0
    queues.backlog_bytes[:] = np.where(fb, np.inf, backlog0)
    reference = replay(
        make_oracle(scheduler_name),
        rates,
        offered,
        queues.backlog_bytes,
        tti0=tti0,
    )
    result = run_tti_batch(
        bytes_per_prb=rates,
        offered_bytes=offered,
        scheduler=make_scheduler(scheduler_name),
        queues=queues,
        tti0=tti0,
    )
    return result, queues, reference


class TestKernelEquivalence:
    # The per-TTI scheduler loop, from empty queues and from a carried
    # 4000-byte backlog (which the zero-rate UE can never drain).
    @pytest.mark.parametrize("name", ["round_robin", "proportional_fair", "max_min"])
    @pytest.mark.parametrize("backlog0", [0.0, 4000.0])
    def test_kernel_bit_identical_to_reference(self, name, backlog0):
        kernel, qk, reference = _batch(name, backlog0=backlog0)
        for f in RESULT_FIELDS:
            assert np.array_equal(getattr(kernel, f), getattr(reference, f)), f
        assert np.array_equal(qk.backlog_bytes, reference.backlog_end_bytes)

    # Every queue infinite: the population a full-buffer MAC serves.
    @pytest.mark.parametrize("name", ["round_robin", "proportional_fair", "max_min"])
    def test_full_buffer_slab_bit_identical(self, name):
        cases = (
            {},
            # Fewer TTIs than active UEs, starting mid-rotation: the
            # loop must pick the rotation of each TTI.  Tied rates
            # make each rotation's grants differ.
            {"snr": (8.0, 8.0, 8.0, 14.0, 14.0, 14.0), "n_tti": 4, "tti0": 4},
            {"n_tti": 0},
        )
        for case in cases:
            kernel, _, reference = _batch(name, full_buffer=True, **case)
            for f in RESULT_FIELDS:
                assert np.array_equal(getattr(kernel, f), getattr(reference, f)), (case, f)

    @pytest.mark.parametrize("name", ["round_robin", "proportional_fair", "max_min"])
    def test_mixed_slab_bit_identical(self, name):
        # Full-buffer UEs beside UEs that offer every TTI, a zero-rate
        # UE and an idle one (the city's mix): the schedulable set is
        # frozen while finite backlogs still evolve per TTI.
        snr = (3.0, 8.0, 14.0, 20.0, -10.0, 12.0)
        full_buffer = np.array([True, False, False, True, False, False])
        n_tti = 200
        per_tti = np.array([0.0, 600.0, 2500.0, 0.0, 300.0, 0.0])
        offered = np.repeat(per_tti[:, None], n_tti, axis=1)
        kernel, qk, reference = _batch(
            name, full_buffer=full_buffer, offered=offered, tti0=3, snr=snr
        )
        for f in RESULT_FIELDS:
            assert np.array_equal(getattr(kernel, f), getattr(reference, f)), f
        assert np.array_equal(qk.backlog_bytes, reference.backlog_end_bytes)

    def test_zero_rate_ue_never_granted_or_served(self):
        kernel, _, _ = _batch("round_robin")
        assert kernel.grants[-1].sum() == 0  # UE 5 is at -10 dB
        assert kernel.served_bytes[-1].sum() == 0.0

    def test_chunked_run_matches_single_batch(self):
        snr = {1: 6.0, 2: 12.0, 3: 18.0}

        def run(chunks):
            sim = MACSimulation(
                [1, 2, 3],
                traffic_model="poisson",
                scheduler="proportional_fair",
                seed=11,
                rate_mbps=6.0,
            )
            return [sim.run(snr, n) for n in chunks]

        whole = run([600])[0]
        parts = run([250, 350])
        assert np.array_equal(
            whole.served_bytes, np.concatenate([p.served_bytes for p in parts], axis=1)
        )
        assert np.array_equal(whole.backlog_end_bytes, parts[-1].backlog_end_bytes)
        # The oracle's PF average carries across its chunks the same way.
        rates = rate_per_prb_bytes([snr[u] for u in (1, 2, 3)])
        oracle, backlog, tti0 = ProportionalFair(), np.zeros(3), 0
        for part in parts:
            ref = replay(oracle, rates, part.offered_bytes, backlog, tti0=tti0)
            for f in RESULT_FIELDS:
                assert np.array_equal(getattr(part, f), getattr(ref, f)), f
            backlog, tti0 = ref.backlog_end_bytes, tti0 + part.n_tti


# -- scheduler properties (hypothesis) ------------------------------------------


snr_arrays = st.lists(
    st.floats(min_value=-20.0, max_value=30.0, allow_nan=False), min_size=1, max_size=8
)


class TestRoundRobinSlab:
    """``round_robin_slab`` is the per-TTI round-robin grants stacked.

    One rank rule, two expressions: the slab over any window of rows
    (by their global ranks) must equal those rows of the stacked
    ``RoundRobinScheduler.grants`` and of the oracle, dtype included.
    """

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
        want = self._stacked(
            lambda t: rr.grants(schedulable, rates, self.N_PRB, t), n_tti, tti0
        )
        ref = self._stacked(
            lambda t: RoundRobin().grants(schedulable.tolist(), rates, self.N_PRB, t),
            n_tti,
            tti0,
        )
        assert want.dtype == np.int64 and np.array_equal(want, ref)
        assert (want.sum(axis=0) == (self.N_PRB if n_active else 0)).all()

        ranks = np.cumsum(schedulable) - 1
        for sl in (slice(0, n), slice(40, 103), slice(150, 160)):
            m, idx = sl.stop - sl.start, np.flatnonzero(schedulable[sl])
            got = round_robin_slab(
                m, idx, ranks[sl][idx], n_active, self.N_PRB, tti0, n_tti
            )
            assert got.dtype == np.int64
            assert np.array_equal(got, want[sl])

    def test_zero_ttis(self):
        idx = np.array([0, 2])
        assert round_robin_slab(3, idx, np.array([0, 1]), 2, 50, 4, 0).shape == (3, 0)
        assert round_robin_slab(3, idx[:0], idx[:0], 0, 50, 4, 0).shape == (3, 0)


class TestProportionalFairShortcuts:
    """PF with at most one schedulable UE skips its heap, to the same grants."""

    @pytest.mark.parametrize("n_prb", [-1, 0, 1, 50])
    def test_lone_or_no_ue_matches_reference(self, n_prb):
        rates = np.array([12.5, 0.0, 40.0, 300.0, 7.0])
        fast = make_scheduler("proportional_fair")
        ref = ProportionalFair()
        masks = [np.zeros(5, dtype=bool)] + [np.eye(5, dtype=bool)[i] for i in range(5)]
        for t, mask in enumerate(masks * 3):
            g = fast.grants(mask, rates, n_prb, t)
            assert g.dtype == np.int64
            assert g.tolist() == ref.grants(mask.tolist(), rates, n_prb, t)
            served = g * rates
            fast.update(served)
            ref.update(served.tolist())
            assert fast._avg_bytes.tobytes() == np.array(ref.avg).tobytes()

    def test_update_before_grants_starts_from_zero(self):
        fast = make_scheduler("proportional_fair")
        ref = ProportionalFair()
        served = np.array([10.0, 0.0, 3.5])
        fast.update(served)
        ref.update(served.tolist())
        assert fast._avg_bytes.tobytes() == np.array(ref.avg).tobytes()

    def test_sparse_traffic_kernel_matches_reference(self):
        # Light Poisson load: most TTIs have zero or one UE with data.
        ue_ids = tuple(range(1, 6))
        rates = rate_per_prb_bytes(np.array([3.0, 8.0, 14.0, 20.0, 25.0]))
        model = make_traffic_model("poisson", rate_mbps=0.5)
        offered = np.stack([model.source(u, seed=4).offered_bytes(400) for u in ue_ids])
        kernel = run_tti_batch(
            bytes_per_prb=rates,
            offered_bytes=offered,
            scheduler=make_scheduler("proportional_fair"),
            queues=QueueBank(ue_ids),
        )
        reference = replay(ProportionalFair(), rates, offered, np.zeros(len(ue_ids)))
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
        ref = make_oracle(name)
        if name == "proportional_fair":
            # A zero and a NaN average exercise the TINY_BYTES floor.
            avg = rates.copy()
            avg[0] = 0.0
            avg[-1] = np.nan
            fast._avg_bytes = avg.copy()
            ref.avg = avg.tolist()
        for t, mask in enumerate(masks, start=tti0):
            schedulable = np.array(mask)
            g = fast.grants(schedulable, rates, n_prb, t)
            g_ref = ref.grants(mask, rates.tolist(), n_prb, t)
            assert g.tolist() == g_ref, (t, mask)
            served = g * rates
            fast.update(served)
            ref.update(served.tolist())
            if name == "proportional_fair":
                assert fast._avg_bytes.tobytes() == np.array(ref.avg).tobytes(), t

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

    def test_rate_per_prb_matches_scalar_loop(self):
        # At, one ulp either side of, and a little off every CQI
        # switching point, plus out-of-table SNRs.
        snr = np.concatenate(
            [
                _THRESHOLDS,
                np.nextafter(_THRESHOLDS, -np.inf),
                np.nextafter(_THRESHOLDS, np.inf),
                _THRESHOLDS - 0.05,
                _THRESHOLDS + 0.05,
                [-40.0, 0.0, 60.0],
            ]
        )
        loop = np.array([throughput_mbps(s, n_prb=1) for s in snr])
        want = loop * BYTES_PER_TTI_PER_MBPS
        got = rate_per_prb_bytes(snr)
        assert got.tobytes() == want.tobytes()
        assert rate_per_prb_bytes(snr.tolist()).tobytes() == want.tobytes()

    def test_max_min_favors_weak_ue(self):
        rates = rate_per_prb_bytes(np.array([2.0, 22.0]))
        grants = make_scheduler("max_min").grants(rates > 0, rates, 50, 0)
        assert grants[0] > grants[1]
        # Granted capacity is as equal as integer PRBs allow.
        cap = grants * rates
        assert abs(cap[0] - cap[1]) <= rates.max()


# -- round-robin PRB rotation on the eNodeB's carrier ---------------------------


class TestENodeBScheduling:
    def _grants(self, n_ues, tti):
        sched = make_scheduler("round_robin")
        return sched.grants(np.ones(n_ues, dtype=bool), np.ones(n_ues), ENodeB().n_prb, tti)

    def test_tti_zero_gives_remainder_to_lowest_ids(self):
        assert self._grants(3, tti=0).tolist() == [17, 17, 16]

    def test_rotation_is_long_run_fair(self):
        totals = sum(self._grants(3, tti) for tti in range(3 * 40))
        assert len(set(totals.tolist())) == 1


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
        with pytest.raises(ValueError):
            EpochTrigger(metric="learned")

    def test_positive_knobs_enforced(self):
        with pytest.raises(ValueError):
            SkyRANConfig(traffic_rate_mbps=0.0)


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

    def test_traffic_config_populates_records(self):
        rec = self._run(
            traffic_model="poisson",
            scheduler="proportional_fair",
            traffic_rate_mbps=3.0,
            epoch_trigger_metric="served",
        ).records[-1]
        assert rec.offered_mbps is not None and rec.offered_mbps > 0.0
        assert rec.served_mbps is not None
        assert rec.served_mbps <= rec.offered_mbps + 1e-9
        assert rec.backlog_bytes >= 0.0
