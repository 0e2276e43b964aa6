"""City-scale kernels: sharded state bit-identical to the global kernels.

The load-bearing claim of the city layer is decomposition exactness:
running the population shard-by-shard (MAC, OLLA) must reproduce the
unsharded reference **bit for bit**, for any shard size, and so must
the city's controller epoch that serves through them.  These tests pin
that, plus the struct-of-array population contracts (deterministic
sampling, key dedup, slab eligibility) the decomposition rests on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.city import (
    DEFAULT_SHARD_UES,
    CityScenario,
    UEPopulation,
    run_city_mac,
    shard_size,
)
from repro.city.mac import city_schedulable
from repro.lte.linkadapt import OLLABank
from repro.terrain.generators import make_campus, make_flat
from repro.traffic.generators import BYTES_PER_TTI_PER_MBPS
from tests import traffic_oracles as oracle
from tests.link_oracles import OuterLoopLinkAdaptation

pytestmark = pytest.mark.city

N_UES = 233  # prime-ish, so shard widths 7 and 97 leave ragged tails


@pytest.fixture(scope="module")
def terrain():
    return make_campus(cell_size=4.0)


@pytest.fixture()
def population(terrain):
    return UEPopulation.sample(terrain, N_UES, seed=5)


@pytest.fixture()
def rates(population):
    """Deliverable bytes/PRB with a few dead links sprinkled in."""
    rng = np.random.default_rng(11)
    r = rng.uniform(200.0, 2000.0, size=population.n_ues)
    r[rng.random(population.n_ues) < 0.05] = 0.0
    return r


# -- shard sizing ----------------------------------------------------------------


def test_shard_size_sources():
    assert shard_size() == DEFAULT_SHARD_UES
    assert shard_size(7) == 7
    with pytest.raises(ValueError, match="shard size"):
        shard_size(0)


# -- population ------------------------------------------------------------------


def test_sample_is_deterministic(terrain):
    a = UEPopulation.sample(terrain, 50, seed=3)
    b = UEPopulation.sample(terrain, 50, seed=3)
    assert np.array_equal(a.xyz, b.xyz)
    assert np.array_equal(a.full_buffer, b.full_buffer)
    assert np.array_equal(a.rem_key, b.rem_key)
    c = UEPopulation.sample(terrain, 50, seed=4)
    assert not np.array_equal(a.xyz, c.xyz)


def test_sample_state_invariants(terrain, population):
    pop = population
    assert pop.n_ues == N_UES
    assert np.array_equal(pop.ue_ids, np.arange(N_UES))
    # Full-buffer rows: infinite backlog, no CBR offer; CBR rows the dual.
    assert np.all(np.isinf(pop.backlog_bytes[pop.full_buffer]))
    assert np.all(pop.cbr_rate_mbps[pop.full_buffer] == 0.0)
    assert np.all(pop.backlog_bytes[~pop.full_buffer] == 0.0)
    assert np.all(pop.cbr_rate_mbps[~pop.full_buffer] > 0.0)
    # Positions sit at ground height plus the standard antenna height.
    want = terrain.heights_at_xy(population.xyz[:, 0], population.xyz[:, 1]) + 1.5
    assert np.array_equal(population.xyz[:, 2], want)


def test_shard_iteration_covers_population(population):
    slices = list(population.iter_shards(7))
    assert slices[0].start == 0
    assert slices[-1].stop == population.n_ues
    covered = np.concatenate([np.arange(s.start, s.stop) for s in slices])
    assert np.array_equal(covered, np.arange(population.n_ues))
    assert all(s.stop - s.start <= 7 for s in slices)


def test_unique_rem_cells_dedup(population):
    keys, first, reps, inverse = population.unique_rem_cells()
    assert np.array_equal(keys, np.unique(population.rem_key))
    assert reps.shape == (len(keys), 3)
    # Each representative is the first population member holding its key.
    assert np.array_equal(population.rem_key[first], keys)
    assert np.array_equal(reps, population.xyz[first])
    for k, i in zip(keys, first):
        assert i == np.flatnonzero(population.rem_key == k)[0]
    # inverse maps every UE back to its key.
    assert np.array_equal(keys[inverse], population.rem_key)
    # Representatives saturate: more UEs, not (proportionally) more cells.
    assert len(keys) <= population.n_ues


# -- sharded MAC vs the global oracle --------------------------------------------


def _unsharded_reference(pop, rates, n_tti, n_prb=50):
    """The oracle's per-TTI round-robin replay over the whole population.

    Full-buffer rows start at ``inf``, CBR rows at their carried
    backlog.  ``offered_bytes`` is the same broadcast view the city MAC
    sums, so the offered totals are summed in the same order.
    """
    offered = np.broadcast_to(
        (pop.cbr_rate_mbps * BYTES_PER_TTI_PER_MBPS)[:, None], (pop.n_ues, n_tti)
    )
    backlog = np.where(pop.full_buffer, np.inf, pop.backlog_bytes)
    ref = oracle.replay(oracle.RoundRobin(), rates, offered, backlog, n_prb=n_prb)
    return ref, offered


@pytest.mark.parametrize("shard_ues", [1, 7, 97, N_UES])
def test_sharded_mac_bit_identical_to_global(terrain, rates, shard_ues):
    n_tti = 50
    pop_ref = UEPopulation.sample(terrain, N_UES, seed=5)
    pop_shard = UEPopulation.sample(terrain, N_UES, seed=5)

    ref, offered = _unsharded_reference(pop_ref, rates, n_tti)
    city = run_city_mac(pop_shard, rates, n_tti, shard_ues=shard_ues)

    assert np.array_equal(city.served_bytes, ref.served_bytes.sum(axis=1))
    assert np.array_equal(city.offered_bytes, offered.sum(axis=1))
    assert np.array_equal(city.grants, ref.grants.sum(axis=1))
    assert np.array_equal(city.backlog_end_bytes, ref.backlog_end_bytes)
    # The population carries the post-epoch backlogs.
    assert np.array_equal(pop_shard.backlog_bytes, ref.backlog_end_bytes)
    # Zero-rate UEs are never granted, whatever their traffic.
    dead = rates == 0.0
    assert dead.any() and not city.grants[dead].any()


def test_sharded_mac_consecutive_epochs(terrain, rates):
    """Backlog carry-over across epochs matches one long unsharded run."""
    pop_ref = UEPopulation.sample(terrain, N_UES, seed=5)
    pop_shard = UEPopulation.sample(terrain, N_UES, seed=5)
    ref, _ = _unsharded_reference(pop_ref, rates, 60)

    a = run_city_mac(pop_shard, rates, 30, shard_ues=13, tti0=0)
    b = run_city_mac(pop_shard, rates, 30, shard_ues=13, tti0=30)
    # Sum the reference per half-epoch: one 60-TTI np.sum associates
    # the floats differently than two 30-TTI sums added together.
    assert np.array_equal(a.served_bytes, ref.served_bytes[:, :30].sum(axis=1))
    assert np.array_equal(b.served_bytes, ref.served_bytes[:, 30:].sum(axis=1))
    assert np.array_equal(a.grants + b.grants, ref.grants.sum(axis=1))
    assert np.array_equal(b.backlog_end_bytes, ref.backlog_end_bytes)


def test_sharded_mac_zero_ttis_with_idle_ues():
    """A zero-TTI batch schedules nothing, idle UEs included."""
    pop = UEPopulation.sample(make_flat(), 20, seed=1, cbr_rate_mbps=0.0)
    assert (~pop.full_buffer).any()  # idle: no traffic, empty queue
    rates = np.full(20, 100.0)
    before = pop.backlog_bytes.copy()
    ref, _ = _unsharded_reference(pop, rates, 0)
    city = run_city_mac(pop, rates, 0, shard_ues=7)

    for totals in (city.served_bytes, city.offered_bytes, city.grants):
        assert not totals.any()
    assert np.array_equal(pop.backlog_bytes, before)
    assert np.array_equal(city.backlog_end_bytes, before)
    assert np.array_equal(city.backlog_end_bytes, ref.backlog_end_bytes)
    assert np.array_equal(city.grants, ref.grants.sum(axis=1))
    assert np.array_equal(city.served_bytes, ref.served_bytes.sum(axis=1))


def test_city_schedulable_rejects_draining_backlog(population, rates):
    idx = int(np.flatnonzero(~population.full_buffer)[0])
    population.backlog_bytes[idx] = 5000.0
    population.cbr_rate_mbps[idx] = 0.0  # backlog drains, nothing arrives
    with pytest.raises(ValueError, match="not slab-eligible"):
        city_schedulable(population, rates)


def test_city_schedulable_classes(population, rates):
    sched = city_schedulable(population, rates)
    rate_ok = rates > 0.0
    assert np.array_equal(
        sched, rate_ok & (population.full_buffer | (population.cbr_rate_mbps > 0.0))
    )


# -- vectorized OLLA bank vs the scalar controller ------------------------------


def test_olla_bank_bit_identical_to_scalar():
    rng = np.random.default_rng(4)
    n, rounds = 53, 40
    bank = OLLABank(n_ues=n)
    scalar = OuterLoopLinkAdaptation()
    acks = rng.random((rounds, n)) < 0.85
    for r in range(rounds):
        bank.report_batch(acks[r])
        for u in range(n):
            scalar.report(u, bool(acks[r, u]))
    scalar_offsets = np.array([scalar.offset_db(u) for u in range(n)])
    assert np.array_equal(bank.offsets_db, scalar_offsets)
    scalar_bler = np.array([scalar.realized_bler(u) for u in range(n)])
    assert np.array_equal(bank.realized_bler(), scalar_bler)


def test_olla_bank_sel_updates_are_shard_order_invariant():
    """Partial updates fold identically regardless of shard partition."""
    rng = np.random.default_rng(6)
    n, rounds = 64, 25
    whole = OLLABank(n_ues=n)
    sharded = OLLABank(n_ues=n)
    for _ in range(rounds):
        sel = np.flatnonzero(rng.random(n) < 0.7)
        ack = rng.random(len(sel)) < 0.8
        whole.report_batch(ack, sel=sel)
        # Same outcomes, folded shard by shard (and back shard first).
        mid = len(sel) // 2
        sharded.report_batch(ack[mid:], sel=sel[mid:])
        sharded.report_batch(ack[:mid], sel=sel[:mid])
    assert np.array_equal(whole.offsets_db, sharded.offsets_db)
    assert np.array_equal(whole.acks, sharded.acks)
    assert np.array_equal(whole.nacks, sharded.nacks)


def test_olla_bank_clamps_and_tallies():
    bank = OLLABank(n_ues=2, step_db=4.0, min_offset_db=-6.0, max_offset_db=6.0)
    for _ in range(5):
        bank.report_batch(np.array([False, True]))
    assert bank.offsets_db[0] == -6.0  # clamped at the floor
    assert bank.nacks[0] == 5 and bank.acks[1] == 5
    assert np.isnan(OLLABank(n_ues=1).realized_bler()[0])


# -- the scenario end to end ----------------------------------------------------


def _fresh_city():
    return CityScenario.create(
        terrain_name="campus", cell_size_m=8.0, n_ues=120, seed=1, eval_cell_m=32.0
    )


@pytest.fixture(scope="module")
def city():
    return _fresh_city()


def test_city_epoch_runs_and_is_shard_invariant():
    # Two fresh scenarios, so both epochs see identical controller and
    # OLLA state; only the MAC shard width differs.
    epoch = dict(budget_m=120.0, n_tti=20, loc_sample=2)
    out_a = _fresh_city().run_controller_epoch(shard_ues=7, **epoch)
    out_b = _fresh_city().run_controller_epoch(shard_ues=120, **epoch)
    assert out_a["placement"].cell == out_b["placement"].cell
    assert out_a["min_snr_db"] == out_b["min_snr_db"]
    assert out_a["mean_snr_db"] == out_b["mean_snr_db"]
    assert out_a["aggregate_served_mbps"] == out_b["aggregate_served_mbps"]
    assert np.array_equal(
        out_a["mac"].served_bytes, out_b["mac"].served_bytes
    )


def test_serving_snr_matches_per_ue_channel():
    city = _fresh_city()
    out = city.run_controller_epoch(budget_m=120.0, n_tti=5, loc_sample=2)
    uav = out["placement"].position.as_array()
    snr = city.serving_snr_db(uav)
    assert snr.shape == (city.population.n_ues,)
    # Spot-check a few UEs against the scalar path.
    for i in (0, 57, 119):
        want = city.channel.snr_db(uav, city.population.xyz[i])
        assert snr[i] == want


def test_population_validation(terrain):
    with pytest.raises(ValueError, match="n must be >= 1"):
        UEPopulation.sample(terrain, 0)
    with pytest.raises(ValueError, match="full_buffer_fraction"):
        UEPopulation.sample(terrain, 5, full_buffer_fraction=1.5)
    with pytest.raises(ValueError, match="rem_cell_m"):
        UEPopulation.sample(terrain, 5, rem_cell_m=0.0)


# -- full controller epochs over the city population ------------------------------


def test_controller_epoch_streams_and_serves(city):
    out = city.run_controller_epoch(budget_m=120.0, n_tti=10, loc_sample=2)
    keys, _first, _reps, _inv = city.population.unique_rem_cells()
    # One registered representative per occupied REM key cell; a
    # *localized* rep's estimate can stray into a neighbouring cell
    # (possibly colliding), so the group count is bounded, not pinned.
    assert len(keys) - 2 <= out["n_rem_groups"] <= len(keys)
    assert np.isfinite(out["min_snr_db"])
    assert np.isfinite(out["altitude_m"])
    assert out["aggregate_served_mbps"] >= 0.0
    assert out["mac"].served_bytes.shape == (city.population.n_ues,)


def test_controller_epoch_known_positions_cover_non_sampled_reps(city):
    ctrl = city._controller_for(per_ue=False, loc_sample=2, seed=0)
    keys, _first, _reps, _inv = city.population.unique_rem_cells()
    n_reps = len(keys)
    assert len(ctrl.enodeb.connected_ues()) == n_reps
    assert len(ctrl._ues_to_localize()) == 2
    assert len(ctrl.known_positions) == n_reps - 2


def test_controller_epoch_per_ue_reference_is_materialized():
    """The per-UE reference materializes one REM group and map per UE."""
    small = CityScenario.create(
        terrain_name="campus", cell_size_m=8.0, n_ues=12, seed=1, eval_cell_m=32.0
    )
    out = small.run_controller_epoch(
        budget_m=80.0, n_tti=5, loc_sample=2, per_ue=True
    )
    assert out["n_rem_groups"] == 12
    maps = out["epoch"].rem_maps
    assert len(maps) == 12
    assert len({id(m) for m in maps.values()}) == 12
    assert np.isfinite(out["min_snr_db"])
