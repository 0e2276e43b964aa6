"""Tests for outer-loop link adaptation (the vectorized OLLA bank)."""

import numpy as np
import pytest

from repro.lte.linkadapt import OLLABank
from repro.lte.throughput import _THRESHOLDS, cqi_from_snr, throughput_mbps
from tests.link_oracles import OuterLoopLinkAdaptation, simulate_link


def _report(bank, ue, ack):
    """Fold one HARQ outcome in for population index ``ue``; its new offset."""
    bank.report_batch(np.array([ack]), sel=np.array([ue]))
    return float(bank.offsets_db[ue])


def _simulate_bank_link(
    bank, ue, mean_snr_db, n_tti, rng, fading_std_db=3.0, decode_margin_db=1.0
):
    """The oracle's fading link, driven through one UE of an OLLA bank.

    Same draws in the same order as
    :func:`tests.link_oracles.simulate_link`; the bank only replaces the
    scalar controller.
    """
    goodput = 0.0
    for _ in range(n_tti):
        actual = mean_snr_db + rng.normal(0.0, fading_std_db)
        reported = mean_snr_db + rng.normal(0.0, fading_std_db)  # stale sample
        scheduled_snr = float(bank.effective_snr_db(reported)[ue])
        cqi = cqi_from_snr(scheduled_snr)
        if cqi == 0:
            continue  # nothing scheduled this TTI
        ack = actual >= _THRESHOLDS[cqi - 1] - decode_margin_db
        _report(bank, ue, ack)
        if ack:
            goodput += throughput_mbps(scheduled_snr)
    bler = float(bank.realized_bler()[ue])
    return {
        "bler": 0.0 if np.isnan(bler) else bler,
        "mean_goodput_mbps": goodput / n_tti,
        "final_offset_db": float(bank.offsets_db[ue]),
    }


class TestOLLA:
    def test_offset_starts_at_zero(self):
        bank = OLLABank(n_ues=2)
        assert bank.offsets_db.tolist() == [0.0, 0.0]
        assert np.isnan(bank.realized_bler()).all()

    def test_nack_drops_offset(self):
        bank = OLLABank(n_ues=2, step_db=0.5)
        _report(bank, 1, ack=False)
        assert bank.offsets_db[1] == pytest.approx(-0.5)

    def test_ack_step_sets_equilibrium(self):
        bank = OLLABank(n_ues=2, target_bler=0.1, step_db=0.9)
        up = _report(bank, 1, ack=True)
        assert up == pytest.approx(0.9 * 0.1 / 0.9)

    def test_offset_clamped(self):
        bank = OLLABank(n_ues=2, step_db=5.0, min_offset_db=-10.0)
        for _ in range(10):
            _report(bank, 1, ack=False)
        assert bank.offsets_db[1] == -10.0

    def test_per_ue_independence(self):
        bank = OLLABank(n_ues=3)
        _report(bank, 1, ack=False)
        assert bank.offsets_db[2] == 0.0
        assert bank.offsets_db[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OLLABank(n_ues=2, target_bler=0.0)
        with pytest.raises(ValueError):
            OLLABank(n_ues=2, step_db=0.0)


class TestSimulatedLink:
    def test_bler_converges_to_target(self, rng):
        bank = OLLABank(n_ues=2, target_bler=0.1)
        stats = _simulate_bank_link(bank, 1, mean_snr_db=15.0, n_tti=8000, rng=rng)
        assert stats["bler"] == pytest.approx(0.1, abs=0.05)

    def test_optimistic_channel_learns_negative_offset(self, rng):
        # Heavy fading makes raw CQI optimistic: the loop must back off.
        bank = OLLABank(n_ues=2, target_bler=0.1)
        stats = _simulate_bank_link(
            bank, 1, mean_snr_db=15.0, n_tti=5000, rng=rng, fading_std_db=6.0
        )
        assert stats["final_offset_db"] < 0.0

    def test_goodput_positive_at_good_snr(self, rng):
        bank = OLLABank(n_ues=2)
        stats = _simulate_bank_link(bank, 1, mean_snr_db=20.0, n_tti=2000, rng=rng)
        assert stats["mean_goodput_mbps"] > 5.0

    def test_dead_link_schedules_nothing(self, rng):
        bank = OLLABank(n_ues=2)
        stats = _simulate_bank_link(bank, 1, mean_snr_db=-20.0, n_tti=500, rng=rng)
        assert stats["mean_goodput_mbps"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OLLABank(n_ues=0)

    @pytest.mark.parametrize("mean_snr_db, fading_std_db", [(15.0, 3.0), (15.0, 6.0), (-20.0, 3.0)])
    def test_bank_link_matches_scalar_oracle(self, mean_snr_db, fading_std_db):
        bank = OLLABank(n_ues=2)
        rng_bank = np.random.default_rng(9)
        got = _simulate_bank_link(
            bank, 1, mean_snr_db, 3000, rng_bank, fading_std_db=fading_std_db
        )
        rng_oracle = np.random.default_rng(9)
        want = simulate_link(
            OuterLoopLinkAdaptation(), 1, mean_snr_db, 3000, rng_oracle,
            fading_std_db=fading_std_db,
        )
        assert got == want
        assert bank.offsets_db[0] == 0.0
        assert rng_bank.bit_generator.state == rng_oracle.bit_generator.state
