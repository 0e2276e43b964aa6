"""Unit tests for the eNodeB and its round-robin PRB split."""

import numpy as np
import pytest

from repro.lte.enodeb import ENodeB
from repro.lte.throughput import throughput_mbps
from repro.lte.ue import UE
from repro.traffic import make_scheduler


def _ue(i):
    return UE(ue_id=i)


def _rr_grants(enb, snr_db_per_ue, tti=0):
    """Round-robin PRBs over the connected UEs that reported an SNR."""
    ids = [u.ue_id for u in enb.connected_ues()]
    schedulable = np.array([i in snr_db_per_ue for i in ids])
    grants = make_scheduler("round_robin").grants(
        schedulable, np.ones(len(ids)), enb.n_prb, tti
    )
    return {i: int(g) for i, g in zip(ids, grants) if i in snr_db_per_ue}


class TestENodeB:
    def test_register_attaches(self):
        enb = ENodeB()
        ue = _ue(1)
        enb.register_ue(ue)
        assert enb.connected_ues() == [ue]

    def test_duplicate_id_rejected(self):
        enb = ENodeB()
        enb.register_ue(_ue(1))
        with pytest.raises(ValueError):
            enb.register_ue(_ue(1))

    def test_deregister(self):
        enb = ENodeB()
        ue = _ue(1)
        enb.register_ue(ue)
        enb.deregister_ue(1)
        assert enb.connected_ues() == []

    def test_connected_ues_ordered_by_id_and_deregister_all(self):
        forgotten = []

        class SpyModel:
            def forget(self, ue_id):
                forgotten.append(ue_id)

        enb = ENodeB(mobility=SpyModel())
        for i in (3, 1, 2):
            enb.register_ue(_ue(i))
        assert [u.ue_id for u in enb.connected_ues()] == [1, 2, 3]
        enb.deregister_all()
        assert enb.connected_ues() == []
        assert sorted(forgotten) == [1, 2, 3]
        enb.register_ue(_ue(1))  # a detached id can attach again
        assert [u.ue_id for u in enb.connected_ues()] == [1]

    def test_rr_scheduler_splits_prbs(self):
        enb = ENodeB()
        for i in (1, 2, 3):
            enb.register_ue(_ue(i))
        prb_share = _rr_grants(enb, {1: 20.0, 2: 20.0, 3: 20.0})
        assert sum(prb_share.values()) == enb.n_prb
        shares = sorted(prb_share.values())
        assert shares[-1] - shares[0] <= 1  # near-equal split

    def test_scheduler_skips_unreported_ues(self):
        enb = ENodeB()
        enb.register_ue(_ue(1))
        enb.register_ue(_ue(2))
        prb_share = _rr_grants(enb, {1: 15.0})
        assert set(prb_share) == {1}
        assert prb_share[1] == enb.n_prb

    def test_shared_vs_full_cell(self):
        enb = ENodeB()
        enb.register_ue(_ue(1))
        enb.register_ue(_ue(2))
        prb_share = _rr_grants(enb, {1: 20.0, 2: 20.0})
        shared = throughput_mbps(20.0, n_prb=prb_share[1])
        full = throughput_mbps(20.0, n_prb=enb.n_prb)
        assert shared == pytest.approx(full / 2, rel=0.1)

    def test_srs_roundtrip(self, rng):
        enb = ENodeB()
        ue = _ue(1)
        enb.register_ue(ue)
        rx = enb.receive_srs_batch(ue, np.array([7.0]), np.array([30.0]), rng)[0]
        known = enb.known_srs_symbol(ue)
        corr = np.abs(np.fft.ifft(rx * np.conj(known)))
        assert int(np.argmax(corr)) == 7

    def test_ue_move(self):
        ue = _ue(1)
        ue.move_to(10.0, 20.0)
        assert ue.position.x == 10.0
        assert ue.position.z == pytest.approx(1.5)
        ue.move_to(1.0, 2.0, 3.0)
        assert ue.position.z == 3.0
