"""LTE substrate.

SkyRAN's localization runs entirely inside the LTE PHY: the eNodeB on
the UAV receives standard uplink Sounding Reference Signals (SRS) from
each UE and extracts signal time-of-flight via an upsampled IFFT
cross-correlation (paper Section 3.2, Eqs. 1-3).  This package
implements that PHY end to end on synthetic signals — Zadoff-Chu SRS
symbols, a delay + multipath + AWGN channel, the exact Eq. 1-3
estimator — plus the MAC-level pieces an LTE RAN needs: an SNR -> CQI
-> MCS -> throughput mapping, an eNodeB whose registered set is the
record of which UEs are attached, and vectorized outer-loop link
adaptation.
"""

from repro.lte.srs import (
    SRSConfig,
    apply_channel_batch,
    make_srs_symbol,
    pack_taps,
    zadoff_chu,
)
from repro.lte.tof import (
    ToFEstimator,
    estimate_delays_batch,
)
from repro.lte.throughput import (
    CQI_TABLE,
    cqi_from_snr,
    spectral_efficiency,
    throughput_mbps,
)
from repro.lte.linkadapt import OLLABank
from repro.lte.ue import UE
from repro.lte.enodeb import ENodeB

__all__ = [
    "SRSConfig",
    "apply_channel_batch",
    "make_srs_symbol",
    "pack_taps",
    "zadoff_chu",
    "ToFEstimator",
    "estimate_delays_batch",
    "CQI_TABLE",
    "cqi_from_snr",
    "spectral_efficiency",
    "throughput_mbps",
    "UE",
    "OLLABank",
    "ENodeB",
]
