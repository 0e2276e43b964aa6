"""Radio propagation substrate.

The paper's scale-up study models the UAV-to-UE channel with
terrain-aware ray tracing over LiDAR data (Section 5.1): each direct
ray is decomposed into a free-space portion and a portion obstructed by
terrain features, the latter attenuating more strongly.  This package
implements that model plus the statistical layers around it:

* :mod:`repro.channel.fspl` - free-space path loss (also the model
  SkyRAN uses to *seed* REMs for never-measured UE positions).
* :mod:`repro.channel.raytrace` - vectorized ray/terrain intersection
  producing per-ray obstructed lengths.
* :mod:`repro.channel.shadowing` - spatially correlated log-normal
  shadowing fields.
* :mod:`repro.channel.fading` - small-scale Rician/Rayleigh fading for
  individual measurement samples.
* :mod:`repro.channel.linkbudget` - Tx power / gains / noise floor and
  the path-loss -> SNR conversion.
* :mod:`repro.channel.model` - :class:`ChannelModel` tying it together;
  its batched map oracle (``snr_maps``) is the exhaustive ("ground
  truth") REM all schemes are scored against.
"""

from repro.channel.fspl import fspl_db, fspl_map
from repro.channel.raytrace import obstructed_lengths
from repro.channel.shadowing import ShadowingField
from repro.channel.fading import sample_fading_db
from repro.channel.linkbudget import LinkBudget
from repro.channel.model import ChannelModel
from repro.channel.interference import fleet_sinr_db

__all__ = [
    "fleet_sinr_db",
    "fspl_db",
    "fspl_map",
    "obstructed_lengths",
    "ShadowingField",
    "sample_fading_db",
    "LinkBudget",
    "ChannelModel",
]
