"""City-scale UE kernels.

The paper's scale-up study stops at tens of UEs; this package pushes a
single sky-cell to 10⁵–10⁶ by keeping population state in flat
struct-of-array blocks (:mod:`repro.city.population`), running the MAC
and OLLA shard-by-shard with peak memory O(shard)
(:mod:`repro.city.mac`), and placing with the SkyRAN controller's
epoch over one representative UE per occupied REM key cell
(:mod:`repro.city.scenario`).  Every sharded path is bit-identical to
the small-scale reference kernel it decomposes.
"""

from repro.city.mac import CityMACResult, run_city_mac
from repro.city.population import DEFAULT_SHARD_UES, UEPopulation, shard_size
from repro.city.scenario import CityScenario

__all__ = [
    "CityMACResult",
    "CityScenario",
    "DEFAULT_SHARD_UES",
    "UEPopulation",
    "run_city_mac",
    "shard_size",
]
