"""Baseline UAV placement schemes (paper Section 4.2).

* **Uniform** — no UE locations, no planning: a corner-to-corner
  zigzag measurement sweep, REMs from whatever it measured, then the
  same max-min placement.
* **Centroid** — UE locations only, no REMs: localize, hover over the
  centroid.
"""

from repro.baselines.uniform import UniformController
from repro.baselines.centroid import CentroidController

__all__ = [
    "UniformController",
    "CentroidController",
]
