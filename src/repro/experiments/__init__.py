"""Per-figure experiment harness.

Every quantitative figure in the paper's evaluation has a module here
that registers a ``(grid, point, aggregate, claims)`` experiment with
:mod:`repro.experiments.registry`.  The one way to run a figure is the
CLI, ``python -m repro.experiments``, which adds on-disk point caching,
an optional process pool and the paper-claim check; in code, use
``get_experiment(name).run(...)`` or ``run_experiment``.
"""

from repro.experiments import (  # noqa: F401  (import side effect: registration)
    ablations,
    attach_storm,
    fig01_motivation,
    fig05_trajectories,
    rem_vs_throughput_map,
    fig03_centroid_vs_optimal,
    fig04_rem_vs_model,
    fig06_location_aware,
    fig07_pathloss_variation,
    fig08_altitude,
    fig09_localization_impact,
    fig12_epoch_length,
    fig14_snr_distributions,
    fig17_ranging_cdf,
    fig18_localization_cdf,
    fig19_loc_vs_flightlen,
    fig20_rem_vs_time,
    fig21_centroid_by_ues,
    fig23_budget_topologies,
    fig24_rem_topologies,
    fig26_overhead_static_dynamic,
    fig27_overhead_terrains,
    fig28_rem_overhead,
    fig29_budget_terrains,
    fig30_rem_budget_terrains,
    fig31_num_ues,
    fleet_scale,
    headline,
    learned_control,
    traffic_load,
)
