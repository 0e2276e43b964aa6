"""Multi-UAV fleet over the LARGE terrain (paper Sections 7-8, SkyLiTE).

Two cooperating SkyRAN sky cells split a 1 km x 1 km semi-urban
township: UEs are associated to cells over candidate SINR (co-channel
cells interfere), each cell runs the standard epoch inside its sector,
placements are jointly refined against each other's interference, and
REMs/trajectory history are shared fleet-wide so no airspace is probed
twice.  Compares the fleet's worst-served UE against what a single UAV
could achieve even with oracle knowledge, and shows the SINR cost of
full frequency reuse.

Run:  python examples/multi_uav_fleet.py
"""

from __future__ import annotations

import numpy as np

from repro import Scenario, SkyRANConfig
from repro.core.fleet import FleetController
from repro.lte.throughput import throughput_mbps


def main() -> None:
    scenario = Scenario.create("large", n_ues=8, cell_size=8.0, seed=30,
                               channel_kwargs={"ray_step_m": 16.0})
    # Detach UEs from the scenario's default cell; the fleet re-homes
    # them onto per-cell eNodeBs.
    scenario.enodeb.deregister_all()

    cfg = SkyRANConfig(rem_cell_size_m=16.0)
    fleet = FleetController(
        channel=scenario.channel, ues=scenario.ues, n_uavs=2, config=cfg, seed=6
    )

    print("Running one cooperative fleet epoch (800 m budget per UAV)...")
    result = fleet.run_epoch(budget_per_uav_m=800.0)
    for uav_idx, epoch in result.per_uav.items():
        ue_ids = result.assignment.ue_ids_by_uav[uav_idx]
        pos = epoch.placement.position
        print(
            f"  UAV {uav_idx}: sector of {len(ue_ids)} UEs {ue_ids}, "
            f"placed at ({pos.x:.0f}, {pos.y:.0f}, {pos.z:.0f}), "
            f"flew {epoch.flight_distance_m:.0f} m"
        )

    fleet_snr = fleet.per_ue_snr_db()
    fleet_tputs = {k: throughput_mbps(v) for k, v in fleet_snr.items()}
    print("\nPer-UE throughput with the fleet (best-serving cell, no interference):")
    for ue_id, tput in sorted(fleet_tputs.items()):
        print(f"  UE {ue_id}: {tput:5.1f} Mb/s (SNR {fleet_snr[ue_id]:5.1f} dB)")

    print("\nSINR under frequency reuse (cell i on carrier i % reuse):")
    for reuse in (2, 1):
        ev = fleet.evaluate(reuse_factor=reuse)
        print(
            f"  reuse={reuse}: aggregate {ev.aggregate_throughput_mbps:5.1f} Mb/s, "
            f"worst UE {ev.min_throughput_mbps:5.1f} Mb/s"
        )

    altitude = next(iter(result.per_uav.values())).altitude_m
    stack = scenario.truth_maps(altitude)
    single_best_min = throughput_mbps(float(stack.min(axis=0).max()))
    fleet_min = min(fleet_tputs.values())
    fleet_avg = float(np.mean(list(fleet_tputs.values())))
    single_best_avg = float(throughput_mbps(stack).mean(axis=0).max())
    print(
        f"\nFleet avg throughput {fleet_avg:.1f} Mb/s vs {single_best_avg:.1f} "
        "for an *oracle-placed single UAV* (sectorization shortens links);"
        f"\nworst-served UE: fleet {fleet_min:.1f} Mb/s vs single-UAV oracle "
        f"{single_best_min:.1f} Mb/s."
    )
    print(
        f"Shared REM store holds {len(fleet.rem_store)} maps "
        f"({fleet.rem_store.hits} cooperative reuses); "
        f"{result.attaches} attaches, {result.handovers} handovers."
    )


if __name__ == "__main__":
    main()
