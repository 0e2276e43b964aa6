"""Smoke tests for the per-figure experiment modules and the CLI.

Heavy experiments run in the benchmark suite; here we execute the
light ones end to end and check the result contract (``rows`` +
``paper``) that the bench harness and EXPERIMENTS.md generator rely
on.
"""

import numpy as np
import pytest

from repro.experiments import REGISTRY
from repro.experiments.artifacts import roundtrip
from repro.experiments import (
    fig01_motivation,
    fig03_centroid_vs_optimal,
    fig07_pathloss_variation,
    fig08_altitude,
    fig12_epoch_length,
)
from repro.__main__ import main as cli_main


class TestRegistry:
    def test_every_paper_figure_registered(self):
        expected = {
            "fig1", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
            "fig12", "fig14", "fig17", "fig18", "fig19", "fig20",
            "fig21", "fig23", "fig24", "fig26", "fig27", "fig28",
            "fig29", "fig30", "fig31", "headline",
        }
        assert expected <= set(REGISTRY)

    def test_ablations_registered(self):
        assert {k for k in REGISTRY if k.startswith("ablation-")} == {
            "ablation-upsampling",
            "ablation-interpolation",
            "ablation-gradient-threshold",
            "ablation-reuse-radius",
            "ablation-k-window",
        }


class TestLightExperiments:
    def test_fig01_contract(self):
        result = fig01_motivation.run(quick=True)
        assert "rows" in result and "paper" in result
        assert result["avg_map"].ndim == 2
        assert np.all(np.diff(result["cdf_values"]) >= 0)

    def test_fig03_contract(self):
        result = fig03_centroid_vs_optimal.run(quick=True, seeds=(0, 1))
        assert 0.0 <= result["mean_ratio"] <= 1.5
        assert result["rows"][-1]["seed"] == "mean"

    def test_fig07_swing(self):
        result = fig07_pathloss_variation.run(quick=True)
        row = result["rows"][0]
        assert row["max_pl_db"] > row["min_pl_db"]
        assert len(result["arc_m"]) == len(result["path_loss_db"])

    def test_fig08_interior_minimum(self):
        result = fig08_altitude.run(quick=True)
        row = result["rows"][0]
        assert row["loss_at_best_db"] <= row["loss_at_120m_db"]
        assert row["loss_at_best_db"] <= row["loss_at_10m_db"]

    def test_fig12_decay(self):
        result = fig12_epoch_length.run(
            quick=True, fractions=(0.5,), duration_min=20.0, step_min=10.0
        )
        row = result["rows"][0]
        assert row["epoch_at_10pct_min"] >= 0.0
        times, rel = result["curves"][0.5]
        assert rel[0] == pytest.approx(1.0)


@pytest.mark.experiments
class TestArtifactCache:
    """End-to-end runner contract: caching and parallelism change
    nothing about the results, byte for byte."""

    def test_warm_rerun_is_bit_identical_and_skips_compute(self, tmp_path):
        from repro.experiments.artifacts import ArtifactStore
        from repro.experiments.registry import run_experiment

        store = ArtifactStore(tmp_path)
        cold = run_experiment("fig7", quick=True, store=store)
        assert cold.computed == len(cold.params) and cold.cached == 0
        assert cold.perf_delta["counters"]["experiments.point.computed"] == len(
            cold.params
        )
        cold_bytes = cold.artifact_path.read_bytes()

        warm = run_experiment("fig7", quick=True, store=store)
        # Every point comes from disk: no point computation at all,
        # verified through the perf counters the runner itself keeps.
        assert warm.computed == 0 and warm.cached == len(warm.params)
        counters = warm.perf_delta["counters"]
        assert counters["experiments.point.cache_hit"] == len(warm.params)
        assert "experiments.point.computed" not in counters
        assert warm.records == cold.records
        assert roundtrip(warm.result) == roundtrip(cold.result)
        assert warm.artifact_path.read_bytes() == cold_bytes

    def test_force_recomputes_cached_points(self, tmp_path):
        from repro.experiments.artifacts import ArtifactStore
        from repro.experiments.registry import run_experiment

        store = ArtifactStore(tmp_path)
        run_experiment("fig7", quick=True, store=store)
        forced = run_experiment("fig7", quick=True, store=store, force=True)
        assert forced.computed == len(forced.params) and forced.cached == 0

    def test_parallel_matches_serial(self, tmp_path):
        from repro.experiments.artifacts import ArtifactStore
        from repro.experiments.registry import run_experiment

        serial = run_experiment(
            "fig3",
            quick=True,
            overrides={"seeds": (0, 1)},
            workers=1,
            store=ArtifactStore(tmp_path / "serial"),
        )
        parallel = run_experiment(
            "fig3",
            quick=True,
            overrides={"seeds": (0, 1)},
            workers=2,
            store=ArtifactStore(tmp_path / "parallel"),
        )
        assert parallel.workers == 2 and serial.workers == 1
        assert parallel.records == serial.records
        assert roundtrip(parallel.result) == roundtrip(serial.result)
        assert (
            parallel.artifact_path.read_bytes() == serial.artifact_path.read_bytes()
        )


class TestNumWorkersEnv:
    def test_unset_is_serial_and_an_integer_is_the_width(self, monkeypatch):
        from repro.experiments.registry import NUM_WORKERS_ENV, default_num_workers

        monkeypatch.delenv(NUM_WORKERS_ENV, raising=False)
        assert default_num_workers() == 1
        monkeypatch.setenv(NUM_WORKERS_ENV, "3")
        assert default_num_workers() == 3

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_value_fails_loudly(self, monkeypatch, value):
        from repro.experiments.registry import (
            NUM_WORKERS_ENV,
            default_num_workers,
            run_experiment,
        )

        monkeypatch.setenv(NUM_WORKERS_ENV, value)
        with pytest.raises(ValueError, match=f"REPRO_NUM_WORKERS.*{value!r}"):
            default_num_workers()
        with pytest.raises(ValueError, match="REPRO_NUM_WORKERS"):
            run_experiment("fig7", quick=True)


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig20" in out and "headline" in out

    def test_run_known(self, capsys):
        assert cli_main(["run", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "swing_db" in out

    def test_run_unknown(self, capsys):
        assert cli_main(["run", "fig99"]) == 2
