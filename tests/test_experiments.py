"""Smoke tests for the per-figure experiment modules, their paper
claims and the CLI.

Heavy experiments run through the CLI (CI's claims step and the
EXPERIMENTS.md generator); here we execute the light ones end to end
and check the result contract (``rows`` + ``paper``), that claims are
computed from the result alone, and the CLI's claim gate.
"""

import numpy as np
import pytest

from repro.experiments import registry
from repro.experiments.artifacts import roundtrip
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import experiment_names, get_experiment

ABLATIONS = {
    "ablation-upsampling",
    "ablation-interpolation",
    "ablation-gradient-threshold",
    "ablation-reuse-radius",
    "ablation-k-window",
}

#: Every figure that carries paper claims (each once had a bench).
CLAIM_FIGURES = {
    "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig12", "fig14", "fig17", "fig18", "fig19", "fig20", "fig21",
    "fig23", "fig24", "fig26", "fig27", "fig28", "fig29", "fig30",
    "fig31", "headline", "rem-vs-tputmap",
}


def run(name, **overrides):
    return get_experiment(name).run(quick=True, **overrides)


class TestRegistry:
    def test_every_paper_figure_registered(self):
        expected = CLAIM_FIGURES - {"fig5", "rem-vs-tputmap"}
        assert expected <= set(experiment_names())

    def test_ablations_registered(self):
        assert {k for k in experiment_names() if k.startswith("ablation-")} == ABLATIONS


class TestLightExperiments:
    def test_fig01_contract(self):
        result = run("fig1")
        assert "rows" in result and "paper" in result
        assert result["avg_map"].ndim == 2
        assert np.all(np.diff(result["cdf_values"]) >= 0)

    def test_fig03_contract(self):
        result = run("fig3", seeds=(0, 1))
        assert 0.0 <= result["mean_ratio"] <= 1.5
        assert result["rows"][-1]["seed"] == "mean"

    def test_fig07_swing(self):
        result = run("fig7")
        row = result["rows"][0]
        assert row["max_pl_db"] > row["min_pl_db"]
        assert len(result["arc_m"]) == len(result["path_loss_db"])

    def test_fig08_interior_minimum(self):
        result = run("fig8")
        row = result["rows"][0]
        assert row["loss_at_best_db"] <= row["loss_at_120m_db"]
        assert row["loss_at_best_db"] <= row["loss_at_10m_db"]

    def test_fig12_decay(self):
        result = run("fig12", fractions=(0.5,), duration_min=20.0, step_min=10.0)
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

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        # Workers start with the pins whatever this process carries,
        # and this process gets its own environment back.
        import os

        from repro.experiments.registry import WORKER_ENV, worker_pool

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        with worker_pool(2) as pool:
            seen = list(pool.map(os.getenv, list(WORKER_ENV)))
        assert seen == list(WORKER_ENV.values())
        assert os.environ["OPENBLAS_NUM_THREADS"] == "8"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_source_digest_sees_one_changed_byte(self, tmp_path):
        # The code fingerprint hashes every source file, so a point
        # function edited in place can never be served from the cache.
        import shutil
        from pathlib import Path

        import repro.experiments
        from repro.experiments.artifacts import source_digest

        root = tmp_path / "experiments"
        shutil.copytree(
            Path(repro.experiments.__file__).parent,
            root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        base = source_digest(root)
        assert source_digest(root) == base
        module = root / "fig17_ranging_cdf.py"
        code = bytearray(module.read_bytes())
        code[len(code) // 2] ^= 0x01
        module.write_bytes(bytes(code))
        assert source_digest(root) != base


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


class TestClaims:
    @pytest.mark.parametrize("name", ["fig1", "fig3", "fig7", "fig8"])
    def test_claims_survive_the_artifact_roundtrip(self, name):
        # ``summary`` checks claims on the stored (JSON) result, so the
        # claims must read the same from it as from the fresh one.
        exp = get_experiment(name)
        result = exp.run(quick=True)
        claims = exp.claims(result)
        assert claims
        assert claims == exp.claims(roundtrip(result))

    def test_former_bench_figures_and_ablations_carry_claims(self):
        for name in sorted(CLAIM_FIGURES | ABLATIONS):
            assert get_experiment(name).claims is not None, name

    def test_known_failing_names_registered_experiments(self):
        names = set(experiment_names())
        for experiment, claim in registry.KNOWN_FAILING:
            assert experiment in names, (experiment, claim)

    def test_censored_overhead_row_fails_its_claim(self):
        row = {
            "mode": "STATIC",
            "skyran_time_min": 1.0,
            "uniform_time_min": 2.0,
            "skyran_reached": "3/3",
            "uniform_reached": "3/3",
        }
        claims = get_experiment("fig28").claims
        assert claims({"rows": [row]})[0].ok
        assert not claims({"rows": [dict(row, uniform_reached="2/3")]})[0].ok

    def test_check_names_the_comparison(self):
        claim = registry.check("x", 2.0, ">", 1.0)
        assert claim == registry.Claim("x > 1.0", 2.0, 1.0, True)
        relative = registry.check("x", 2.0, "<=", 3.0, "y + 1")
        assert relative.name == "x <= y + 1" and relative.ok
        assert not registry.check("x", 2.0, ">", 1.0, valid=False).ok


class TestClaimGate:
    """``run`` exits 1 on an unlisted failing claim or a listed passing one."""

    NAME = "claim-gate-probe"

    @pytest.fixture
    def probe(self):
        def register(op):
            registry.register(
                self.NAME,
                title="claim gate probe",
                grid=lambda quick=True: [{"x": 1.0}],
                point=lambda params, quick=True: dict(params),
                aggregate=lambda records, quick=True: {"rows": records},
                claims=lambda result: [
                    registry.check("x", result["rows"][0]["x"], op, 0.5)
                ],
            )

        yield register
        registry._EXPERIMENTS.pop(self.NAME, None)

    def test_unlisted_failing_claim_exits_1(self, probe, capsys):
        probe("<")
        assert cli_main(["run", self.NAME, "--no-cache"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_listed_failing_claim_exits_0(self, probe, monkeypatch, capsys):
        probe("<")
        monkeypatch.setattr(registry, "KNOWN_FAILING", frozenset({(self.NAME, "x < 0.5")}))
        assert cli_main(["run", self.NAME, "--no-cache"]) == 0
        assert "known-failing" in capsys.readouterr().out

    def test_listed_passing_claim_exits_1(self, probe, monkeypatch, capsys):
        probe(">")
        monkeypatch.setattr(registry, "KNOWN_FAILING", frozenset({(self.NAME, "x > 0.5")}))
        assert cli_main(["run", self.NAME, "--no-cache"]) == 1
        assert "STALE" in capsys.readouterr().out

    def test_passing_claim_exits_0(self, probe):
        probe(">")
        assert cli_main(["run", self.NAME, "--no-cache"]) == 0


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
