"""Tests for the experiment-harness helpers."""

import numpy as np
import pytest

from repro.experiments.common import config_for, empirical_cdf, print_rows, scenario_for
from repro.experiments.placement_common import TESTBED_ALTITUDE_M, run_scheme


class TestHelpers:
    def test_empirical_cdf_monotone(self, rng):
        cdf = empirical_cdf(rng.uniform(0, 10, 50))
        assert np.all(np.diff(cdf["values"]) >= 0)
        assert cdf["cdf"][0] == pytest.approx(1 / 50)
        assert cdf["cdf"][-1] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_print_rows_smoke(self, capsys):
        print_rows("title", [{"a": 1.5, "b": "x"}], "claim")
        out = capsys.readouterr().out
        assert "title" in out and "claim" in out and "1.500" in out
        print_rows("empty", [])
        assert "(no rows)" in capsys.readouterr().out

    def test_config_for_overrides(self):
        cfg = config_for(quick=True, reuse_radius_m=25.0)
        assert cfg.rem_cell_size_m == 4.0
        assert cfg.reuse_radius_m == 25.0


class TestFactories:
    def test_scenario_factory_terrains(self):
        sc = scenario_for("campus", n_ues=2, seed=0, quick=True)
        assert sc.terrain.name == "campus"
        assert len(sc.ues) == 2


class TestRunScheme:
    @pytest.fixture(scope="class")
    def scenario(self):
        return scenario_for("campus", n_ues=3, seed=2, quick=True)

    def test_skyran_contract(self, scenario):
        out = run_scheme(scenario, "skyran", budget_m=200.0, seed=0, quick=True)
        assert out.scheme == "skyran"
        assert len(out.records) == 1
        assert out.final.altitude_m == TESTBED_ALTITUDE_M
        assert 0.0 <= out.final.relative_throughput <= 1.5
        assert np.isfinite(out.final.rem_error_db)

    def test_centroid_has_no_rem(self, scenario):
        out = run_scheme(scenario, "centroid", budget_m=0.0, seed=0, quick=True)
        assert np.isnan(out.final.rem_error_db)

    def test_unknown_scheme(self, scenario):
        with pytest.raises(ValueError):
            run_scheme(scenario, "oracle", budget_m=100.0)
