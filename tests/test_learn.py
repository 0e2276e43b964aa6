"""Tests of the learned-control subsystem (``repro.learn``).

The contracts under test, in order of importance:

1. the zero/absent-model ``learned`` interpolator is **bitwise**
   identical to plain IDW — on ragged random tilings, not just neat
   ones (hypothesis);
2. dataset export -> train -> serialize is byte-for-byte deterministic
   across repeat runs;
3. the registry ``override`` guard: duplicate registrations raise
   unless ``override=True``;
4. the learned epoch trigger never fires later than the reactive rule,
   and every trust gate (fault injector, cold start, corrupt window,
   missing model) falls back with a counted ``learn.fallback.*``;
5. model serialization round-trips exactly and refuses schema drift;
6. ``python -m repro.learn export`` writes one file per table and
   forwards ``--seeds``/``--terrains`` to every builder.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.learn  # noqa: F401  (registers the "learned" interpolator)
from repro.core.epoch import EpochTrigger
from repro.geo.grid import GridSpec
from repro.learn import io as lio
from repro.learn.adapters import clear_model_cache
from repro.learn.constants import (
    REM_FEATURE_NAMES,
    TRIGGER_FEATURE_NAMES,
    TRIGGER_WINDOW,
)
from repro.learn.features import rem_features, trace_to_windows, trigger_features
from repro.learn.models import (
    ModelSchemaError,
    RidgeModel,
    TinyMLP,
    load_model,
    make_model,
    save_model,
    zero_model,
)
from repro.learn.trigger import CollapsePredictor
from repro.perf import perf
from repro.rem.interpolate import (
    available_interpolators,
    make_interpolator,
    register_interpolator,
)
from repro.rem.interpolate import _REGISTRY as _INTERP_REGISTRY

pytestmark = pytest.mark.learn


# -- registry override guards (satellite a) -----------------------------------


class TestRegistryOverride:
    def test_interpolator_duplicate_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_interpolator("idw", lambda **kw: None)

    def test_interpolator_override_replaces_and_restores(self):
        original = _INTERP_REGISTRY["idw"]
        try:
            register_interpolator("idw", lambda **kw: "sentinel", override=True)
            assert _INTERP_REGISTRY["idw"] is not original
        finally:
            register_interpolator("idw", original, override=True)
        assert _INTERP_REGISTRY["idw"] is original

    def test_learned_is_registered(self):
        assert "learned" in available_interpolators()


# -- bitwise degeneration to IDW (hypothesis, satellite c) --------------------


def _random_map(draw):
    nx = draw(st.integers(min_value=2, max_value=14))
    ny = draw(st.integers(min_value=2, max_value=14))
    cell = draw(st.floats(min_value=0.5, max_value=30.0))
    grid = GridSpec(
        draw(st.floats(min_value=-50.0, max_value=50.0)),
        draw(st.floats(min_value=-50.0, max_value=50.0)),
        cell,
        nx,
        ny,
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 10.0, (ny, nx))
    n_measured = draw(st.integers(min_value=1, max_value=nx * ny))
    mask = np.zeros(nx * ny, dtype=bool)
    mask[rng.choice(nx * ny, size=n_measured, replace=False)] = True
    values[~mask.reshape(ny, nx)] = np.nan
    return grid, values, rng


class TestBitwiseDegeneration:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_no_model_is_bitwise_idw_on_ragged_tilings(self, data):
        """model_path=None must return the very IDW result object."""
        grid, values, rng = _random_map(data.draw)
        idw = make_interpolator("idw")
        learned = make_interpolator("learned")
        fallback = rng.normal(0.0, 10.0, grid.shape)
        for fb in (None, fallback):
            a = idw.interpolate(grid, values, fallback=fb)
            b = learned.interpolate(grid, values, fallback=fb)
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_zero_model_is_bitwise_idw(self, tmp_path_factory, data):
        grid, values, _ = _random_map(data.draw)
        td = tmp_path_factory.mktemp("zero")
        path = td / "zero.npz"
        save_model(
            zero_model(len(REM_FEATURE_NAMES)),
            path,
            feature_names=REM_FEATURE_NAMES,
            target_name="residual_db",
        )
        clear_model_cache()
        try:
            a = make_interpolator("idw").interpolate(grid, values)
            b = make_interpolator("learned", model_path=str(path)).interpolate(
                grid, values
            )
            np.testing.assert_array_equal(a, b)
        finally:
            clear_model_cache()

    def test_broken_model_path_degrades_with_counter(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a model")
        (tmp_path / "junk.json").write_text("{}")
        clear_model_cache()
        grid = GridSpec(0.0, 0.0, 4.0, 6, 5)
        values = np.full(grid.shape, np.nan)
        values[0, 0] = 3.0
        before = perf.counters()
        try:
            with pytest.warns(RuntimeWarning, match="cannot load model"):
                b = make_interpolator("learned", model_path=str(path)).interpolate(
                    grid, values
                )
        finally:
            clear_model_cache()
        a = make_interpolator("idw").interpolate(grid, values)
        np.testing.assert_array_equal(a, b)
        deltas = perf.counters_since(before)
        assert deltas.get("learn.fallback.model_load") == 1

    def test_trained_model_changes_only_missing_cells(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, len(REM_FEATURE_NAMES)))
        y = X[:, 0] * 3.0 + 5.0
        model = RidgeModel().fit(X, y)
        path = save_model(
            model,
            tmp_path / "m.npz",
            feature_names=REM_FEATURE_NAMES,
            target_name="residual_db",
        )
        grid = GridSpec(0.0, 0.0, 4.0, 8, 8)
        values = rng.normal(0.0, 10.0, grid.shape)
        missing = rng.random(grid.shape) < 0.7
        values[missing] = np.nan
        clear_model_cache()
        try:
            a = make_interpolator("idw").interpolate(grid, values)
            b = make_interpolator("learned", model_path=str(path)).interpolate(
                grid, values
            )
        finally:
            clear_model_cache()
        np.testing.assert_array_equal(a[~missing], b[~missing])
        assert not np.array_equal(a[missing], b[missing])


# -- deterministic artifacts (satellite c) ------------------------------------


class TestDeterministicArtifacts:
    def test_save_arrays_byte_stable(self, tmp_path):
        arrays = {
            "b": np.arange(12, dtype=np.float64).reshape(3, 4),
            "a": np.float64(2.5),
            "c": np.arange(5, dtype=np.int64),
        }
        p1, p2 = tmp_path / "x1.npz", tmp_path / "x2.npz"
        lio.save_arrays(p1, arrays)
        lio.save_arrays(p2, arrays)
        assert p1.read_bytes() == p2.read_bytes()
        back = lio.load_arrays(p1)
        assert set(back) == set(arrays)
        np.testing.assert_array_equal(back["b"], arrays["b"])
        assert float(back["a"]) == 2.5

    def test_save_arrays_preserves_zero_d(self, tmp_path):
        lio.save_arrays(tmp_path / "s.npz", {"v": np.float64(7.0)})
        assert lio.load_arrays(tmp_path / "s.npz")["v"].shape == ()

    def test_model_serialization_deterministic(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        blobs = []
        for i in range(2):
            model = TinyMLP(n_iter=20).fit(X, y)
            p = tmp_path / f"m{i}.npz"
            save_model(model, p, feature_names=list("abcde"), target_name="t")
            blobs.append(p.read_bytes() + p.with_suffix(".json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        m1 = TinyMLP(n_iter=30).fit(X, y)
        m2 = TinyMLP(n_iter=30).fit(X, y)
        np.testing.assert_array_equal(m1.predict(X), m2.predict(X))

    def test_export_train_rerun_identical(self, tmp_path):
        """export -> train over a tiny synthetic table, twice, same bytes."""
        from repro.learn.dataset import Dataset, export_dataset

        rng = np.random.default_rng(1)
        ds = Dataset(
            "rem_residual",
            rng.normal(size=(30, len(REM_FEATURE_NAMES))),
            rng.normal(size=30),
            REM_FEATURE_NAMES,
            "residual_db",
            {"synthetic": True},
        )
        blobs = []
        for i in range(2):
            out = tmp_path / f"run{i}"
            p = export_dataset(ds, out, fingerprint="pinned")
            model = RidgeModel().fit(ds.X, ds.y)
            mp = out / "model.npz"
            save_model(
                model, mp, feature_names=ds.feature_names, target_name="residual_db"
            )
            blobs.append(
                p.read_bytes()
                + p.with_suffix(".json").read_bytes()
                + mp.read_bytes()
                + mp.with_suffix(".json").read_bytes()
            )
        assert blobs[0] == blobs[1]


class TestCLI:
    def test_export_all_writes_one_file_per_table(self, tmp_path):
        from repro.learn.cli import main

        out = tmp_path / "learn"
        assert main(["export", "--table", "all", "--seeds", "0", "--out", str(out)]) == 0
        assert len(list(out.glob("rem_residual_*.npz"))) == 1
        assert len(list(out.glob("epoch_kpi_*.npz"))) == 1
        assert len(list(out.glob("*.npz"))) == 2

    def test_terrains_reach_every_builder(self, tmp_path, monkeypatch):
        from repro.learn import dataset
        from repro.learn.cli import main

        seen = {}

        def spy(table):
            def build(**kwargs):
                seen[table] = kwargs
                return dataset.Dataset(
                    table, np.zeros((0, 1)), np.zeros(0), ("f",), "t", kwargs
                )

            return build

        for table in list(dataset.BUILDERS):
            monkeypatch.setitem(dataset.BUILDERS, table, spy(table))
        argv = ["export", "--seeds", "0", "--terrains", "campus", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert set(seen) == {"rem_residual", "epoch_kpi"}
        for kwargs in seen.values():
            assert kwargs == {"seeds": (0,), "terrains": ("campus",)}

    def test_only_the_two_tables_are_offered(self, tmp_path, capsys):
        from repro.learn.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["export", "--table", "scheduler", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        offered = err.split("choose from")[1].split(")")[0]
        names = [n.strip(" '") for n in offered.split(",")]
        assert names == ["all", "rem_residual", "epoch_kpi"]


# -- model zoo ----------------------------------------------------------------


class TestModels:
    def test_ridge_learns_linear(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = X @ np.array([2.0, -1.0, 0.5]) + 4.0
        m = RidgeModel().fit(X, y)
        assert float(np.mean((m.predict(X) - y) ** 2)) < 1e-3

    def test_mlp_beats_mean_on_nonlinear(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 2))
        y = np.tanh(X[:, 0]) * 3.0 + X[:, 1] ** 2
        m = TinyMLP().fit(X, y)
        assert float(np.mean((m.predict(X) - y) ** 2)) < float(y.var())

    def test_zero_model_predicts_zero(self):
        z = zero_model(6)
        assert z.is_zero
        assert not np.any(z.predict(np.ones((7, 6))))

    def test_make_model_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            make_model("forest")

    def test_roundtrip_predicts_identically(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        for model in (RidgeModel().fit(X, y), TinyMLP(n_iter=25).fit(X, y)):
            p = tmp_path / f"{model.kind}.npz"
            save_model(model, p, feature_names=list("wxyz"), target_name="t")
            back = load_model(p)
            np.testing.assert_array_equal(model.predict(X), back.predict(X))
            assert back.feature_names == ("w", "x", "y", "z")

    def test_load_refuses_schema_drift(self, tmp_path):
        m = zero_model(3)
        p = tmp_path / "m.npz"
        save_model(m, p, feature_names=list("abc"), target_name="t")
        sidecar = p.with_suffix(".json")
        meta = lio.load_json(sidecar)
        meta["feature_schema_version"] = 99
        lio.save_json(sidecar, meta)
        with pytest.raises(ModelSchemaError, match="feature schema"):
            load_model(p)


# -- features -----------------------------------------------------------------


class TestFeatures:
    def test_rem_features_shapes_and_order(self):
        grid = GridSpec(0.0, 0.0, 2.0, 6, 4)
        rng = np.random.default_rng(0)
        values = rng.normal(size=grid.shape)
        values[1:, :] = np.nan
        base = np.nan_to_num(values, nan=1.0)
        X, missing = rem_features(grid, values, base)
        assert X.shape == (int(missing.sum()), len(REM_FEATURE_NAMES))
        assert missing.sum() == 3 * 6
        assert np.isfinite(X).all()

    def test_rem_features_requires_measurement(self):
        grid = GridSpec(0.0, 0.0, 2.0, 3, 3)
        values = np.full(grid.shape, np.nan)
        with pytest.raises(ValueError, match="at least one measured"):
            rem_features(grid, values, np.zeros(grid.shape))

    def test_trigger_features_window_shape(self):
        X = trigger_features(np.linspace(1.0, 0.8, TRIGGER_WINDOW))
        assert X.shape == (1, len(TRIGGER_FEATURE_NAMES))
        # r_last, r_mean, r_min, slope<0, drop<0 for a decaying window
        assert X[0, 3] < 0 and X[0, 4] < 0

    def test_trace_to_windows_targets_are_min_ahead(self):
        trace = np.array([1.0] * TRIGGER_WINDOW + [0.5, 0.9, 0.8, 0.7])
        X, y = trace_to_windows(trace)
        assert len(y) == 1
        assert y[0] == 0.5

    def test_trace_too_short_yields_empty(self):
        X, y = trace_to_windows(np.ones(3))
        assert X.shape == (0, len(TRIGGER_FEATURE_NAMES)) and len(y) == 0


# -- learned epoch trigger ----------------------------------------------------


def _run_trigger(ratios, predictor=None, margin=0.1, debounce=1):
    trig = EpochTrigger(margin, debounce=debounce, predictor=predictor)
    trig.reset(1.0)
    for i, r in enumerate(ratios):
        if trig.update(float(r), t_s=float(i)):
            return i
    return None


class _ConstantModel:
    """Predicts the same min-ratio-ahead for any window."""

    def __init__(self, value):
        self.value = value

    def predict(self, X):
        return np.full(len(np.atleast_2d(X)), self.value)


class _FlagInjector:
    def __init__(self, active):
        self.active = active


class TestLearnedTrigger:
    def test_no_predictor_matches_reactive_exactly(self):
        rng = np.random.default_rng(0)
        ratios = 1.0 - np.cumsum(rng.uniform(0.0, 0.02, 40))
        assert _run_trigger(ratios) == _run_trigger(ratios, predictor=None)

    def test_predictive_fire_is_never_later(self):
        # Slow decay that stays above the reactive threshold for a
        # while: a pessimistic model fires as soon as the window fills.
        ratios = np.linspace(1.0, 0.905, 20)
        pred = CollapsePredictor(model=_ConstantModel(0.5), threshold=0.9)
        reactive = _run_trigger(ratios)
        learned = _run_trigger(ratios, predictor=pred)
        assert learned == TRIGGER_WINDOW - 1
        assert reactive is None or learned <= reactive

    def test_optimistic_model_never_suppresses_reactive(self):
        ratios = np.linspace(1.0, 0.5, 20)
        pred = CollapsePredictor(model=_ConstantModel(2.0), threshold=0.9)
        assert _run_trigger(ratios, predictor=pred) == _run_trigger(ratios)

    def test_fault_gate_refuses_and_counts(self):
        ratios = np.linspace(1.0, 0.905, 20)
        pred = CollapsePredictor(
            model=_ConstantModel(0.5),
            threshold=0.9,
            faults=_FlagInjector(active=True),
        )
        before = perf.counters()
        assert _run_trigger(ratios, predictor=pred) == _run_trigger(ratios)
        deltas = perf.counters_since(before)
        assert deltas.get("learn.fallback.fault_gate", 0) > 0
        assert "learn.trigger.predictive_fire" not in deltas

    def test_cold_start_refuses_and_counts(self):
        pred = CollapsePredictor(model=_ConstantModel(0.0), threshold=0.9)
        before = perf.counters()
        assert _run_trigger(np.ones(TRIGGER_WINDOW - 1), predictor=pred) is None
        assert perf.counters_since(before).get("learn.fallback.cold_start", 0) > 0

    def test_corrupt_window_refuses_and_counts(self):
        ratios = np.ones(TRIGGER_WINDOW + 4)
        ratios[TRIGGER_WINDOW] = np.inf  # corrupted KPI sample
        # Optimistic model: never fires, so sampling reaches (and must
        # refuse) the windows containing the corrupted ratio.
        pred = CollapsePredictor(model=_ConstantModel(2.0), threshold=0.9)
        before = perf.counters()
        _run_trigger(ratios, predictor=pred)
        assert perf.counters_since(before).get("learn.fallback.untrusted", 0) > 0

    def test_predictive_fire_counts(self):
        ratios = np.linspace(1.0, 0.905, 20)
        pred = CollapsePredictor(model=_ConstantModel(0.5), threshold=0.9)
        before = perf.counters()
        _run_trigger(ratios, predictor=pred)
        assert perf.counters_since(before).get("learn.trigger.predictive_fire") == 1


# -- fingerprint coverage (satellite b) ---------------------------------------


class TestFingerprint:
    def test_code_fingerprint_covers_learn_constants(self, monkeypatch):
        from repro.experiments.artifacts import code_fingerprint
        from repro.learn import constants

        base = code_fingerprint()
        assert base == code_fingerprint()  # stable within a build
        monkeypatch.setattr(constants, "RESIDUAL_CAP_DB", 99.0)
        assert code_fingerprint() != base

    def test_dataset_key_depends_on_fingerprint(self):
        from repro.learn.dataset import dataset_key

        k1 = dataset_key("rem_residual", {"a": 1}, "fp1")
        k2 = dataset_key("rem_residual", {"a": 1}, "fp2")
        k3 = dataset_key("rem_residual", {"a": 2}, "fp1")
        assert len({k1, k2, k3}) == 3
