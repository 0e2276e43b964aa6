"""Unit tests of the tracer: self-time arithmetic, percentile rule, restore.

    python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from spans import Instrumentation, Tracer, _wrap, root_time, self_times, tail_percentile  # noqa: E402

# name, start, end, parent, op
SPANS = [
    ["localization", 0.0, 10.0, -1, 0],
    ["lte.srs", 1.0, 4.0, 0, 0],
    ["channel", 2.0, 3.0, 1, 0],
    ["localization.joint", 5.0, 6.5, 0, 0],
    ["trajectory", 12.0, 14.0, -1, 1],
    ["trajectory.information", 12.5, 13.0, 4, 1],
]


def test_self_time_subtracts_direct_children_only():
    rows = self_times(SPANS)
    assert rows["localization"]["calls"] == 1
    assert rows["localization"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.5)
    assert rows["lte.srs"]["self_s"] == pytest.approx(3.0 - 1.0)
    assert rows["channel"]["self_s"] == pytest.approx(1.0)
    assert rows["trajectory"]["self_s"] == pytest.approx(1.5)


def test_self_times_and_other_add_up_to_the_run():
    rows = self_times(SPANS)
    covered = root_time(SPANS)
    assert covered == pytest.approx(12.0)
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(covered)
    run_s = 15.0
    other = run_s - covered
    assert sum(r["self_s"] for r in rows.values()) + other == pytest.approx(run_s)


def test_op_filter_keeps_the_child_arithmetic():
    rows = self_times(SPANS, ops=[1])
    assert set(rows) == {"trajectory", "trajectory.information"}
    assert rows["trajectory"]["self_s"] == pytest.approx(1.5)


def test_tracer_records_parent_and_op():
    tracer = Tracer()
    tracer.op = 3
    outer = tracer.enter("a")
    inner = tracer.enter("b")
    tracer.exit(inner)
    tracer.exit(outer)
    assert [s[3] for s in tracer.spans] == [-1, 0]
    assert [s[4] for s in tracer.spans] == [3, 3]
    (_, a0, a1, _, _), (_, b0, b1, _, _) = tracer.spans
    assert a0 <= b0 <= b1 <= a1


def test_generator_wrapper_times_every_step():
    tracer = Tracer()

    def gen(n):
        yield from range(n)

    assert list(_wrap(gen, "channel", tracer)(3)) == [0, 1, 2]
    # One span per item, plus the step that ends the iteration.
    assert [s[0] for s in tracer.spans] == ["channel"] * 4
    assert not any(math.isnan(s[2]) for s in tracer.spans)


@pytest.mark.parametrize(("n", "expected"), [(10, None), (99, None), (100, 89), (150, 134)])
def test_p90_needs_ten_samples_beyond_it(n, expected):
    assert tail_percentile(list(range(n)), 0.9) == expected


def test_instrumentation_wraps_where_callers_look_and_restores():
    np = pytest.importorskip("numpy")
    import repro.core.controller as controller
    import repro.core.placement as placement
    from repro.geo.grid import GridSpec
    from repro.rem.map import REM

    original = placement.max_min_placement
    original_interpolated = REM.__dict__["interpolated"]
    tracer = Tracer()
    instrumentation = Instrumentation(
        tracer,
        layers={
            "core.placement": (("repro.core.placement", "max_min_placement"),),
            "rem.interpolate": (("repro.rem.map", "REM.interpolated"),),
        },
    )
    instrumentation.install()
    try:
        assert controller.max_min_placement is not original
        assert REM.__dict__["interpolated"] is not original_interpolated
        grid = GridSpec.from_extent(20.0, 20.0, 5.0)
        controller.max_min_placement(grid, [np.zeros(grid.shape)], 60.0)
    finally:
        instrumentation.restore()
    assert [s[0] for s in tracer.spans] == ["core.placement"]
    assert controller.max_min_placement is original
    assert placement.max_min_placement is original
    assert REM.__dict__["interpolated"] is original_interpolated
    assert instrumentation.leftover_wrappers() == []
