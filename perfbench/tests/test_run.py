"""Unit tests of how run.py folds a worker's passes into metrics.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from run import fastest, repeat_problems  # noqa: E402


def _pass(op_s, gap_s, outcome=None, traced=False):
    return {
        "run_s": sum(op_s) + sum(gap_s),
        "op_s": op_s,
        "gap_s": gap_s,
        "outcome": outcome or {"digest": "a"},
        "traced": traced,
    }


def test_fastest_keeps_each_op_and_each_stretch_at_its_fastest_pass():
    timing = fastest(
        [
            _pass([1.0, 4.0, 2.0], [0.5, 1.0, 1.0, 0.25]),
            _pass([1.5, 3.0, 2.5], [1.5, 0.5, 1.0, 0.5]),
        ]
    )
    assert timing["op_s"] == [1.0, 3.0, 2.0]
    assert timing["run_s"] == pytest.approx(6.0 + 0.5 + 0.5 + 1.0 + 0.25)


def test_fastest_of_one_pass_is_that_pass():
    timing = fastest([_pass([0.5, 0.25], [1.0, 2.0, 0.125])])
    assert timing == {"run_s": 3.875, "op_s": [0.5, 0.25]}


def test_passes_that_repeat_the_first_pass_raise_nothing():
    passes = [_pass([1.0, 2.0], [0.0] * 3), _pass([1.1, 2.1], [0.0] * 3, traced=True)]
    assert repeat_problems(passes) == []


@pytest.mark.parametrize(
    "other",
    [
        _pass([1.0, 2.0], [0.0] * 3, outcome={"digest": "b"}),
        _pass([1.0, 2.0, 3.0], [0.0] * 4),
    ],
)
def test_a_pass_with_other_outputs_or_op_count_is_a_problem(other):
    problems = repeat_problems([_pass([1.0, 2.0], [0.0] * 3), other])
    assert problems == ["pass 1 (untraced) differs from pass 0"]
