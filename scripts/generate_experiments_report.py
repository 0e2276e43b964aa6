"""Regenerate EXPERIMENTS.md from a full pass over every experiment.

Runs each registered experiment at quick fidelity through
:func:`repro.experiments.registry.run_experiment` (no point cache, so
the numbers come from the current tree; ``REPRO_NUM_WORKERS`` sets the
process-pool width) and writes a paper-vs-measured markdown report:
each figure's rows, then its claims table with a pass / FAIL /
known-failing / STALE status.  Re-run after model changes.

Usage:  python scripts/generate_experiments_report.py [output.md]
"""

from __future__ import annotations

import sys
import traceback
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.registry import (  # noqa: E402
    claim_report,
    experiment_names,
    get_experiment,
    run_experiment,
)

HEADER = """# EXPERIMENTS — paper vs. measured

Every quantitative figure in the paper's evaluation, reproduced on the
synthetic substrate (see DESIGN.md for the substitutions).  Numbers
are from the `quick` fidelity the CLI runs by default (coarse grids,
few seeds); absolute values differ from the paper's testbed.  The
*shape* claims are checked data: under each figure, its claims table
gives the measured value, the bound and a status.  `known-failing`
claims are listed in `KNOWN_FAILING`
(`src/repro/experiments/registry.py`) and are open roadmap debt;
`python -m repro.experiments run` fails on any other failing claim.

Regenerate with `python scripts/generate_experiments_report.py`.

## Known deltas vs. the paper

* **Headline budget (known-failing).** At the paper's "about 30 s" of
  measurement flight (250 m at 30 km/h) SkyRAN reaches 0.702x of
  optimal and Uniform 0.734x, so `sky_over_uniform` is 0.955: SkyRAN
  loses to Uniform on the headline grid (seeds 0-3).  Against
  Centroid it gains 1.006x, not the paper's ~1.5x.  The Fig. 23
  budget curves show SkyRAN pulling ahead on the clustered topology
  from the smallest budget.
* **Localization (Figs. 17-19).** Ranging is metre-scale (all-UE
  median 0.9 m), but UE 6 alone has a 5.3 m ranging median, which
  looks like NLOS excess delay.  The all-UE localization median is
  9.1 m against the paper's 5-7 m; UE 6's is 49.6 m.  That is still
  below the claim's 20 m bound (the 50-100 m macro-cell strawman over
  2.5).
* **Fig. 9 (known-failing).** With no injected error the placement
  reaches 0.812x of optimal, below the 0.842 bound set by the 25 m
  row (0.892x): on this single seed the error sweep is not monotone.
* **Overhead (Figs. 26-28) is censored (known-failing).** A run that
  never meets its target within 8 epochs reports its whole flight, a
  lower bound on the overhead.  `skyran_reached` / `uniform_reached`
  count the runs that did meet it, and any claim on a row with a
  censored run fails.  Fig. 26: STATIC 2/3 for both schemes (seed 1
  never reaches 0.9x), DYNAMIC 3/3.  Fig. 27: RURAL SkyRAN 2/2 but
  Uniform 0/2, NYC and LARGE 1/2 for both.  Fig. 28: 0/3 in every
  row, so no run reaches a 5 dB REM and the table compares caps.
  All six overhead claims are known-failing.
* **Relative throughput above 1 (Figs. 29, 31).** `skyran_rel` reads
  14.3 on NYC in Fig. 29 and 5.1 at 4 UEs in Fig. 31: the metric
  divides mean throughput by the mean throughput at the max-min-SNR
  optimum, which mixes two objectives and is unbounded.  Their claims
  pass, but on that metric.
* **Fig. 6 naive curve.** Our naive sweep interpolates better than the
  paper's at high coverage, because the synthetic shadowing field is
  smoother than campus reality.  The low-coverage contrast, which is
  the figure's point, reproduces.

## Results

"""


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _table(keys, rows) -> list:
    lines = ["| " + " | ".join(keys) + " |", "|" + "---|" * len(keys)]
    lines += ["| " + " | ".join(_fmt(v) for v in row) + " |" for row in rows]
    return lines


def main() -> None:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("EXPERIMENTS.md")
    sections = []
    tally: Counter = Counter()
    for name in experiment_names():
        print(f"[{name}] running...", flush=True)
        try:
            run = run_experiment(name, quick=True)
        except Exception:
            print(f"[{name}] FAILED")
            traceback.print_exc()
            sections.append(f"### {name}\n\n*FAILED — see CI logs.*\n")
            tally["experiment failed"] += 1
            continue
        result = run.result
        rows = result.get("rows", [])
        paper = result.get("paper", "")
        lines = [f"### {name}\n"]
        if paper:
            lines.append(f"**Paper:** {paper}\n")
        if rows:
            keys = list(rows[0].keys())
            lines += _table(keys, ([row[k] for k in keys] for row in rows))
        report = claim_report(get_experiment(name), result)
        if report:
            lines.append("\n**Claims:**\n")
            lines += _table(
                ("status", "claim", "value", "bound"),
                ((status, c.name, c.value, c.bound) for c, status in report),
            )
            tally.update(status for _, status in report)
        lines.append(f"\n*({run.wall_time_s:.0f} s)*\n")
        sections.append("\n".join(lines))
        print(f"[{name}] done in {run.wall_time_s:.0f} s")
    summary = ", ".join(f"{n} {status}" for status, n in sorted(tally.items()))
    text = HEADER + f"Claims on this tree: {summary}.\n\n" + "\n".join(sections)
    out_path.write_text(text)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
