"""``python -m repro.learn`` — export, train, eval.

Three subcommands covering the subsystem's lifecycle::

    python -m repro.learn export --table rem_residual --out runs/learn
    python -m repro.learn train --dataset runs/learn/rem_residual_<key>.npz \
        --kind ridge --out runs/learn/rem_model.npz
    python -m repro.learn eval

``export`` writes the byte-deterministic training tables
(``rem_residual`` and ``epoch_kpi``, or ``all``); ``train`` fits a
model-zoo model on one and serializes it with provenance; ``eval``
runs the ``learned-control`` experiment (train-on-train-seeds,
measure-on-held-out-seed) and prints its rows.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.learn.dataset import BUILDERS, export_dataset

    tables = list(BUILDERS) if args.table == "all" else [args.table]
    for table in tables:
        kwargs = {}
        if args.seeds is not None:
            kwargs["seeds"] = tuple(args.seeds)
        if args.terrains is not None:
            kwargs["terrains"] = tuple(args.terrains)
        dataset = BUILDERS[table](**kwargs)
        path = export_dataset(dataset, args.out)
        print(f"{table}: {len(dataset.y)} rows -> {path}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.learn.dataset import load_dataset
    from repro.learn.evaluate import save_trained, train_on

    dataset = load_dataset(args.dataset)
    model = train_on(dataset, args.kind)
    path = save_trained(model, dataset, args.out)
    import numpy as np

    mse = float(np.mean((model.predict(dataset.X) - dataset.y) ** 2))
    print(
        f"{args.kind} on {dataset.table} ({len(dataset.y)} rows): "
        f"train MSE {mse:.4f} -> {path}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.experiments.common import print_rows
    from repro.experiments.learned_control import EXPERIMENT

    result = EXPERIMENT.run(
        quick=not args.full,
        seeds=tuple(args.seeds) if args.seeds is not None else (2,),
    )
    print_rows(EXPERIMENT.title, result["rows"], result.get("paper"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.learn",
        description="Learned RAN control: dataset export, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_export = sub.add_parser("export", help="write deterministic training tables")
    p_export.add_argument(
        "--table",
        default="all",
        choices=["all", "rem_residual", "epoch_kpi"],
    )
    p_export.add_argument("--out", default="runs/learn")
    p_export.add_argument("--seeds", type=int, nargs="+", default=None)
    p_export.add_argument("--terrains", nargs="+", default=None)
    p_export.set_defaults(func=_cmd_export)

    p_train = sub.add_parser("train", help="fit a model on an exported table")
    p_train.add_argument("--dataset", required=True, help="exported .npz path")
    p_train.add_argument("--kind", default="ridge", choices=["ridge", "mlp"])
    p_train.add_argument("--out", required=True, help="model .npz output path")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="run the learned-control ablation")
    p_eval.add_argument("--seeds", type=int, nargs="+", default=None)
    p_eval.add_argument("--full", action="store_true")
    p_eval.set_defaults(func=_cmd_eval)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
