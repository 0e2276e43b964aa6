"""On-disk artifact store for the experiment registry.

Completed grid points are memoized as small JSON files keyed by a
content hash of everything that determines their value: the point
function's identity, its parameters, the fidelity flag, and a
fingerprint of the code (every ``repro`` source file, plus the config,
channel and experiment-harness constants).  Re-running a figure —
or upgrading a ``--quick`` run to full fidelity point by point — only
computes the points whose keys are missing.

All writes are atomic (temp file + ``os.replace``) and byte-stable:
``json.dumps(..., sort_keys=True)`` of already-canonicalized records,
so a warm-cache re-run reproduces every artifact byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional

#: Environment override for the store root used by the CLI and smoke
#: scripts (defaults to ``benchmarks/artifacts/experiments``).
STORE_DIR_ENV = "REPRO_EXP_DIR"

#: Schema tags written into every artifact, validated by the smoke gate.
POINT_SCHEMA = "repro.experiment.point/v1"
EXPERIMENT_SCHEMA = "repro.experiment/v1"
PERF_SCHEMA = "repro.experiment.perf/v1"


def canonical_json(obj) -> str:
    """Deterministic compact JSON used for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def jsonable(value):
    """Recursively convert a record to plain JSON types.

    Dict keys become strings, tuples become lists, numpy scalars and
    arrays become Python numbers and nested lists.  Anything else
    falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item") and getattr(value, "ndim", None) == 0:
        return value.item()  # numpy scalar
    if hasattr(value, "tolist"):
        return jsonable(value.tolist())  # numpy array
    return str(value)


def roundtrip(value):
    """Force a record through JSON so cached and fresh values match.

    Aggregators always see records with exactly the types a cache load
    would produce (string keys, lists, floats), which is what makes a
    warm-cache re-run bit-identical to a cold one.  Keys are sorted so
    fresh records match the key order of records re-read from disk
    (the store writes ``sort_keys=True``).
    """
    return json.loads(json.dumps(jsonable(value), sort_keys=True))


def source_digest(root: "Path | str") -> str:
    """sha256 over every ``*.py`` under ``root``: sorted relative path + bytes."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def code_fingerprint() -> str:
    """Hash of the code and constants behind every experiment.

    Covers the source of the whole ``repro`` package
    (:func:`source_digest`), so any code change — a point function, the
    controller, a kernel — changes every point key and invalidates the
    cache wholesale; plus the :class:`~repro.core.config.SkyRANConfig`
    defaults (every operational knob), the channel/link-budget
    defaults, the experiment-harness constants, and the learned-control
    constants (:func:`repro.learn.constants.fingerprint_payload` —
    feature schemas, RNG lanes, model defaults).
    """
    from dataclasses import fields

    import repro
    from repro.channel.linkbudget import LinkBudget
    from repro.channel.model import ChannelModel
    from repro.core.config import SkyRANConfig
    from repro.experiments import common
    from repro.learn import constants as learn_constants

    channel_defaults = {
        f.name: f.default
        for f in fields(ChannelModel)
        if isinstance(f.default, (bool, int, float, str))
    }
    payload = {
        "source": source_digest(Path(repro.__file__).parent),
        "config": asdict(SkyRANConfig()),
        "channel": channel_defaults,
        "link": asdict(LinkBudget()),
        "harness": {
            "uav_speed_mps": common.UAV_SPEED_MPS,
            "quick_cell_m": common.QUICK_CELL_M,
            "quick_rem_cell_m": common.QUICK_REM_CELL_M,
        },
        "learn": learn_constants.fingerprint_payload(),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def point_key(point_id: str, params: Dict, quick: bool, fingerprint: str) -> str:
    """Content hash identifying one completed grid point.

    ``point_id`` is the point function's module-qualified name, so two
    figures sharing a point function (e.g. Figs. 29/30) share cache
    entries, while a renamed/rewritten function misses cleanly.
    """
    payload = {
        "point": point_id,
        "params": params,
        "quick": bool(quick),
        "fingerprint": fingerprint,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:24]


def default_store_root() -> Path:
    """Store root from ``REPRO_EXP_DIR`` (or the benchmarks tree)."""
    return Path(
        os.environ.get(STORE_DIR_ENV, "benchmarks/artifacts/experiments")
    )


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ArtifactStore:
    """Content-addressed point cache + per-experiment result artifacts.

    Layout::

        <root>/points/<key>.json     one cached grid point each
        <root>/EXP_<name>.json       deterministic experiment result
        <root>/EXP_<name>.perf.json  wall time + perf deltas (volatile)
    """

    def __init__(self, root: "Path | str | None" = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()

    # -- points --------------------------------------------------------------

    def point_path(self, key: str) -> Path:
        return self.root / "points" / f"{key}.json"

    def load_point(self, key: str) -> Optional[Dict]:
        """The cached record for a key, or None (corrupt files miss)."""
        path = self.point_path(key)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        if payload.get("schema") != POINT_SCHEMA or "record" not in payload:
            return None
        return payload["record"]

    def save_point(
        self, key: str, point_id: str, params: Dict, quick: bool, record: Dict
    ) -> Path:
        payload = {
            "schema": POINT_SCHEMA,
            "key": key,
            "point": point_id,
            "params": params,
            "quick": bool(quick),
            "record": record,
        }
        path = self.point_path(key)
        _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    # -- experiment-level artifacts ------------------------------------------

    def experiment_path(self, name: str) -> Path:
        return self.root / f"EXP_{name}.json"

    def perf_path(self, name: str) -> Path:
        return self.root / f"EXP_{name}.perf.json"

    def save_experiment(self, name: str, payload: Dict) -> Path:
        path = self.experiment_path(name)
        _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    def load_experiment(self, name: str) -> Optional[Dict]:
        try:
            with open(self.experiment_path(name)) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def save_perf(self, name: str, payload: Dict) -> Path:
        path = self.perf_path(name)
        _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path
