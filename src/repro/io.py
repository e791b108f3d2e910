"""Persistence: save and load scenarios, topologies, instances, strategies.

Reproducibility artifacts: a trial's exact instance and the profiles a
solver produced can be serialised to a single ``.npz`` file and reloaded
bit-exactly — the format every array-backed object in this package
round-trips through.  JSON is deliberately not used for the bulk arrays
(lossy/verbose); a small JSON header inside the archive carries scalars.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import RadioConfig
from .core.instance import IDDEInstance
from .core.profiles import AllocationProfile, DeliveryProfile
from .core.objectives import evaluate
from .core.strategy import Solution
from .errors import DatasetError
from .topology.graph import EdgeTopology
from .types import Scenario

__all__ = [
    "save_instance",
    "load_instance",
    "save_strategy",
    "load_strategy",
    "save_json",
    "load_json",
    "save_jsonl",
    "load_jsonl",
]

_FORMAT_VERSION = 1


def _radio_to_dict(cfg: RadioConfig) -> dict:
    return {
        "eta": cfg.eta,
        "loss_exponent": cfg.loss_exponent,
        "bandwidth": cfg.bandwidth,
        "noise_dbm": cfg.noise_dbm,
        "channels_per_server": cfg.channels_per_server,
        "min_distance": cfg.min_distance,
    }


def _radio_from_dict(d: dict) -> RadioConfig:
    return RadioConfig(**d)


def save_instance(instance: IDDEInstance, path: str | Path) -> Path:
    """Serialise a full instance (scenario + topology + radio) to ``.npz``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sc = instance.scenario
    topo = instance.topology
    header = {
        "format_version": _FORMAT_VERSION,
        "kind": "instance",
        "radio": _radio_to_dict(instance.radio),
        "cloud_speed": topo.cloud_speed,
        "has_gain_override": instance.gain_override is not None,
    }
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        "server_xy": sc.server_xy,
        "radius": sc.radius,
        "storage": sc.storage,
        "channels": sc.channels,
        "user_xy": sc.user_xy,
        "power": sc.power,
        "rmax": sc.rmax,
        "sizes": sc.sizes,
        "requests": sc.requests,
        "links": topo.links,
        "speeds": topo.speeds,
    }
    if instance.gain_override is not None:
        arrays["gain_override"] = instance.gain_override
    np.savez_compressed(path, **arrays)
    return path


def _read_header(data: np.lib.npyio.NpzFile, expected_kind: str) -> dict:
    try:
        header = json.loads(bytes(data["header"]).decode("utf-8"))
    except KeyError as exc:
        raise DatasetError("missing header; not a repro archive") from exc
    if header.get("format_version") != _FORMAT_VERSION:
        raise DatasetError(
            f"unsupported format version {header.get('format_version')!r}"
        )
    if header.get("kind") != expected_kind:
        raise DatasetError(
            f"archive holds a {header.get('kind')!r}, expected {expected_kind!r}"
        )
    return header


def load_instance(path: str | Path) -> IDDEInstance:
    """Reload an instance saved by :func:`save_instance`."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    with np.load(path) as data:
        header = _read_header(data, "instance")
        scenario = Scenario(
            server_xy=data["server_xy"],
            radius=data["radius"],
            storage=data["storage"],
            channels=data["channels"],
            user_xy=data["user_xy"],
            power=data["power"],
            rmax=data["rmax"],
            sizes=data["sizes"],
            requests=data["requests"],
        )
        topology = EdgeTopology(
            n=scenario.n_servers,
            links=data["links"],
            speeds=data["speeds"],
            cloud_speed=float(header["cloud_speed"]),
        )
        gain = data["gain_override"] if header["has_gain_override"] else None
        return IDDEInstance(
            scenario,
            topology,
            _radio_from_dict(header["radio"]),
            gain_override=gain,
        )


def save_json(obj: dict, path: str | Path) -> Path:
    """Write a JSON document with stable key order and a trailing newline.

    Small structured artifacts (benchmark trajectories, comparison
    reports) go through JSON rather than ``.npz``: they hold scalars and
    short lists, and diffs of committed artifacts should be readable.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_json(path: str | Path) -> dict:
    """Read a JSON document written by :func:`save_json`.

    Raises :class:`~repro.errors.DatasetError` when the file is missing,
    unparseable, or does not hold a JSON object at the top level.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DatasetError(f"{path} holds a {type(obj).__name__}, expected an object")
    return obj


def save_jsonl(records: list[dict], path: str | Path) -> Path:
    """Write a JSON-Lines document: one compact object per line.

    Line-oriented artifacts (IDDE-Trace documents) stream through standard
    tooling without loading the whole file; keys are sorted per line so
    committed samples diff cleanly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise DatasetError(
                f"JSONL record {i} is a {type(record).__name__}, expected an object"
            )
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def load_jsonl(path: str | Path) -> list[dict]:
    """Read a JSON-Lines document written by :func:`save_jsonl`.

    Raises :class:`~repro.errors.DatasetError` with the offending line
    number when the file is missing, a line is unparseable, or a line does
    not hold a JSON object.  Blank lines are tolerated (trailing newline).
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    records: list[dict] = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}:{lineno} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DatasetError(
                f"{path}:{lineno} holds a {type(obj).__name__}, expected an object"
            )
        records.append(obj)
    return records


def save_strategy(solution: Solution, path: str | Path) -> Path:
    """Serialise a solution's profiles, solver name and wall time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format_version": _FORMAT_VERSION,
        "kind": "strategy",
        "solver": solution.solver,
        "wall_time_s": solution.wall_time_s,
    }
    np.savez_compressed(
        path,
        header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        alloc_server=solution.allocation.server,
        alloc_channel=solution.allocation.channel,
        placed=solution.delivery.placed,
    )
    return path


def load_strategy(path: str | Path, instance: IDDEInstance) -> Solution:
    """Reload the profiles :func:`save_strategy` wrote, evaluated on ``instance``.

    The :class:`~repro.core.objectives.Evaluation` is recomputed from the
    profiles; phase results, ``extras`` and the request are not persisted.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    with np.load(path) as data:
        header = _read_header(data, "strategy")
        allocation = AllocationProfile(data["alloc_server"], data["alloc_channel"])
        delivery = DeliveryProfile(data["placed"])
    return Solution(
        solver=str(header["solver"]),
        allocation=allocation,
        delivery=delivery,
        evaluation=evaluate(instance, allocation, delivery),
        wall_time_s=float(header["wall_time_s"]),
    )
