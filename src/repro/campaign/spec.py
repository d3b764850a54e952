"""Declarative sweep specifications: what a campaign runs.

A campaign is a grid of simulation configurations.  Two frozen,
JSON-serialisable layers describe it:

* :class:`RunConfig` — everything one simulation needs (topology,
  workload knobs, fault mix, seed).  Its :meth:`~RunConfig.content_hash`
  is a stable digest of the canonical JSON encoding, so a config *is*
  its identity: the result cache, the work queue and the resume logic
  are all keyed by it.
* :class:`CampaignSpec` — a base config plus sweep axes, expanded into
  the concrete :class:`RunConfig` list by :meth:`~CampaignSpec.expand`.
  ``grid`` mode takes the cross product of the axes, ``zip`` mode walks
  equal-length axes in lockstep, and ``list`` mode enumerates explicit
  per-run overrides.

Seeds are derived, never enumerated: unless a run sets ``seed``
explicitly, its seed is :func:`derive_seed` of the campaign master seed
and the run's own content fingerprint.  Two campaigns with the same
master seed therefore agree on the seed of any config they share, and
reordering axes cannot silently reshuffle which run gets which seed.
Replication sweeps use the ``replica`` field — an inert integer whose
only job is to vary the fingerprint (and hence the derived seed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pathlib
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

#: Sweep expansion modes.
MODES = ("grid", "zip", "list")


def canonical_dumps(obj: object) -> str:
    """The one JSON encoding used for hashing and cache shards.

    Sorted keys and no whitespace: byte-identical for equal values, so
    content hashes and on-disk shards are stable across processes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(master_seed: int, *parts: object) -> int:
    """Derive a substream seed from a master seed and a label path.

    SHA-256 over the master seed and the stringified parts, reduced to
    63 bits.  Used for per-run seeds (master + config fingerprint) and
    for independent RNG substreams inside one run (seed + stage name),
    so no two stages ever share a ``random.Random`` stream by accident.
    """
    digest = hashlib.sha256()
    digest.update(str(int(master_seed)).encode())
    for part in parts:
        digest.update(b"\x1f")
        digest.update(str(part).encode())
    return int.from_bytes(digest.digest()[:8], "big") >> 1


@dataclass(frozen=True)
class RunConfig:
    """One simulation run, frozen and JSON-serialisable.

    The ``random`` workload uses ``channels``/``ticks``; the ``chaos``
    workload uses ``cycles``/``settle_cycles`` and the fault mix.
    Fields irrelevant to a workload still participate in the content
    hash — the hash identifies the *description*, not the behaviour.
    """

    workload: str = "random"       # registered in repro.campaign.workloads
    width: int = 4
    height: int = 4
    torus: bool = False
    channels: int = 8
    ticks: int = 100
    seed: int = 0
    #: Inert replication index; exists only to vary the derived seed.
    replica: int = 0
    # Chaos-workload knobs (see repro.faults.ChaosConfig).
    cycles: int = 6000
    settle_cycles: int = 4000
    cuts: int = 0
    flaps: int = 0
    corruptions: int = 0
    drops: int = 0
    babblers: int = 0
    # Churn-workload knobs (see repro.service.ServiceRunConfig);
    # percentages are integers so configs stay cleanly hashable.
    requests: int = 200
    arrival_period_ticks: int = 4
    hold_ticks: int = 200
    be_fraction_pct: int = 25
    util_threshold_pct: int = 90
    buffer_watermark_pct: int = 90
    queue_limit: int = 16
    #: Engine scheduling mode ("exact" or "event").  Both modes produce
    #: byte-identical results, so the mode is *not* part of the content
    #: hash (see :meth:`to_dict`) — cached results stay valid across
    #: mode switches.
    engine: str = "exact"

    def __post_init__(self) -> None:
        if not self.workload or not isinstance(self.workload, str):
            raise ValueError("workload must be a non-empty string")
        from repro.network.engine import ENGINE_MODES

        if self.engine not in ENGINE_MODES:
            raise ValueError(f"engine mode must be one of {ENGINE_MODES}, "
                             f"not {self.engine!r}")
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")
        for name in ("channels", "ticks", "replica", "settle_cycles",
                     "cuts", "flaps", "corruptions", "drops", "babblers"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.cycles < 1:
            raise ValueError("cycles must be positive")
        for name in ("requests", "arrival_period_ticks", "hold_ticks",
                     "queue_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("be_fraction_pct", "util_threshold_pct",
                     "buffer_watermark_pct"):
            if not 0 <= getattr(self, name) <= 100:
                raise ValueError(f"{name} must be within [0, 100]")

    def to_dict(self) -> dict:
        """Canonical encoding: the engine mode is dropped — it cannot
        change a run's outcome, so configs differing only in execution
        strategy share one content hash (and one cached result)."""
        data = dataclasses.asdict(self)
        del data["engine"]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown RunConfig fields: {unknown}")
        return cls(**data)  # type: ignore[arg-type]

    def canonical_json(self) -> str:
        return canonical_dumps(self.to_dict())

    def content_hash(self) -> str:
        """Stable identity of this config (hex SHA-256 of its JSON)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


#: Raw-run fields that never participate in seed derivation: the seed
#: itself, and the engine mode, which is likewise dropped from the
#: content hash (see :meth:`RunConfig.to_dict`) — a spec that flips the
#: engine mode must derive the same seeds, hit the same cache entries,
#: and report the same signature.
_FINGERPRINT_EXCLUDED = ("seed", "engine")


def _fingerprint(fields: Mapping[str, object]) -> str:
    """Canonical JSON of a run's fields with the seed and the engine
    mode removed."""
    return canonical_dumps({k: v for k, v in fields.items()
                            if k not in _FINGERPRINT_EXCLUDED})


@dataclass
class CampaignSpec:
    """A named sweep: base config, axes, and a master seed."""

    name: str
    master_seed: int = 0
    mode: str = "grid"
    base: dict = field(default_factory=dict)
    #: grid/zip modes: field name -> list of values.
    axes: dict = field(default_factory=dict)
    #: list mode: explicit per-run override dicts (merged over base).
    runs: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign needs a name")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, "
                             f"not {self.mode!r}")
        if self.mode == "list" and self.axes:
            raise ValueError("list mode takes runs, not axes")
        if self.mode in ("grid", "zip") and self.runs:
            raise ValueError(f"{self.mode} mode takes axes, not runs")
        if self.mode == "zip" and self.axes:
            lengths = {len(values) for values in self.axes.values()}
            if len(lengths) > 1:
                raise ValueError(
                    f"zip axes must have equal lengths, got {sorted(lengths)}"
                )

    # -- expansion ---------------------------------------------------------

    def _raw_runs(self) -> list[dict]:
        if self.mode == "list":
            return [dict(self.base, **overrides) for overrides in self.runs]
        if not self.axes:
            return [dict(self.base)]
        names = sorted(self.axes)
        if self.mode == "grid":
            combos = itertools.product(*(self.axes[n] for n in names))
        else:  # zip
            combos = zip(*(self.axes[n] for n in names))
        return [dict(self.base, **dict(zip(names, combo)))
                for combo in combos]

    def expand(self) -> list[RunConfig]:
        """The concrete run list: seeded, deduplicated, hash-ordered.

        Runs without an explicit ``seed`` get one derived from the
        master seed and their own content fingerprint.  Identical
        configs collapse to one (the campaign is content-addressed),
        and the result is sorted by content hash — the runner's work
        queue order.
        """
        configs: dict[str, RunConfig] = {}
        for fields_ in self._raw_runs():
            if "seed" not in fields_:
                fields_ = dict(fields_)
                fields_["seed"] = derive_seed(
                    self.master_seed, "run", _fingerprint(fields_))
            config = RunConfig.from_dict(fields_)
            configs[config.content_hash()] = config
        return [configs[h] for h in sorted(configs)]

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "master_seed": self.master_seed,
            "mode": self.mode,
            "base": dict(self.base),
            "axes": dict(self.axes),
            "runs": list(self.runs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        known = {"name", "master_seed", "mode", "base", "axes", "runs"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown CampaignSpec fields: {unknown}")
        if "name" not in data:
            raise ValueError("campaign spec needs a name")
        return cls(**data)  # type: ignore[arg-type]

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("campaign spec must be a JSON object")
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | pathlib.Path) -> "CampaignSpec":
        return cls.from_json(pathlib.Path(path).read_text())

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path
