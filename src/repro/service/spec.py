"""Run specifications and content-addressed cache keys.

A :class:`RunSpec` is the *name* of a simulation: workload (by registry
name) plus every knob that influences its output — construction kwargs,
the machine/PMU/profiler configs and both determinism seeds. Because
runs are deterministic and byte-identical given these inputs (the PR-1/3
invariants, re-checked by ``tests/test_determinism.py``), a spec fully
identifies its :class:`~repro.run.RunOutcome`, which is what makes
results content-addressable: the cache key is a stable SHA-256 over the
canonical JSON form of the spec, folded with the outcome schema version.

Hashing rules (see ``docs/service.md``):

- configs enter the key through the PR-4 ``ConfigBase.to_dict``
  convention, so equal configs hash equally regardless of how they were
  constructed (default vs. explicit, ``replace()`` vs. ``__init__``);
- ``None`` configs are normalized to their defaults when they are
  semantically active (machine always; PMU/Cheetah only for profiled
  runs), so ``machine=None`` and ``machine=MachineConfig()`` share one
  entry;
- the canonical JSON uses sorted keys and no whitespace, so the digest
  is independent of dict insertion order and Python version;
- :data:`repro.run.SCHEMA_VERSION` is part of the key, so a schema bump
  silently invalidates stale entries instead of mis-decoding them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.core.profiler import CheetahConfig
from repro.errors import ServiceError
from repro.pmu.sampler import PMUConfig
from repro.run import SCHEMA_VERSION, RunOutcome, run_workload
from repro.sim.params import MachineConfig
from repro.workloads import get_workload


def canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def content_key(data: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``data``."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one simulation's output.

    ``workload`` is a registry name (see ``repro list``); the service
    always builds a *fresh* instance per execution, so the workload's
    rng stream starts from ``workload_seed`` every time — the property
    the cache key depends on.
    """

    workload: str
    threads: Optional[int] = None
    scale: float = 1.0
    fixed: bool = False
    workload_seed: int = 0
    jitter_seed: int = 0xC0FFEE
    with_cheetah: bool = False
    machine: Optional[MachineConfig] = None
    pmu: Optional[PMUConfig] = None
    cheetah: Optional[CheetahConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str) or not self.workload:
            raise ServiceError(
                "RunSpec.workload must be a registry name (a non-empty "
                f"string), got {self.workload!r}")
        if isinstance(self.jitter_seed, bool) or \
                not isinstance(self.jitter_seed, int):
            raise ServiceError(
                f"RunSpec.jitter_seed must be an int, got "
                f"{self.jitter_seed!r}")

    # -- hashing -------------------------------------------------------------

    def canonical_dict(self) -> Dict[str, Any]:
        """The dict the cache key is computed over.

        Inactive configs collapse to ``None`` and active ``None`` configs
        expand to their defaults, mirroring exactly what
        :func:`repro.run.run_workload` would instantiate.
        """
        machine = (self.machine or MachineConfig()).to_dict()
        pmu = cheetah = None
        if self.with_cheetah:
            pmu = (self.pmu or PMUConfig()).to_dict()
            cheetah = (self.cheetah or CheetahConfig()).to_dict()
        return {
            "schema_version": SCHEMA_VERSION,
            "workload": self.workload,
            "threads": self.threads,
            "scale": self.scale,
            "fixed": self.fixed,
            "workload_seed": self.workload_seed,
            "jitter_seed": self.jitter_seed,
            "with_cheetah": self.with_cheetah,
            "machine": machine,
            "pmu": pmu,
            "cheetah": cheetah,
        }

    def key(self) -> str:
        """Stable content hash identifying this spec's result."""
        return content_key(self.canonical_dict())

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (configs as nested dicts, ``None`` preserved)."""
        return {
            "workload": self.workload,
            "threads": self.threads,
            "scale": self.scale,
            "fixed": self.fixed,
            "workload_seed": self.workload_seed,
            "jitter_seed": self.jitter_seed,
            "with_cheetah": self.with_cheetah,
            "machine": self.machine.to_dict() if self.machine else None,
            "pmu": self.pmu.to_dict() if self.pmu else None,
            "cheetah": self.cheetah.to_dict() if self.cheetah else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        kwargs = dict(data)
        for name, config_cls in (("machine", MachineConfig),
                                 ("pmu", PMUConfig),
                                 ("cheetah", CheetahConfig)):
            value = kwargs.get(name)
            if isinstance(value, Mapping):
                kwargs[name] = config_cls.from_dict(value)
        return cls(**kwargs)

    # -- execution -----------------------------------------------------------

    def build_workload(self):
        """A fresh workload instance (rng at ``workload_seed``)."""
        return get_workload(self.workload)(
            num_threads=self.threads, scale=self.scale, fixed=self.fixed,
            seed=self.workload_seed)

    def execute(self) -> RunOutcome:
        """Run the simulation this spec names (no cache involved)."""
        return run_workload(
            self.build_workload(),
            machine_config=self.machine,
            jitter_seed=self.jitter_seed,
            pmu_config=self.pmu,
            with_cheetah=self.with_cheetah,
            cheetah_config=self.cheetah,
        )


def spec_for_workload_cls(workload_cls, *, num_threads: Optional[int] = None,
                          scale: float = 1.0, fixed: bool = False,
                          seed: int = 0, jitter_seed: int = 0xC0FFEE,
                          with_cheetah: bool = False,
                          machine_config: Optional[MachineConfig] = None,
                          pmu_config: Optional[PMUConfig] = None,
                          cheetah_config: Optional[CheetahConfig] = None,
                          ) -> Optional[RunSpec]:
    """A :class:`RunSpec` for a workload class, or None if not canonical.

    Only registry workloads whose registered class *is* ``workload_cls``
    are cacheable — a subclass or an unregistered class may compute
    anything, so it must not alias a registry entry's cache slot.
    """
    name = getattr(workload_cls, "name", None)
    if not name:
        return None
    try:
        registered = get_workload(name)
    except Exception:
        return None
    if registered is not workload_cls:
        return None
    return RunSpec(workload=name, threads=num_threads, scale=scale,
                   fixed=fixed, workload_seed=seed, jitter_seed=jitter_seed,
                   with_cheetah=with_cheetah, machine=machine_config,
                   pmu=pmu_config, cheetah=cheetah_config)
