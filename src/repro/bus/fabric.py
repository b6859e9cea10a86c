"""Interconnect-fabric registry (the topology analogue of the protocol
registry).

Each :data:`~repro.common.config.TOPOLOGY_KINDS` entry maps to a builder
that assembles the corresponding fabric from a
:class:`~repro.common.config.TopologyConfig`:

* ``snoop`` -- the plain single :class:`~repro.bus.bus.Bus` (the paper's
  broadcast bus; also what the engine's fast-forward path is calibrated
  against, so the default stays bit-identical).
* ``multibus`` -- :class:`~repro.bus.multibus.MultiBusSystem` with
  ``topology.buses`` block-interleaved buses (built even for one bus, so
  the port-view wrapper itself is exercised by the conformance matrix).
* ``clustered`` -- :class:`~repro.bus.hierarchy.ClusteredBusSystem`.
* ``directory`` -- :class:`~repro.directory_backend.DirectorySystem`.

``REPRO_TOPOLOGY`` overrides the session default; an unknown kind there
is a :class:`~repro.common.errors.ConfigError`, not a silent fallback.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable

from repro.common.config import TOPOLOGY_KINDS, TimingConfig, TopologyConfig
from repro.common.errors import ConfigError

if TYPE_CHECKING:
    from repro.memory.main_memory import MainMemory
    from repro.obs.core import Observability
    from repro.sim.clock import Clock
    from repro.sim.events import TraceLog
    from repro.sim.stats import SimStats

#: Fabric kinds the registry can build (same namespace as
#: ``TopologyConfig.kind``).
FABRIC_KINDS: tuple[str, ...] = TOPOLOGY_KINDS

#: Environment override for the default topology kind.
TOPOLOGY_ENV = "REPRO_TOPOLOGY"


def default_topology() -> str:
    """The session-default fabric kind (``REPRO_TOPOLOGY`` or
    ``snoop``); raises :class:`ConfigError` on an unknown kind."""
    kind = os.environ.get(TOPOLOGY_ENV, "").strip().lower()
    if not kind:
        return "snoop"
    if kind not in FABRIC_KINDS:
        raise ConfigError(
            f"{TOPOLOGY_ENV}={kind!r} is not a fabric kind; valid kinds: "
            f"{', '.join(FABRIC_KINDS)}")
    return kind


def _build_snoop(topology: TopologyConfig, memory, timing, clock, stats,
                 trace, obs):
    from repro.bus.bus import Bus

    return Bus(memory, timing, clock, stats, trace, obs=obs)


def _build_multibus(topology: TopologyConfig, memory, timing, clock, stats,
                    trace, obs):
    from repro.bus.multibus import MultiBusSystem

    return MultiBusSystem(topology.buses, memory, timing, clock, stats,
                          trace, obs)


def _build_clustered(topology: TopologyConfig, memory, timing, clock, stats,
                     trace, obs):
    from repro.bus.hierarchy import ClusteredBusSystem

    return ClusteredBusSystem(topology, memory, timing, clock, stats,
                              trace, obs)


def _build_directory(topology: TopologyConfig, memory, timing, clock, stats,
                     trace, obs):
    from repro.directory_backend import DirectorySystem

    return DirectorySystem(topology, memory, timing, clock, stats, trace,
                           obs)


_FABRICS: dict[str, Callable] = {
    "snoop": _build_snoop,
    "multibus": _build_multibus,
    "clustered": _build_clustered,
    "directory": _build_directory,
}


def get_fabric(kind: str) -> Callable:
    """Look up a fabric builder by topology kind."""
    try:
        return _FABRICS[kind]
    except KeyError:
        known = ", ".join(FABRIC_KINDS)
        raise ConfigError(
            f"unknown fabric kind {kind!r}; known fabrics: {known}"
        ) from None


def build_fabric(
    topology: TopologyConfig,
    memory: "MainMemory",
    timing: TimingConfig,
    clock: "Clock",
    stats: "SimStats",
    trace: "TraceLog",
    obs: "Observability",
):
    """Assemble the fabric a :class:`TopologyConfig` describes."""
    return get_fabric(topology.kind)(topology, memory, timing, clock,
                                     stats, trace, obs)


__all__ = [
    "FABRIC_KINDS",
    "TOPOLOGY_ENV",
    "default_topology",
    "get_fabric",
    "build_fabric",
]
