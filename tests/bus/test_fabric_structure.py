"""One fabric: every topology kind is a :class:`Fabric` of plain
:class:`Bus` lanes over one port table.

The kinds differ only in their delivery rule.  These checks keep a
second stack from growing back: no lane subclass, no per-lane wrapper
around the ports, and ``snoop`` and ``multibus`` built as one class.
"""

import pytest

from repro import Program, Simulator, SystemConfig
from repro.bus.bus import Bus
from repro.bus.multibus import Fabric
from repro.common.config import TopologyConfig

TOPOLOGIES = {
    "snoop": TopologyConfig(),
    "multibus-2": TopologyConfig(kind="multibus", buses=2),
    "clustered-2x2": TopologyConfig(kind="clustered", clusters=2,
                                    buses_per_cluster=2),
    "directory-3": TopologyConfig(kind="directory", directory_banks=3),
}


def _simulator(topology: TopologyConfig) -> Simulator:
    config = SystemConfig(num_processors=3, topology=topology, with_io=True)
    return Simulator(config, [Program([]) for _ in range(3)])


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_lanes_are_plain_buses_over_the_ports_themselves(name):
    topology = TOPOLOGIES[name]
    sim = _simulator(topology)
    fabric = sim.bus
    assert isinstance(fabric, Fabric)
    assert len(fabric.buses) == topology.num_buses
    for index, lane in enumerate(fabric.buses):
        assert type(lane) is Bus
        assert lane.fabric is fabric and lane.index == index
    attached = [*sim.caches, sim.io]
    assert list(fabric._port_list) == attached
    for port in attached:
        assert fabric._ports[port.id] is port


def test_snoop_and_multibus_build_one_class():
    assert type(_simulator(TOPOLOGIES["snoop"]).bus) is Fabric
    assert type(_simulator(TOPOLOGIES["multibus-2"]).bus) is Fabric


def test_bus_has_no_subclasses():
    assert Bus.__subclasses__() == []
