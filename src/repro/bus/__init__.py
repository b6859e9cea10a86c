"""Broadcast fabrics: transactions, snoop signalling, arbitration."""

from repro.bus.arbiter import Arbiter, ArbitrationRequest
from repro.bus.bus import Bus, BusPort
from repro.bus.multibus import Fabric
from repro.bus.signals import BusResponse, SnoopReply
from repro.bus.transaction import BusOp, BusTransaction

__all__ = [
    "Arbiter",
    "ArbitrationRequest",
    "Bus",
    "BusOp",
    "BusPort",
    "BusResponse",
    "BusTransaction",
    "Fabric",
    "SnoopReply",
]
