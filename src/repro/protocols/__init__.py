"""Coherence-protocol registry.

All ten reproduced protocols, keyed by their registry name.  Table 1's six
write-in columns are ``TABLE1_PROTOCOLS``, in the paper's column order.
"""

from __future__ import annotations

from typing import Type

from repro.common.errors import UnknownProtocolError
from repro.core.lock_protocol import BitarDespainProtocol
from repro.protocols.base import CoherenceProtocol
from repro.protocols.berkeley import BerkeleyProtocol
from repro.protocols.dragon import DragonProtocol
from repro.protocols.firefly import FireflyProtocol
from repro.protocols.goodman import GoodmanProtocol
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.rudolph_segall import RudolphSegallProtocol
from repro.protocols.synapse import SynapseProtocol
from repro.protocols.write_through import ClassicWriteThroughProtocol
from repro.protocols.yen import YenProtocol

PROTOCOLS: dict[str, Type[CoherenceProtocol]] = {
    cls.name: cls
    for cls in (
        ClassicWriteThroughProtocol,
        GoodmanProtocol,
        SynapseProtocol,
        IllinoisProtocol,
        YenProtocol,
        BerkeleyProtocol,
        BitarDespainProtocol,
        DragonProtocol,
        FireflyProtocol,
        RudolphSegallProtocol,
    )
}

#: The six columns of Table 1, in order.
TABLE1_PROTOCOLS: tuple[str, ...] = (
    "goodman",
    "synapse",
    "illinois",
    "yen",
    "berkeley",
    "bitar-despain",
)

#: The write-update family of Section D.1.
WRITE_UPDATE_PROTOCOLS: tuple[str, ...] = ("dragon", "firefly", "rudolph-segall")


def get_protocol(name: str) -> Type[CoherenceProtocol]:
    """Look up a protocol class by registry name."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        known = ", ".join(sorted(PROTOCOLS))
        raise UnknownProtocolError(
            f"unknown protocol {name!r}; known protocols: {known}"
        ) from None


__all__ = [
    "PROTOCOLS",
    "TABLE1_PROTOCOLS",
    "WRITE_UPDATE_PROTOCOLS",
    "CoherenceProtocol",
    "get_protocol",
]
