"""Directory-based coherence backend (the ``directory`` topology kind).

Replaces broadcast snooping with per-block directory state held at home
banks: every transaction serializes at its block's home bank, which
forwards it point-to-point only to the caches the directory lists as
holding (or waiting on) the block, instead of broadcasting to all N.
The protocols themselves -- their transition tables, the linter, and
the model checker -- apply unchanged: the directory is purely a delivery
fabric that prunes snoops the filtered caches would have answered with a
miss anyway.  The home-bank policy itself is TransitionTable IR
(:mod:`repro.directory_backend.table`), and the per-block sharer
tracking is one of three pluggable representations
(:mod:`repro.directory_backend.representations`).
"""

from repro.directory_backend.representations import (
    DIRECTORY_ENTRY_KINDS,
    CoarseVector,
    FullBitVector,
    LimitedPointerSet,
    SharerSet,
    bits_per_block,
)
from repro.directory_backend.state import DirectoryEntry, DirectoryState
from repro.directory_backend.system import DirectoryFabric, DirectorySystem
from repro.directory_backend.table import (
    HOME_BANK_TABLE,
    DirectoryTable,
    DirEvent,
    HomeState,
    build_home_bank_table,
)

__all__ = [
    "DIRECTORY_ENTRY_KINDS",
    "CoarseVector",
    "DirEvent",
    "DirectoryEntry",
    "DirectoryFabric",
    "DirectoryState",
    "DirectorySystem",
    "DirectoryTable",
    "FullBitVector",
    "HOME_BANK_TABLE",
    "HomeState",
    "LimitedPointerSet",
    "SharerSet",
    "bits_per_block",
    "build_home_bank_table",
]
