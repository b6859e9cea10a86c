"""Seeded protocol bugs for mutation-testing the checker and linter.

Each mutation re-introduces a *classic* coherence/synchronization bug --
the kind the paper's design rules exist to exclude.  Since the protocols
are transition tables, most bugs are seeded the way a real one would
arrive: by editing a table row (dropping a row, keeping a copy valid,
granting write privilege to shared data, forgetting a handoff action).
The two remaining mutations patch genuinely procedural machinery (the
bus response combine, the purge flush) that no table row expresses.

The harness then asserts that every seeded bug is caught: table-row
mutations must additionally be flagged by the static protocol linter
(``repro lint``), and *all* mutations must produce a model-checker
counterexample -- the evidence that the linter's rules and the checker's
invariants, oracle, and liveness watchdog actually have teeth.

Every mutation names the protocol and scenario it targets, so the
harness knows where the bug is observable (e.g. a dropped unlock
broadcast needs lock contention to matter).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, ContextManager

from repro.bus.signals import BusResponse
from repro.cache.state import CacheState
from repro.core.lock_protocol import BitarDespainProtocol
from repro.protocols.base import CoherenceProtocol
from repro.protocols.illinois import IllinoisProtocol
from repro.protocols.table import Event, TransitionTable


@contextmanager
def _patched(owner, attr: str, value):
    """Temporarily replace ``owner.attr``, restoring the exact original
    class dict entry afterwards (including *absence*, so patched base
    methods do not get frozen onto subclasses)."""
    had = attr in owner.__dict__
    original = owner.__dict__.get(attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        if had:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


@dataclass(frozen=True)
class Mutation:
    """One seeded bug: a name, where it bites, and how to apply it."""

    name: str
    description: str
    #: Protocol the bug is seeded into / observable on.
    protocol: str
    #: Scenario whose schedule space exposes it.
    scenario: str
    #: Which check is expected to catch it (documentation for reports).
    caught_by: str
    apply: Callable[[], ContextManager]
    #: For table-row mutations: build the mutated table, so the harness
    #: can run the static linter over it.  None for procedural bugs.
    table_builder: Callable[[], TransitionTable] | None = None
    #: Lint check expected to flag the mutated table (None: the bug is
    #: invisible to static lint and only dynamic checking can find it).
    lint_check: str | None = None


def _table_patch(cls, builder: Callable[[], TransitionTable]):
    return lambda: _patched(cls, "table", builder())


def _directory_table_patch(builder: Callable[[], TransitionTable]):
    """Patch the home-bank policy on the directory fabric class (every
    fabric instance looks rows up through ``self.table``, so the patch
    takes effect at once)."""
    def apply():
        from repro.directory_backend.system import DirectoryFabric

        return _patched(DirectoryFabric, "table", builder())
    return apply


# -- the bugs ---------------------------------------------------------------


def _drop_snoop_upgrade_row() -> TransitionTable:
    """The (READ, sn-upgrade) row is simply missing: a snooped upgrade
    reaches a reader and the protocol has no answer."""
    return IllinoisProtocol.table.without(CacheState.READ, Event.SN_UPGRADE)


def _skip_invalidate_on_upgrade() -> TransitionTable:
    """Snooped write-privilege upgrades no longer invalidate the local
    copy (Feature 4 broken): a stale readable copy survives next to a
    writer."""
    return IllinoisProtocol.table.rewrite(
        CacheState.READ, Event.SN_UPGRADE, next_state=CacheState.READ
    )


def _shared_fill_write_privilege() -> TransitionTable:
    """A read miss that hit in another cache still lands with write
    privilege (Feature 5's determination inverted): the writer never
    announces its writes to the other holders."""
    return IllinoisProtocol.table.rewrite(
        CacheState.INVALID, Event.FILL_READ, when="shared",
        next_state=CacheState.WRITE_CLEAN,
    )


def _drop_unlock_broadcast() -> TransitionTable:
    """The unlock 'forgets' to broadcast even when a waiter was recorded
    (Section E.4's handoff silently dropped): waiters sleep forever."""
    return BitarDespainProtocol.table.rewrite(
        CacheState.LOCK_WAITER, Event.PR_UNLOCK,
        drop_actions=["broadcast-unlock"],
    )


def _ignore_lock_refusal() -> TransitionTable:
    """A locked holder answers like a plain reader instead of refusing
    (Figure 7 dropped): memory services the second lock fetch and two
    caches both believe they hold the lock."""
    table = BitarDespainProtocol.table
    for event in (Event.SN_READ, Event.SN_EXCL, Event.SN_UPGRADE):
        for state in (CacheState.LOCK, CacheState.LOCK_WAITER):
            table = table.rewrite(state, event, actions=(),
                                  next_state=state)
    return table


def _stale_memory_supply() -> ContextManager:
    """The bus ignores cache suppliers and always services fetches from
    memory (Feature 7's dirty hand-off lost): under a no-flush protocol
    the fetcher reads stale data."""
    original = BusResponse.combine

    def broken_combine(replies, choose=None) -> BusResponse:
        response = original(replies, choose=choose)
        response.supplier = None
        response.supplier_dirty = False
        return response

    return _patched(BusResponse, "combine", staticmethod(broken_combine))


def _drop_directory_ack() -> ContextManager:
    """The directory loses an invalidation ack: after each transaction's
    membership refresh the home bank drops the highest-numbered sharer
    from the block's entry, so later transactions never probe that cache
    and its stale copy keeps answering local reads."""
    from repro.directory_backend.system import DirectoryFabric

    original = DirectoryFabric._refresh

    def broken_refresh(self, txn, probed):
        original(self, txn, probed)
        entry = self._entry_of(txn)
        if len(entry.sharers) > 1:
            entry.sharers.discard(max(entry.sharers))

    return _patched(DirectoryFabric, "_refresh", broken_refresh)


def _directory_lost_requester() -> TransitionTable:
    """A fetch at a shared entry neither enrolls the requester nor
    refreshes membership: the new copy is untracked, so a later upgrade
    never probes it and the stale copy keeps answering local reads."""
    from repro.directory_backend.table import (HOME_BANK_TABLE, DirEvent,
                                               HomeState)

    return HOME_BANK_TABLE.rewrite(
        HomeState.SHARED, DirEvent.REQ_FETCH,
        drop_actions=("enroll", "refresh"),
    )


def _directory_skip_probe() -> TransitionTable:
    """Upgrades at a shared entry skip the probe: the listed readers are
    never invalidated (membership itself stays correct -- the refresh
    only covers the requester), so their copies silently go stale."""
    from repro.directory_backend.table import (HOME_BANK_TABLE, DirEvent,
                                               HomeState)

    return HOME_BANK_TABLE.rewrite(
        HomeState.SHARED, DirEvent.REQ_UPGRADE,
        drop_actions=("probe-listed",),
    )


def _directory_narrow_probe() -> TransitionTable:
    """An overflowed entry is probed as if it were precise: upgrades
    only reach the sharers still listed, and the untracked copy the
    overflow lost keeps reading stale data."""
    from repro.directory_backend.table import (HOME_BANK_TABLE, DirEvent,
                                               HomeState)

    row = HOME_BANK_TABLE.rules_for(HomeState.OVERFLOW,
                                    DirEvent.REQ_UPGRADE)[0]
    narrowed = tuple("probe-listed" if action == "probe-all" else action
                     for action in row.actions)
    return HOME_BANK_TABLE.rewrite(HomeState.OVERFLOW,
                                   DirEvent.REQ_UPGRADE, actions=narrowed)


def _directory_drop_row() -> TransitionTable:
    """The (SHARED, req-upgrade) row is simply missing: an upgrade
    reaches a shared entry and the home bank has no answer."""
    from repro.directory_backend.table import (HOME_BANK_TABLE, DirEvent,
                                               HomeState)

    return HOME_BANK_TABLE.without(HomeState.SHARED, DirEvent.REQ_UPGRADE)


def _lost_dirty_purge() -> ContextManager:
    """Dirty victims are purged without the write-back flush: the only
    up-to-date copy of the block is silently dropped."""

    def broken_purge_needs_flush(self, line) -> bool:
        return False

    return _patched(CoherenceProtocol, "purge_needs_flush",
                    broken_purge_needs_flush)


#: Registry of every seeded bug, by name.
MUTATIONS: dict[str, Mutation] = {
    mutation.name: mutation
    for mutation in [
        Mutation(
            name="drop-snoop-upgrade-row",
            description="The reader's snoop-upgrade row is missing; the "
                        "interpreter has no transition for a snooped "
                        "upgrade at READ.",
            protocol="illinois",
            scenario="shared-upgrade",
            caught_by="lint completeness / interpreter lookup error",
            apply=_table_patch(IllinoisProtocol, _drop_snoop_upgrade_row),
            table_builder=_drop_snoop_upgrade_row,
            lint_check="completeness",
        ),
        Mutation(
            name="skip-invalidate-on-upgrade",
            description="Snooped upgrades keep the local copy valid, "
                        "leaving a stale reader beside a writer.",
            protocol="illinois",
            scenario="shared-upgrade",
            caught_by="lint write-serialization / write oracle",
            apply=_table_patch(IllinoisProtocol, _skip_invalidate_on_upgrade),
            table_builder=_skip_invalidate_on_upgrade,
            lint_check="write-serialization",
        ),
        Mutation(
            name="shared-fill-write-privilege",
            description="A shared read miss still fills with write "
                        "privilege; the writer then writes locally "
                        "without telling the other holders.",
            protocol="illinois",
            scenario="shared-upgrade",
            caught_by="lint write-serialization / write oracle",
            apply=_table_patch(IllinoisProtocol, _shared_fill_write_privilege),
            table_builder=_shared_fill_write_privilege,
            lint_check="write-serialization",
        ),
        Mutation(
            name="drop-unlock-broadcast",
            description="Unlock never broadcasts; recorded waiters are "
                        "stranded on their busy-wait registers.",
            protocol="bitar-despain",
            scenario="lock-handoff",
            caught_by="lint lock-state / deadlock watchdog",
            apply=_table_patch(BitarDespainProtocol, _drop_unlock_broadcast),
            table_builder=_drop_unlock_broadcast,
            lint_check="lock-state",
        ),
        Mutation(
            name="ignore-lock-refusal",
            description="A locked holder answers like a plain reader "
                        "instead of refusing, letting a second cache "
                        "take the lock.",
            protocol="bitar-despain",
            scenario="lock-handoff",
            caught_by="lint write-serialization / write oracle",
            apply=_table_patch(BitarDespainProtocol, _ignore_lock_refusal),
            table_builder=_ignore_lock_refusal,
            lint_check="write-serialization",
        ),
        Mutation(
            name="stale-memory-supply",
            description="Fetches are always serviced by memory even when "
                        "a cache holds the block dirty (no-flush "
                        "hand-off lost).",
            protocol="bitar-despain",
            scenario="racing-writes",
            caught_by="write oracle (stale read)",
            apply=_stale_memory_supply,
        ),
        Mutation(
            name="drop-directory-ack",
            description="The home bank drops a live sharer from the "
                        "block's directory entry (a lost invalidation "
                        "ack); later upgrades never probe that cache and "
                        "its stale copy survives.",
            protocol="bitar-despain",
            scenario="directory-upgrade",
            caught_by="write oracle (stale read)",
            apply=_drop_directory_ack,
        ),
        Mutation(
            name="directory-lost-requester",
            description="A fetch at a shared entry neither enrolls the "
                        "requester nor refreshes membership; the new "
                        "copy is untracked and later upgrades miss it.",
            protocol="bitar-despain",
            scenario="directory-upgrade",
            caught_by="lint directory-sharer-drop / write oracle",
            apply=_directory_table_patch(_directory_lost_requester),
            table_builder=_directory_lost_requester,
            lint_check="directory-sharer-drop",
        ),
        Mutation(
            name="directory-skip-probe",
            description="Upgrades at a shared entry never probe the "
                        "listed readers; their copies silently go "
                        "stale.",
            protocol="bitar-despain",
            scenario="directory-upgrade",
            caught_by="lint directory-sharer-drop / write oracle",
            apply=_directory_table_patch(_directory_skip_probe),
            table_builder=_directory_skip_probe,
            lint_check="directory-sharer-drop",
        ),
        Mutation(
            name="directory-narrow-probe",
            description="An overflowed (imprecise) entry is probed as "
                        "if it were precise; the copy the overflow lost "
                        "keeps reading stale data.",
            protocol="bitar-despain",
            scenario="directory-overflow",
            caught_by="lint directory-overflow-policy / write oracle",
            apply=_directory_table_patch(_directory_narrow_probe),
            table_builder=_directory_narrow_probe,
            lint_check="directory-overflow-policy",
        ),
        Mutation(
            name="directory-drop-row",
            description="The home bank's (SHARED, req-upgrade) row is "
                        "missing; dispatch has no transition for an "
                        "upgrade at a shared entry.",
            protocol="bitar-despain",
            scenario="directory-upgrade",
            caught_by="lint directory-completeness / dispatch lookup error",
            apply=_directory_table_patch(_directory_drop_row),
            table_builder=_directory_drop_row,
            lint_check="directory-completeness",
        ),
        Mutation(
            name="lost-dirty-purge",
            description="Evicting a dirty block skips the write-back "
                        "flush, dropping the latest version.",
            protocol="bitar-despain",
            scenario="evict-writeback",
            caught_by="latest-version-reachable invariant",
            apply=_lost_dirty_purge,
        ),
    ]
}


def get_mutation(name: str) -> Mutation:
    try:
        return MUTATIONS[name]
    except KeyError:
        known = ", ".join(sorted(MUTATIONS))
        raise KeyError(f"unknown mutation {name!r} (known: {known})") from None
