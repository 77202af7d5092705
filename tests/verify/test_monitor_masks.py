"""Differential test of the invariant monitor's tag/directory check.

The monitor gathers each block's holders as node bitmasks and checks every
invariant with integer operations.  ``reference_check`` below is the same
rule set written over plain Python sets (blocks walked in ascending order);
on random tag tables and directory entries both must raise the same
violation, down to the detail line, or both must pass.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import make_machine
from repro.protocols.directory import DirState, NodeSet
from repro.protocols.writeupdate import UPDATE_SHARED
from repro.tempest.tags import AccessTag
from repro.util import MachineConfig
from repro.verify import CoherenceViolation, InvariantMonitor, profile_for
from repro.verify.workload import ALL_PROTOCOLS

BLOCK = 32
STATES = (None, DirState.IDLE, DirState.SHARED, UPDATE_SHARED,
          DirState.EXCLUSIVE, DirState.BUSY_INV)
#: a stray READ_WRITE trips single-writer before anything else, so tag
#: overwrites favour READ_ONLY and INVALID to reach the directory checks
OVERWRITE_TAGS = (AccessTag.INVALID, AccessTag.READ_ONLY, AccessTag.READ_ONLY,
                  AccessTag.READ_WRITE)


def reference_check(machine, prof) -> None:
    """The tag/directory invariants over sets, blocks in ascending order."""

    def fail(invariant, detail):
        raise CoherenceViolation(invariant, detail)

    readers: dict[int, set[int]] = {}
    writers: dict[int, set[int]] = {}
    for node in machine.nodes:
        for block, tag in node.tags.items():
            into = readers if tag is AccessTag.READ_ONLY else writers
            into.setdefault(block, set()).add(node.id)
    held = sorted(set(readers) | set(writers))

    for block in held:
        ws = writers.get(block, set())
        rs = readers.get(block, set())
        if len(ws) > 1:
            fail("single-writer",
                 f"block {block}: multiple writable copies at nodes {sorted(ws)}")
        if ws and rs and not (prof.home_writer_may_coexist
                              and ws == {machine.home(block)}):
            fail("single-writer",
                 f"block {block}: writable copy at {sorted(ws)} coexists "
                 f"with readable copies at {sorted(rs)}")

    tracked: set[int] = set()
    for entry in machine.protocol.directory.known():
        block, home = entry.block, entry.home
        tracked.add(block)
        rs = readers.get(block, set())
        ws = writers.get(block, set())
        sharers = set(entry.sharers)
        if entry.state == DirState.IDLE:
            if (rs | ws) - {home}:
                fail("directory-agreement",
                     f"{entry!r} is IDLE but remote copies exist: "
                     f"readers={sorted(rs)} writers={sorted(ws)}")
            if home not in ws:
                fail("directory-agreement",
                     f"{entry!r} is IDLE but home holds no writable copy")
        elif entry.state in prof.shared_states:
            stale = rs - sharers - {home}
            if stale:
                fail("lost-invalidation",
                     f"{entry!r}: nodes {sorted(stale)} hold readable "
                     f"copies the directory does not list")
            missing = sharers - rs - ws
            if missing:
                fail("directory-agreement",
                     f"{entry!r}: recorded sharers {sorted(missing)} "
                     f"hold no readable copy")
            if ws and not (prof.home_writer_may_coexist and ws == {home}):
                fail("directory-agreement",
                     f"{entry!r} is shared but nodes {sorted(ws)} hold "
                     f"writable copies")
        elif entry.state == DirState.EXCLUSIVE:
            if ws != {entry.owner}:
                fail("directory-agreement",
                     f"{entry!r}: owner should be the only writer, "
                     f"but writers={sorted(ws)}")
            if rs:
                fail("lost-invalidation",
                     f"{entry!r} is EXCLUSIVE but nodes {sorted(rs)} "
                     f"still hold readable copies")

    for block in held:
        if block in tracked:
            continue
        home = machine.home(block)
        holders = (readers.get(block, set()) | writers.get(block, set())) - {home}
        if holders:
            fail("lost-invalidation",
                 f"block {block}: nodes {sorted(holders)} hold copies "
                 f"but the home directory has no entry")


@st.composite
def machine_states(draw):
    """A machine whose tags and directory follow drawn entries, then a few
    arbitrary tag overwrites (most draws violate something; some pass)."""
    n = draw(st.integers(2, 5))
    protocol = draw(st.sampled_from(ALL_PROTOCOLS))
    homes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    m = make_machine(MachineConfig(n_nodes=n, block_size=BLOCK,
                                   page_size=BLOCK), protocol)
    first = m.addr_space.block_of(m.allocate(
        "data", len(homes) * BLOCK, home_policy=lambda p: homes[p]).base)
    nodes = st.integers(0, n - 1)
    for off, home in enumerate(homes):
        block = first + off
        state = draw(st.sampled_from(STATES))
        if state is None:
            # untracked: the initial copy stays at home or moved unrecorded
            holder = draw(nodes)
            if holder != home:
                m.nodes[home].tags.invalidate(block)
                m.nodes[holder].tags.set(block, AccessTag.READ_WRITE)
            continue
        entry = m.protocol.directory.entry(block)
        entry.state = state
        if state in (DirState.SHARED, UPDATE_SHARED):
            entry.sharers = NodeSet(draw(st.sets(nodes, max_size=n)))
            home_tag = (AccessTag.READ_WRITE if state == UPDATE_SHARED
                        else AccessTag.READ_ONLY)
            m.nodes[home].tags.set(block, home_tag)
            for s in entry.sharers:
                if s != home:
                    m.nodes[s].tags.set(block, AccessTag.READ_ONLY)
        elif state == DirState.EXCLUSIVE:
            entry.owner = draw(st.none() | nodes)
            m.nodes[home].tags.invalidate(block)
            if entry.owner is not None:
                m.nodes[entry.owner].tags.set(block, AccessTag.READ_WRITE)
        elif state == DirState.BUSY_INV:
            entry.in_service = draw(nodes)
    overwrites = st.tuples(nodes, st.integers(0, len(homes) - 1),
                           st.sampled_from(OVERWRITE_TAGS))
    for node, off, tag in draw(st.lists(overwrites, max_size=3)):
        m.nodes[node].tags.set(first + off, tag)
    return m, protocol


def outcome(check) -> tuple[str, str] | None:
    try:
        check()
    except CoherenceViolation as violation:
        return violation.invariant, violation.detail
    return None


@given(machine_states())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mask_monitor_matches_set_reference(state):
    m, protocol = state
    prof = profile_for(protocol)
    got = outcome(lambda: InvariantMonitor()._check_tags_vs_directory(
        m, "?", prof))
    assert got == outcome(lambda: reference_check(m, prof))


def _two_block_machine():
    m = make_machine(MachineConfig(n_nodes=3, block_size=BLOCK,
                                   page_size=BLOCK), "stache")
    first = m.addr_space.block_of(
        m.allocate("data", 2 * BLOCK, home_policy=lambda p: 0).base)
    return m, first


def test_exclusive_entry_without_owner_is_caught():
    m, b = _two_block_machine()
    entry = m.protocol.directory.entry(b)
    entry.state = DirState.EXCLUSIVE
    m.nodes[0].tags.invalidate(b)
    with pytest.raises(CoherenceViolation) as ei:
        InvariantMonitor().check(m)
    assert ei.value.invariant == "directory-agreement"
    assert "writers=[]" in ei.value.detail


def test_multi_block_violation_reports_the_lowest_block():
    m, b = _two_block_machine()
    for block in (b + 1, b):  # two untracked blocks with remote readers
        m.nodes[0].tags.invalidate(block)
        m.nodes[2].tags.set(block, AccessTag.READ_ONLY)
    with pytest.raises(CoherenceViolation) as ei:
        InvariantMonitor().check(m)
    assert ei.value.invariant == "lost-invalidation"
    assert ei.value.detail.startswith(f"block {b}:")
