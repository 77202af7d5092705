"""Infrastructure shared by all coherence protocols.

:class:`BaseProtocol` implements the Tempest-side mechanics every protocol
needs — fault vectoring, message delivery with handler occupancy, the
cache-side handlers (invalidate / recall / data-install), and processor
resumption — leaving subclasses to declare home-side directory transitions
in teapot style.

Timing discipline: a message delivered at time *t* first occupies the
destination's handler resource (FIFO), and all of its *effects* (tag changes,
directory updates, outgoing messages) take place at the handler-completion
time, scheduled through the event engine so effects interleave correctly
with other nodes' activity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import EventKind
from repro.protocols.directory import (
    DISCARDED,
    Directory,
    DirEntry,
    DirState,
    NodeSet,
    PendingRequest,
)
from repro.protocols.messages import MessageKind as MK
from repro.protocols.teapot import ProtocolStateMachine
from repro.tempest.network import Message
from repro.tempest.tags import AccessTag
from repro.util.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.tempest.machine import Machine, ReplayProcessor


class BaseProtocol(ProtocolStateMachine):
    """Common protocol plumbing over a :class:`~repro.tempest.machine.Machine`."""

    name = "base"

    # crash-recovery shape of this protocol's directory states: which states
    # mean "remote read-only copies exist", and what state/home-tag pair a
    # restarted home rebuilds when survivors hold such copies.  The
    # write-update protocol overrides all three (its shared state keeps the
    # home writable).
    crash_shared_states: tuple = (DirState.SHARED,)
    crash_rebuild_shared_state: str = DirState.SHARED
    crash_rebuild_home_tag = AccessTag.READ_ONLY

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.config = machine.config
        self.directory = Directory(machine.home)
        #: node -> (processor, block, access kind) for the one outstanding fault
        self.outstanding: dict[int, tuple["ReplayProcessor", int, str]] = {}
        #: invalidations/recalls that overtook the data message they chase;
        #: serviced right after the data installs (see cache_install)
        self._deferred: dict[tuple[int, int], list[Message]] = {}

    # -- fault vectoring ---------------------------------------------------------

    def fault(self, proc: "ReplayProcessor", block: int, kind: str, t: float) -> None:
        """An access the local tag does not permit, vectored to the protocol."""
        node = proc.node.id
        if node in self.outstanding:
            raise ProtocolError(
                f"node {node} faulted with a fault outstanding",
                node=node, block=block, time=t,
            )
        self.outstanding[node] = (proc, block, kind)
        self.machine.stats.total_remote_requests += 1
        req = MK.GET_RO if kind == "r" else MK.GET_RW
        t_req = t + self.config.fault_cost
        home = self.machine.home(block)
        if home == node:
            # Local fault at the home node: no network, but the request still
            # runs through the home's protocol handler.
            self._deliver_local(node, block, req, t_req)
        else:
            self.send(Message(req, src=node, dst=home, block=block), t_req)

    def _deliver_local(self, node: int, block: int, kind: str, t: float) -> None:
        cost = self.config.handler_cost + self.config.directory_lookup_cost
        done = self.machine.node(node).service_handler(t, cost)
        msg = Message(kind, src=node, dst=node, block=block)
        self.machine.schedule_node_event(node, done, lambda: self._handle(msg, done))

    # -- message plumbing -----------------------------------------------------------

    def send(self, msg: Message, at: float) -> float:
        return self.machine.send(msg, at)

    def handler_cost_for(self, msg: Message) -> float:
        cost = self.config.handler_cost
        if msg.kind in MK.REQUESTS or msg.kind in MK.HOLDER_TO_HOME:
            cost += self.config.directory_lookup_cost
        if msg.bulk:
            # per-block install cost for coalesced transfers
            cost += self.config.presend_entry_cost * len(msg.info.get("blocks", ()))
        return cost

    def on_message(self, msg: Message, t: float) -> None:
        done = self.machine.node(msg.dst).service_handler(t, self.handler_cost_for(msg))
        # Handler effects are node-local state changes: under a crash plan
        # they must not fire if the node dies before the completion time.
        self.machine.schedule_node_event(msg.dst, done, lambda: self._handle(msg, done))

    def _handle(self, msg: Message, t: float) -> None:
        """Route a serviced message; ``t`` is the effect time."""
        kind = msg.kind
        if kind in MK.REQUESTS or kind in MK.HOLDER_TO_HOME:
            entry = self.directory.entry(msg.block)
            if entry.home != msg.dst:
                raise ProtocolError(
                    f"{msg} arrived at non-home node {msg.dst}",
                    node=msg.dst, block=msg.block, time=t,
                    message_repr=repr(msg),
                )
            self.dispatch(entry, kind, msg, t)
            self._drain_pending(entry, t)
        elif kind == MK.INV:
            self.cache_invalidate(msg, t)
        elif kind in (MK.RECALL_RO, MK.RECALL_INV):
            self.cache_recall(msg, t)
        elif kind in (MK.DATA_RO, MK.DATA_RW):
            self.cache_install(msg, t)
        else:
            self.handle_extra(msg, t)

    def handle_extra(self, msg: Message, t: float) -> None:
        """Hook for protocol-specific message kinds."""
        raise ProtocolError(
            f"{type(self).__name__} cannot handle {msg}",
            node=msg.dst, block=msg.block, time=t, message_repr=repr(msg),
        )

    # -- cache-side handlers -----------------------------------------------------------

    def _defer(self, msg: Message) -> None:
        self._deferred.setdefault((msg.dst, msg.block), []).append(msg)

    def _chasing_data(self, msg: Message) -> bool:
        out = self.outstanding.get(msg.dst)
        return out is not None and out[1] == msg.block

    def cache_invalidate(self, msg: Message, t: float) -> None:
        tags = self.machine.node(msg.dst).tags
        if tags.get(msg.block) is AccessTag.INVALID and self._chasing_data(msg):
            # The INV overtook the DATA message that makes this node a
            # sharer (control messages are lighter than payload messages).
            # Defer until the data installs.  NOTE the tag check: a node
            # that still holds a readable copy but has an outstanding
            # *upgrade* fault queued at the busy home must ACK immediately,
            # or home-waits-for-ACK / ACK-waits-for-grant deadlocks.
            self._defer(msg)
            return
        tags.invalidate(msg.block)
        obs = self.machine.obs
        if obs.enabled:
            obs.emit(EventKind.INVALIDATE, t, node=msg.dst, block=msg.block)
        self.send(Message(MK.ACK, src=msg.dst, dst=msg.src, block=msg.block), t)

    def cache_recall(self, msg: Message, t: float) -> None:
        tags = self.machine.node(msg.dst).tags
        if tags.get(msg.block) is not AccessTag.READ_WRITE:
            if self._chasing_data(msg):
                self._defer(msg)  # recall overtook the DATA_RW grant
                return
            raise ProtocolError(
                f"recall {msg} at non-owner {msg.dst}",
                node=msg.dst, block=msg.block, time=t, message_repr=repr(msg),
            )
        tags.invalidate(msg.block)
        obs = self.machine.obs
        if obs.enabled:
            obs.emit(EventKind.RECALL, t, node=msg.dst, block=msg.block)
        self.send(
            Message(
                MK.WB_DATA,
                src=msg.dst,
                dst=msg.src,
                block=msg.block,
                payload_bytes=self.config.block_size,
            ),
            t,
        )

    def cache_install(self, msg: Message, t: float) -> None:
        tags = self.machine.node(msg.dst).tags
        tag = AccessTag.READ_ONLY if msg.kind == MK.DATA_RO else AccessTag.READ_WRITE
        tags.set(msg.block, tag)
        self.complete_fault(msg.dst, msg.block, t)
        # Service invalidations/recalls that arrived ahead of this data:
        # the faulting access has completed; the copy is now surrendered.
        for deferred in self._deferred.pop((msg.dst, msg.block), []):
            self._handle_deferred(deferred, t)

    def _handle_deferred(self, msg: Message, t: float) -> None:
        if msg.kind == MK.INV:
            self.cache_invalidate(msg, t)
        elif msg.kind in (MK.RECALL_RO, MK.RECALL_INV):
            # The freshly-installed copy may be RO (the recall chased a
            # DATA_RO upgrade race); surrender whatever we hold.
            tags = self.machine.node(msg.dst).tags
            tags.invalidate(msg.block)
            self.send(
                Message(
                    MK.WB_DATA,
                    src=msg.dst,
                    dst=msg.src,
                    block=msg.block,
                    payload_bytes=self.config.block_size,
                ),
                t,
            )
        else:  # pragma: no cover - defensive
            raise ProtocolError(
                f"cannot defer {msg}",
                node=msg.dst, block=msg.block, time=t, message_repr=repr(msg),
            )

    # -- processor resumption -------------------------------------------------------------

    def complete_fault(self, node: int, block: int, t: float) -> None:
        out = self.outstanding.pop(node, None)
        if out is None:
            raise ProtocolError(
                f"data for node {node} with no outstanding fault",
                node=node, block=block, time=t,
            )
        proc, fault_block, _kind = out
        if fault_block != block:
            raise ProtocolError(
                f"node {node} received block {block} while waiting on {fault_block}",
                node=node, block=block, time=t,
            )
        proc.resume(t)

    # -- grant helpers (used by home-side transitions) ---------------------------------------

    def grant_ro(self, entry: DirEntry, requester: int, t: float) -> None:
        """Give ``requester`` a read-only copy from home memory."""
        if requester == DISCARDED or self.machine.is_down(requester):
            # Crash recovery discarded the request (or the requester died
            # while it was in flight); the entry is already stable.
            return
        home_tags = self.machine.node(entry.home).tags
        if requester == entry.home:
            # Local read grant: home regains (at least) read permission.
            if home_tags.get(entry.block) is AccessTag.INVALID:
                raise ProtocolError(
                    f"home read grant without data: {entry}",
                    node=entry.home, block=entry.block, time=t,
                )
            self.complete_fault(requester, entry.block, t)
        else:
            home_tags.downgrade(entry.block)
            entry.sharers.add(requester)
            entry.state = DirState.SHARED
            self.send(
                Message(
                    MK.DATA_RO,
                    src=entry.home,
                    dst=requester,
                    block=entry.block,
                    payload_bytes=self.config.block_size,
                ),
                t,
            )

    def grant_rw(self, entry: DirEntry, requester: int, t: float) -> None:
        """Give ``requester`` the writable copy (all other copies are gone)."""
        home_tags = self.machine.node(entry.home).tags
        if requester == DISCARDED or self.machine.is_down(requester):
            # All other copies are already invalidated; with the requester
            # gone too, home memory is the sole — hence current — copy.
            entry.sharers.clear()
            entry.owner = None
            entry.state = DirState.IDLE
            home_tags.set(entry.block, AccessTag.READ_WRITE)
            return
        entry.sharers.clear()
        if requester == entry.home:
            entry.owner = None
            entry.state = DirState.IDLE
            home_tags.set(entry.block, AccessTag.READ_WRITE)
            self.complete_fault(requester, entry.block, t)
        else:
            entry.owner = requester
            entry.state = DirState.EXCLUSIVE
            home_tags.invalidate(entry.block)
            self.send(
                Message(
                    MK.DATA_RW,
                    src=entry.home,
                    dst=requester,
                    block=entry.block,
                    payload_bytes=self.config.block_size,
                ),
                t,
            )

    # -- pending-queue management ------------------------------------------------------------

    def queue_pending(self, entry: DirEntry, msg: Message) -> None:
        entry.pending.append(PendingRequest(kind=msg.kind, requester=msg.src))

    def _drain_pending(self, entry: DirEntry, t: float) -> None:
        """Re-dispatch queued requests once the entry is stable again."""
        while entry.pending and entry.state in DirState.STABLE:
            req = entry.pending.popleft()
            synthetic = Message(req.kind, src=req.requester, dst=entry.home, block=entry.block)
            self.dispatch(entry, req.kind, synthetic, t)

    # -- crash recovery (driven by repro.recovery.crash.CrashController) ------------------------

    def on_node_crashed(self, node: int, t: float) -> None:
        """Immediate crash effects: the node's volatile protocol state dies.

        Called at the crash instant, before survivors have detected anything;
        directory repair waits for :meth:`on_node_detected_down`.
        """
        self.outstanding.pop(node, None)
        for key in [k for k in self._deferred if k[0] == node]:
            del self._deferred[key]

    def on_node_detected_down(self, node: int, t: float) -> None:
        """Survivors detected the failure: rebuild what referenced the dead node.

        Entries homed at the dead node are purged (its directory memory died
        with it); every surviving entry is repaired so no request stays stuck
        waiting on a writeback or acknowledgement the dead node can no longer
        send.
        """
        self.directory.purge_home(node)
        for entry in self.directory.known():
            self.repair_entry_for_crash(entry, node, t)
        # Deferred invalidations/recalls *from* the dead node will never be
        # followed by the data they chased; left queued, they would fire as
        # unsolicited ACKs/writebacks against the rebuilt directory.
        for key, msgs in list(self._deferred.items()):
            kept = [m for m in msgs if m.src != node]
            if kept:
                self._deferred[key] = kept
            else:
                del self._deferred[key]

    def repair_entry_for_crash(self, entry: DirEntry, dead: int, t: float) -> None:
        """Remove every reference to ``dead`` from one surviving entry.

        Busy entries complete through their normal transitions by
        synthesizing the message the dead node owed (a writeback or an
        invalidation ACK); the grant guards suppress any grant addressed to
        the dead requester.  Note the simulator tracks permissions, not
        values: a dirty copy lost with its holder is modelled by declaring
        home memory current again.
        """
        if entry.pending:
            kept = [p for p in entry.pending if p.requester != dead]
            if len(kept) != len(entry.pending):
                entry.pending.clear()
                entry.pending.extend(kept)
        if entry.in_service == dead:
            entry.in_service = DISCARDED
        if entry.state == DirState.BUSY_INV and dead in entry.sharers:
            # The dead sharer's ACK will never come; account for it so the
            # waiting writer is granted (or the entry settles, if the writer
            # died too).
            self.dispatch(
                entry, MK.ACK,
                Message(MK.ACK, src=dead, dst=entry.home, block=entry.block), t,
            )
        elif (entry.state in (DirState.BUSY_RECALL_RO, DirState.BUSY_RECALL_RW)
                and entry.owner == dead):
            # The recalled writeback died with its owner: home reclaims the
            # block through the normal writeback transition.
            self.dispatch(
                entry, MK.WB_DATA,
                Message(MK.WB_DATA, src=dead, dst=entry.home, block=entry.block,
                        payload_bytes=self.config.block_size), t,
            )
        elif entry.state not in DirState.BUSY:
            home_tags = self.machine.node(entry.home).tags
            if entry.owner == dead:
                entry.owner = None
                entry.state = DirState.IDLE
                home_tags.set(entry.block, AccessTag.READ_WRITE)
            if dead in entry.sharers:
                entry.sharers.discard(dead)
                if (entry.state in self.crash_shared_states
                        and not entry.sharers):
                    entry.state = DirState.IDLE
                    home_tags.set(entry.block, AccessTag.READ_WRITE)
        self._drain_pending(entry, t)

    def rebuild_home_state(self, node: int, t: float) -> int:
        """A restarted home re-derives its directory from survivors' tags.

        For every block homed at ``node``: a surviving writable copy makes
        its holder the exclusive owner; surviving read-only copies rebuild
        the protocol's shared state (``crash_rebuild_shared_state``); with no
        surviving copy, home memory is the sole copy and the home tag returns
        to READ_WRITE.  Returns how many entries were rebuilt.
        """
        machine = self.machine
        home_tags = machine.node(node).tags
        rw_holder: dict[int, int] = {}
        ro_holders: dict[int, set[int]] = {}
        for other in machine.nodes:
            if other.id == node or machine.is_down(other.id):
                continue
            for block in other.tags.blocks_with_tag(AccessTag.READ_WRITE):
                if machine.home(block) == node:
                    rw_holder[block] = other.id
            for block in other.tags.blocks_with_tag(AccessTag.READ_ONLY):
                if machine.home(block) == node:
                    ro_holders.setdefault(block, set()).add(other.id)
        rebuilt = 0
        for region in machine.addr_space.regions:
            for block in machine.addr_space.blocks_of_range(region.base, region.size):
                if machine.home(block) != node:
                    continue
                owner = rw_holder.get(block)
                if owner is not None:
                    entry = self.directory.entry(block)
                    entry.state = DirState.EXCLUSIVE
                    entry.owner = owner
                    entry.sharers.clear()
                    entry.in_service = None
                    entry.acks_needed = 0
                    entry.pending.clear()
                    rebuilt += 1
                elif block in ro_holders:
                    entry = self.directory.entry(block)
                    entry.state = self.crash_rebuild_shared_state
                    entry.owner = None
                    entry.sharers = NodeSet(ro_holders[block])
                    entry.in_service = None
                    entry.acks_needed = 0
                    entry.pending.clear()
                    home_tags.set(block, self.crash_rebuild_home_tag)
                    rebuilt += 1
                else:
                    home_tags.set(block, AccessTag.READ_WRITE)
        return rebuilt

    def reissue_faults_for_home(self, node: int, t: float) -> int:
        """Re-send outstanding requests the crash of home ``node`` orphaned.

        A request in flight to (or queued at) the dead home was lost with
        it; once the home restarts, each survivor still faulted on one of
        its blocks sends a fresh request.  With the reliable transport
        installed, a channel that still has unacked sends is skipped — its
        own retransmission will reach the restarted home.
        """
        transport = self.machine._transport
        reissued = 0
        for requester in sorted(self.outstanding):
            proc, block, kind = self.outstanding[requester]
            if self.machine.home(block) != node:
                continue
            if transport is not None and transport.has_unacked(requester, node):
                continue
            req = MK.GET_RO if kind == "r" else MK.GET_RW
            self.send(Message(req, src=requester, dst=node, block=block), t)
            self.machine.node(requester).stats.reissued_requests += 1
            reissued += 1
            obs = self.machine.obs
            if obs.enabled:
                obs.emit(EventKind.REISSUE, t, node=requester, block=block,
                         home=node)
        return reissued

    # -- phase-group hooks (overridden by the predictive protocol) ------------------------------

    def begin_group(self, directive_id: int, t: float) -> list[float] | None:
        return None

    def end_group(self, directive_id: int, t: float) -> None:
        return None

    def adjust_barrier(self, arrivals: dict[int, float]) -> dict[int, float]:
        return arrivals
