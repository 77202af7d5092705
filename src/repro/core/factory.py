"""Construction helpers: machine + protocol by name.

The paper evaluates each application under several protocol configurations;
this registry is the single place the harness, tests, and examples use to
instantiate them.
"""

from __future__ import annotations

from repro.core.predictive import PredictiveProtocol
from repro.protocols.stache import StacheProtocol
from repro.protocols.writeupdate import WriteUpdateProtocol
from repro.tempest.machine import Machine
from repro.util.config import MachineConfig
from repro.util.errors import ConfigError

PROTOCOLS = {
    StacheProtocol.name: StacheProtocol,
    PredictiveProtocol.name: PredictiveProtocol,
    WriteUpdateProtocol.name: WriteUpdateProtocol,
}


def make_machine(config: MachineConfig, protocol: str = "stache",
                 engine=None, warm=None) -> Machine:
    """Create a simulated machine running the named coherence protocol.

    ``protocol`` is one of ``"stache"`` (the write-invalidate default),
    ``"predictive"`` (the paper's contribution), or ``"write-update"``
    (the hand-optimized SPMD baseline's custom protocol).  ``engine``
    optionally supplies a pre-built event engine — the verification
    subsystem passes an :class:`~repro.verify.interleave.ExplorerEngine`
    here to fuzz message interleavings.  ``warm`` optionally
    supplies schedule records (``CommSchedule.to_record`` dicts, e.g. from
    the durable corpus) seeded into the protocol before the run so
    pre-sends start at iteration 1; protocols without schedule support
    silently ignore it.
    """
    cls = PROTOCOLS.get(protocol)
    if cls is None:
        raise ConfigError(
            f"unknown protocol {protocol!r}; available: {sorted(PROTOCOLS)}"
        )
    machine = Machine(config, cls, engine=engine)
    if warm and hasattr(machine.protocol, "warm_seed"):
        machine.protocol.warm_seed(warm)
    return machine
