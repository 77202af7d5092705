"""Fault injection and resilience testing.

This package stresses the simulator's "repetitive but possibly dynamic"
regime beyond what the paper's lossless CM-5 model assumes: messages may be
dropped, duplicated, or delayed; protocol processors may stall; and
predictive schedules may go stale or be corrupted outright.  The resilience
machinery it exercises lives in the main tree — a reliable transport in
:mod:`repro.faults.transport` wired into :mod:`repro.tempest.machine`, and
graceful schedule degradation in :mod:`repro.core.predictive` — and the
campaign driver here checks, via :mod:`repro.verify`, that coherence and the
memory image survive every bundled fault plan.

Everything is pay-for-what-you-use: an inactive :class:`FaultPlan` installs
nothing, and the fault-free path is byte-for-byte unchanged.
"""

from repro.faults.plan import (
    BUNDLED_PLANS,
    CRASH_PLANS,
    UNRECOVERABLE_PLAN,
    FaultEvent,
    FaultPlan,
    load_plan,
    save_plan,
)
from repro.faults.inject import FaultInjector
from repro.faults.transport import TACK, ReliableTransport
from repro.faults.campaign import (
    FaultCampaignReport,
    FaultFailure,
    run_campaign,
    shrink_events,
)

__all__ = [
    "FaultPlan",
    "FaultEvent",
    "BUNDLED_PLANS",
    "CRASH_PLANS",
    "UNRECOVERABLE_PLAN",
    "load_plan",
    "save_plan",
    "FaultInjector",
    "ReliableTransport",
    "TACK",
    "FaultCampaignReport",
    "FaultFailure",
    "run_campaign",
    "shrink_events",
]
