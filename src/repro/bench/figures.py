"""Frozen configurations regenerating Table 1 and Figures 5-7.

Every figure function runs the same version matrix the paper plots and
returns a :class:`~repro.bench.harness.FigureResult`; ``check_*`` functions
assert the paper's qualitative claims hold (tests and benches share them).

Calibration notes (full rationale in EXPERIMENTS.md):

* problem sizes are scaled down (pure-Python simulator); the machine keeps
  8 nodes with the paper's *geometry* (rows-per-node, cells-per-block);
* ``per_byte_cost`` reflects CM-5 per-node bandwidth (~0.6 B/cycle);
* each app's ``work_scale`` positions the compute/communication balance
  where the paper's 33 MHz nodes had it.
"""

from __future__ import annotations

from repro.apps import adaptive, barnes, water
from repro.bench.harness import FigureResult, VersionSpec, run_specs, run_version
from repro.util.config import MachineConfig
from repro.util.tables import format_table

# --------------------------------------------------------------------------- #
# Table 1
# --------------------------------------------------------------------------- #

TABLE1_ROWS = [
    ["Adaptive", "Structured adaptive mesh", "128x128 mesh, 100 iterations",
     "16x16 mesh, 10 iterations"],
    ["Barnes", "Gravitational N-body simulation", "16384 bodies, 3 iterations",
     "128 bodies, 3 iterations"],
    ["Water", "Molecular dynamics", "512 molecules, 20 iterations",
     "96 molecules, 4 iterations"],
]


def table1() -> str:
    return format_table(
        ["Program", "Brief Description", "Paper data set", "Scaled data set"],
        TABLE1_ROWS,
        title="Table 1: Benchmark applications",
    )


# --------------------------------------------------------------------------- #
# Figure 5: Adaptive
# --------------------------------------------------------------------------- #

ADAPTIVE_KW = dict(size=16, iterations=10, threshold=0.05, work_scale=8.0)
ADAPTIVE_CFG = MachineConfig(n_nodes=8, page_size=512, per_byte_cost=0.6)


def fig5_adaptive(jobs: int = 1, corpus=None) -> FigureResult:
    """Four C** versions of Adaptive: {unopt, opt} x {32 B, 256 B} blocks."""
    specs = [
        VersionSpec("C** unopt (32)", adaptive, "stache", False,
                    ADAPTIVE_CFG.with_(block_size=32), ADAPTIVE_KW),
        VersionSpec("C** unopt (256)", adaptive, "stache", False,
                    ADAPTIVE_CFG.with_(block_size=256), ADAPTIVE_KW),
        VersionSpec("C** opt (32)", adaptive, "predictive", True,
                    ADAPTIVE_CFG.with_(block_size=32), ADAPTIVE_KW),
        VersionSpec("C** opt (256)", adaptive, "predictive", True,
                    ADAPTIVE_CFG.with_(block_size=256), ADAPTIVE_KW),
    ]
    fig = FigureResult(
        "Figure 5",
        "Execution time for 4 C** versions of Adaptive",
        run_specs(specs, jobs=jobs, corpus=corpus),
    )
    best_unopt = min(fig.result("C** unopt (32)").wall,
                     fig.result("C** unopt (256)").wall)
    best_opt = min(fig.result("C** opt (32)").wall,
                   fig.result("C** opt (256)").wall)
    fig.notes.append(
        f"best optimized is {best_unopt / best_opt:.2f}x faster than best "
        f"unoptimized (paper: 1.56x)"
    )
    return fig


def check_fig5(fig: FigureResult) -> None:
    """The paper's Figure-5 claims."""
    # the predictive protocol reduces shared-data wait time (32 B)
    assert (
        fig.result("C** opt (32)").breakdown()["Remote data wait"]
        < fig.result("C** unopt (32)").breakdown()["Remote data wait"]
    )
    # 256 B is the best case for the unoptimized program
    assert (
        fig.result("C** unopt (256)").wall < fig.result("C** unopt (32)").wall
    )
    # the predictive protocol is less effective at larger blocks
    gain_32 = fig.result("C** unopt (32)").wall / fig.result("C** opt (32)").wall
    gain_256 = fig.result("C** unopt (256)").wall / fig.result("C** opt (256)").wall
    assert gain_32 > gain_256
    # best optimized clearly faster than best unoptimized (paper: 1.56x)
    best_unopt = min(fig.result("C** unopt (32)").wall,
                     fig.result("C** unopt (256)").wall)
    best_opt = min(fig.result("C** opt (32)").wall,
                   fig.result("C** opt (256)").wall)
    assert best_unopt / best_opt > 1.3


# --------------------------------------------------------------------------- #
# Figure 6: Barnes
# --------------------------------------------------------------------------- #

BARNES_KW = dict(n=128, iterations=3, theta=0.6, dt=0.15, vel_scale=1.0,
                 work_scale=5.0)
BARNES_CFG = MachineConfig(n_nodes=8, page_size=1024, per_byte_cost=1.15)


def fig6_barnes(jobs: int = 1, corpus=None) -> FigureResult:
    """Five versions of Barnes: {unopt, opt} x {32 B, 1024 B} + SPMD."""
    specs = [
        VersionSpec("C** unopt (32)", barnes, "stache", False,
                    BARNES_CFG.with_(block_size=32), BARNES_KW),
        VersionSpec("C** unopt (1024)", barnes, "stache", False,
                    BARNES_CFG.with_(block_size=1024), BARNES_KW),
        VersionSpec("C** opt (32)", barnes, "predictive", True,
                    BARNES_CFG.with_(block_size=32), BARNES_KW),
        VersionSpec("C** opt (1024)", barnes, "predictive", True,
                    BARNES_CFG.with_(block_size=1024), BARNES_KW),
        VersionSpec("SPMD (32)", barnes, "write-update", False,
                    BARNES_CFG.with_(block_size=32), BARNES_KW,
                    variant="spmd"),
    ]
    fig = FigureResult(
        "Figure 6",
        "Execution time for 5 versions of Barnes",
        run_specs(specs, jobs=jobs, corpus=corpus),
    )
    fig.notes.append(
        "paper: at 32 B the optimized version wins on remote wait; at "
        "1024 B spatial locality makes the versions comparable, with the "
        "unoptimized one marginally ahead; SPMD lands in the same near-tie"
    )
    return fig


def check_fig6(fig: FigureResult) -> None:
    # communication optimization reduces wait time significantly at 32 B
    assert (
        fig.result("C** opt (32)").breakdown()["Remote data wait"]
        < 0.8 * fig.result("C** unopt (32)").breakdown()["Remote data wait"]
    )
    # excellent spatial locality: 1024 B blocks are a big win for unopt
    assert (
        fig.result("C** unopt (1024)").wall
        < 0.6 * fig.result("C** unopt (32)").wall
    )
    # at 1024 B the optimized and unoptimized versions are comparable
    r = (fig.result("C** opt (1024)").wall
         / fig.result("C** unopt (1024)").wall)
    assert 0.85 < r < 1.2
    # the top three versions (both 1024 B + SPMD) form a near-tie
    top = [fig.result("C** opt (1024)").wall,
           fig.result("C** unopt (1024)").wall,
           fig.result("SPMD (32)").wall]
    assert max(top) / min(top) < 1.25


# --------------------------------------------------------------------------- #
# Figure 7: Water
# --------------------------------------------------------------------------- #

WATER_KW = dict(n=96, iterations=4, work_scale=60.0)
WATER_CFG = MachineConfig(n_nodes=8, page_size=512, per_byte_cost=0.6)


def fig7_water(jobs: int = 1, corpus=None) -> FigureResult:
    """Three versions of Water: C** opt, C** unopt, and Splash.

    Block sizes per version are each version's best case, as in the paper.
    """
    specs = [
        VersionSpec("C** unopt (64)", water, "stache", False,
                    WATER_CFG.with_(block_size=64), WATER_KW),
        VersionSpec("C** opt (32)", water, "predictive", True,
                    WATER_CFG.with_(block_size=32), WATER_KW),
        VersionSpec("Splash (64)", water, "stache", False,
                    WATER_CFG.with_(block_size=64), WATER_KW,
                    variant="splash"),
    ]
    fig = FigureResult(
        "Figure 7",
        "Execution time for 3 versions of Water",
        run_specs(specs, jobs=jobs, corpus=corpus),
    )
    fig.notes.append(
        f"opt is {fig.relative('C** unopt (64)'):.2f}x over unopt "
        f"(paper: 1.05x) and {fig.relative('Splash (64)'):.2f}x over "
        f"Splash (paper: 1.2x)"
    )
    return fig


def check_fig7(fig: FigureResult) -> None:
    # optimization reduces shared-memory wait time
    assert (
        fig.result("C** opt (32)").breakdown()["Remote data wait"]
        < fig.result("C** unopt (64)").breakdown()["Remote data wait"]
    )
    # ... with a small overall improvement (paper: 1.05x)
    r = fig.result("C** unopt (64)").wall / fig.result("C** opt (32)").wall
    assert 1.0 < r < 1.2
    # the optimized version clearly beats Splash (paper: 1.2x)
    r = fig.result("Splash (64)").wall / fig.result("C** opt (32)").wall
    assert r > 1.1
