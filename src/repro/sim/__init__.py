"""Flow-level and event-driven simulation over the AL-VC fabric.

Provides the traffic substrate for the experiments: service-correlated
flow generation (machines of the same service exchange traffic far more
often than machines of different services, Section III.A), an analytic
flow simulator that charges O/E/O conversions and link load, an
event-driven fair-share simulator reporting flow completion times, and
per-chain traffic accounting.
"""

from repro.sim.chain_traffic import (
    ChainFlowRecord,
    ChainTrafficReport,
    ChainTrafficSimulator,
)
from repro.sim.event_simulator import (
    CompletedFlow,
    EventDrivenFlowSimulator,
    EventSimulationReport,
)
from repro.sim.fairshare import check_max_min_fair, max_min_fair_rates
from repro.sim.flows import Flow
from repro.sim.simulator import FlowSimulator, SimulationReport
from repro.sim.traffic import TrafficConfig, TrafficGenerator
from repro.sim.vector import BatchedFairShareEngine, FlowTable, LinkBusyView

__all__ = [
    "BatchedFairShareEngine",
    "ChainFlowRecord",
    "ChainTrafficReport",
    "ChainTrafficSimulator",
    "CompletedFlow",
    "EventDrivenFlowSimulator",
    "EventSimulationReport",
    "Flow",
    "FlowSimulator",
    "FlowTable",
    "LinkBusyView",
    "SimulationReport",
    "TrafficConfig",
    "TrafficGenerator",
    "check_max_min_fair",
    "max_min_fair_rates",
]
