"""Per-run metrics computed from a GeNoC execution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.configuration import Configuration
from repro.core.genoc import GeNoCResult


@dataclass
class RunMetrics:
    """Aggregate metrics of one simulation run."""

    #: Number of messages in the initial configuration.
    messages: int
    #: Total number of flits across all messages.
    flits: int
    #: Switching steps until evacuation (or until deadlock).
    steps: int
    #: Did every message evacuate?
    evacuated: bool
    #: Did the run end in deadlock?
    deadlocked: bool
    #: Sum of the route lengths of all messages (the paper's initial μxy).
    total_route_length: int
    #: Average route length per message.
    average_route_length: float
    #: Maximum number of flits simultaneously buffered in the network.
    peak_flits_in_network: int
    #: Average number of flits in the network per step.
    average_flits_in_network: float
    #: Throughput: arrived messages per switching step.
    throughput: float
    #: Wall-clock seconds of the run.
    elapsed_seconds: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "messages": self.messages,
            "flits": self.flits,
            "steps": self.steps,
            "evacuated": self.evacuated,
            "deadlocked": self.deadlocked,
            "total_route_length": self.total_route_length,
            "average_route_length": round(self.average_route_length, 3),
            "peak_flits_in_network": self.peak_flits_in_network,
            "average_flits_in_network": round(self.average_flits_in_network, 3),
            "throughput": round(self.throughput, 4),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }


def compute_metrics(original: Configuration, result: GeNoCResult) -> RunMetrics:
    """Compute :class:`RunMetrics` for a finished run."""
    messages = len(original.travels)
    flits = sum(travel.num_flits for travel in original.travels)
    routed = list(result.final.arrived) + list(result.final.travels)
    route_lengths = [travel.route_length for travel in routed
                     if travel.has_route]
    total_route_length = sum(route_lengths)
    average_route_length = (total_route_length / len(route_lengths)
                            if route_lengths else 0.0)
    flits_per_step = [record.flits_in_network for record in result.history]
    peak = max(flits_per_step, default=0)
    average_in_network = (sum(flits_per_step) / len(flits_per_step)
                          if flits_per_step else 0.0)
    throughput = (len(result.final.arrived) / result.steps
                  if result.steps else 0.0)
    return RunMetrics(
        messages=messages,
        flits=flits,
        steps=result.steps,
        evacuated=result.evacuated,
        deadlocked=result.deadlocked,
        total_route_length=total_route_length,
        average_route_length=average_route_length,
        peak_flits_in_network=peak,
        average_flits_in_network=average_in_network,
        throughput=throughput,
        elapsed_seconds=result.elapsed_seconds,
    )
