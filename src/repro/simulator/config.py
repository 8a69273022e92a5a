"""Timing-model configuration: an Itanium-2-flavored in-order machine.

The evaluation machine of the paper is a 900 MHz Itanium 2 -- a 6-issue
in-order EPIC core with two load ports, two store ports and (for TAL_FT)
the new hardware structures: the store queue and the destination register.
The defaults below model that envelope; benchmarks sweep them for the
ablation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class MachineConfig:
    """Knobs of the timing model."""

    #: Instructions issued per cycle (Itanium 2: 6).
    issue_width: int = 6
    #: Loads that may issue per cycle.
    load_ports: int = 2
    #: Stores that may issue per cycle (``stG`` and ``stB`` both count).
    store_ports: int = 2
    #: Control-flow commits per cycle (``jmpB``/``bzB``/plain jumps).
    branch_ports: int = 1
    #: Extra cycles lost when a transfer is taken (front-end refill).
    branch_penalty: int = 3
    #: Operation latencies in cycles.
    latencies: Dict[str, int] = field(
        default_factory=lambda: {
            "alu": 1,
            "mul": 3,
            "load": 3,
            "store": 1,
            "branch": 1,
            "halt": 1,
        }
    )
    #: Store-queue capacity; a ``stG`` stalls when it is full.
    store_queue_depth: int = 16
    #: Cycles between a ``stG`` writing the store queue and the matching
    #: ``stB``'s compare being able to read it (the paper emulated these
    #: hardware-structure access dependences with extra instructions).
    queue_forward_latency: int = 1
    #: Cycles between a green control announcement writing ``d`` and the
    #: blue commit being able to read it.
    dest_forward_latency: int = 2
    #: When True, the green-before-blue ordering constraint is dropped for
    #: store pairs and two-phase control flow (the paper's "TAL-FT without
    #: ordering" configuration, backed by correlating hardware): the pair
    #: halves meet in a correlation buffer, so neither forwards through the
    #: in-order structures.
    relaxed_pairing: bool = False

    def __post_init__(self) -> None:
        # A zero width, port count or queue depth would stall forever; a
        # negative delay would move the clock backwards.
        for name in ("issue_width", "load_ports", "store_ports",
                     "branch_ports", "store_queue_depth"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("branch_penalty", "queue_forward_latency",
                     "dest_forward_latency"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be at least 0, got {getattr(self, name)}")
        negative = {kind: cycles for kind, cycles in self.latencies.items()
                    if cycles < 0}
        if negative:
            raise ValueError(f"latencies must be at least 0, got {negative}")

    def latency(self, kind: str) -> int:
        return self.latencies[kind]


#: The default (constrained) TAL-FT machine.
DEFAULT_CONFIG = MachineConfig()

#: The "without ordering" machine of Figure 10: the correlation buffer
#: matches pair halves in either order (relaxed scheduling) and forwards
#: faster than the in-order queue/destination-register path.
RELAXED_CONFIG = MachineConfig(
    relaxed_pairing=True,
    queue_forward_latency=0,
    dest_forward_latency=2,
)
