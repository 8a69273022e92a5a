"""Timing simulation: the Itanium-2-flavored machine behind Figure 10."""

from repro.simulator.config import DEFAULT_CONFIG, RELAXED_CONFIG, MachineConfig
from repro.simulator.pipeline import TimingResult, time_stream
from repro.simulator.runner import (
    BlockInstance,
    build_schedules,
    record_block_path,
    replay_stream,
    simulate,
)
from repro.simulator.schedule import dependence_edges, schedule_block, schedule_prefix

__all__ = [
    "BlockInstance",
    "DEFAULT_CONFIG",
    "MachineConfig",
    "RELAXED_CONFIG",
    "TimingResult",
    "build_schedules",
    "dependence_edges",
    "record_block_path",
    "replay_stream",
    "schedule_block",
    "schedule_prefix",
    "simulate",
    "time_stream",
]
