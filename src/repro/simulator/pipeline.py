"""The in-order issue model: cycles for a stream of scheduled instructions.

A simple but faithful EPIC-style timing model:

* up to ``issue_width`` instructions issue per cycle, **in the scheduled
  order** (in-order issue: an instruction that cannot issue blocks the
  ones behind it);
* an instruction issues when its register operands are ready (scoreboard
  with per-op latencies) and a port of its class (load / store / branch)
  is free this cycle;
* a green store occupies a store-queue entry from issue until its blue
  partner completes; a green store stalls while the queue is full;
* a *taken* transfer flushes the front end: the next instruction issues no
  earlier than ``branch_penalty`` cycles later.

Each stalled cycle is charged to the first condition that blocks, and the
stalls are charged in closed form rather than one cycle at a time.  No
condition can block again once a later one is waited out, because every
port counter is zero after a stall cycle and ready times and the queue
only change when something issues.  In order, an instruction takes:

1. one ``port`` cycle if the issue width or its port is used up this
   cycle (widths and port counts are at least 1);
2. ``operand`` cycles up to the latest ready cycle of the registers it
   reads;
3. (blue store) ``queue-forward`` cycles up to the cycle the oldest
   pending green store becomes readable;
4. (green store) ``queue-full`` cycles up to ``busy[len(busy) - depth]``
   of the sorted queue occupancy, once entries completing at or before
   the current cycle are dropped: the completion that leaves one free
   entry.

A green store's entry holds a placeholder completion ``issue + 1,000,000``
until a blue store issues and overwrites the *smallest* entry with its own
completion.  That entry can be a committed store not yet dropped, in
which case the placeholder stays (ROADMAP records this leak).

The model is deliberately independent of the functional semantics: it
consumes the dynamic block path recorded by the runner plus the static
per-block schedules, which is what lets it time the *relaxed* ("without
ordering") configuration whose schedules the functional machine cannot
execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.core.instructions import Instruction
from repro.core.registers import DEST
from repro.simulator.config import MachineConfig
from repro.simulator.deps import (
    is_blue_store,
    is_green_control,
    is_green_store,
    kind_of,
    reads_of,
    writes_of,
)

#: Port class of each latency class: 0 is limited by the issue width
#: alone, then the load, store and branch ports.
_PORT = {"alu": 0, "mul": 0, "halt": 0, "load": 1, "store": 2, "branch": 3}

#: Cycles a green store's queue entry waits for a blue store to free it.
_PLACEHOLDER = 1_000_000


@dataclass
class TimingResult:
    cycles: int
    instructions: int
    #: Cycles lost per cause (operand / port / queue-full / queue-forward /
    #: branch-flush).  Causes overlap conceptually; each stalled cycle is
    #: charged to the first blocking condition found.
    stalls: Dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def _decode(instruction: Instruction, config: MachineConfig) -> Tuple:
    """What issuing ``instruction`` needs: the instruction itself (so its
    ``id`` stays taken while it is memoized), its port class, the registers
    it reads, ``(register, ready latency)`` per write, and its store colour
    (1 green, -1 blue, 0 neither)."""
    kind = kind_of(instruction)
    latency = config.latency(kind)
    dest_latency = (
        config.dest_forward_latency
        if is_green_control(instruction) else latency
    )
    writes = tuple(
        (reg, dest_latency if reg == DEST else latency)
        for reg in writes_of(instruction)
    )
    colour = (
        1 if is_green_store(instruction)
        else -1 if is_blue_store(instruction) else 0
    )
    return instruction, _PORT[kind], reads_of(instruction), writes, colour


def time_stream(
    stream: Iterable[Tuple[Instruction, bool]],
    config: MachineConfig,
) -> TimingResult:
    """Cycles to issue a stream of (instruction, taken) pairs.

    ``taken`` marks a control transfer that actually redirected fetch
    (applies the front-end refill penalty afterwards).
    """
    width = config.issue_width
    limits = (width, config.load_ports, config.store_ports,
              config.branch_ports)
    depth = config.store_queue_depth
    store_latency = config.latency("store")
    forward_latency = config.queue_forward_latency
    penalty = config.branch_penalty
    decoded: Dict[int, Tuple] = {}
    ready: Dict[str, int] = {}
    ready_get = ready.get
    # Completion cycles of in-flight green stores (queue occupancy).
    busy: List[int] = []
    # FIFO of cycles at which pending green stores become readable by
    # their blue partner's compare (queue forwarding).
    forward: List[int] = []
    stalls: Dict[str, int] = {}
    cycle = issued = instructions = last = 0
    used = [0, 0, 0, 0]  # issued this cycle, per port class
    for instruction, taken in stream:
        entry = decoded.get(id(instruction))
        if entry is None:
            entry = decoded[id(instruction)] = _decode(instruction, config)
        _, port, reads, writes, colour = entry
        start = cycle
        if issued >= width or used[port] >= limits[port]:
            stalls["port"] = stalls.get("port", 0) + 1
            start += 1
        operands = start
        for reg in reads:
            at = ready_get(reg, 0)
            if at > operands:
                operands = at
        if operands > start:
            stalls["operand"] = stalls.get("operand", 0) + operands - start
            start = operands
        if colour < 0:
            if forward and forward[0] > start:
                stalls["queue-forward"] = (
                    stalls.get("queue-forward", 0) + forward[0] - start
                )
                start = forward[0]
        elif colour:
            busy = [done for done in busy if done > start]
            if len(busy) >= depth:
                # sorted(): a store latency above the placeholder's can
                # leave a placeholder ahead of a later completion.
                free = sorted(busy)[len(busy) - depth]
                stalls["queue-full"] = (
                    stalls.get("queue-full", 0) + free - start
                )
                start = free
                busy = [done for done in busy if done > start]
        if start != cycle:
            cycle = start
            issued = 0
            used = [0, 0, 0, 0]
        for reg, latency in writes:
            ready[reg] = cycle + latency
        issued += 1
        used[port] += 1
        instructions += 1
        if colour > 0:
            busy.append(cycle + _PLACEHOLDER)
            forward.append(cycle + forward_latency)
        elif colour:
            if busy:
                busy[0] = cycle + store_latency
                busy.sort()
            if forward:
                del forward[0]
        last = cycle
        if taken:
            # Flush: nothing issues until the refill completes.
            stalls["branch-flush"] = stalls.get("branch-flush", 0) + penalty
            cycle += 1 + penalty
            issued = 0
            used = [0, 0, 0, 0]
    # Drain: account for the last instruction's latency.
    return TimingResult(max(cycle, last + 1), instructions, stalls)
