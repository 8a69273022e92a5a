"""Per-block list scheduling for the timing model.

The functional program order emitted by the compiler is already legal; the
scheduler reorders each basic block to expose instruction-level parallelism
to the in-order issue model, under the constraints the hardware imposes:

* register data dependences (RAW, WAR, WAW), including the destination
  register ``d`` -- the serialization at the heart of the two-phase
  control-flow protocol;
* store-queue FIFO order: green stores stay ordered, blue stores stay
  ordered, and (in the **constrained** machine) the i-th blue store may
  not precede the i-th green store.  The **relaxed** machine ("TAL-FT
  without ordering", Figure 10) drops the cross-color constraint -- its
  correlation hardware matches the pair in either order -- and likewise
  drops the ``d``-mediated green-before-blue edge of control-flow pairs;
* loads never cross stores (conservative aliasing);
* commit branches are barriers: nothing moves across a ``jmpB``/``bzB``
  (or plain jump), and they stay in order at the block end.

Priority is the longest latency-weighted path to the end of the block.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.instructions import Instruction
from repro.core.registers import DEST
from repro.simulator.config import MachineConfig
from repro.simulator.deps import (
    is_blue_store,
    is_commit_branch,
    is_green_store,
    kind_of,
    reads_of,
    writes_of,
)


def dependence_edges(
    instructions: Sequence[Instruction],
    relaxed: bool,
) -> List[Set[int]]:
    """``preds[i]`` = indices that must be scheduled before ``i``."""
    count = len(instructions)
    preds: List[Set[int]] = [set() for _ in range(count)]

    last_write: Dict[str, int] = {}
    last_reads: Dict[str, List[int]] = {}
    green_stores: List[int] = []
    blue_stores: List[int] = []
    last_store = -1
    last_load = -1
    last_branch = -1

    for index, instruction in enumerate(instructions):
        reads = reads_of(instruction)
        writes = writes_of(instruction)

        for reg in reads:
            # The relaxed hardware correlates a control pair in either
            # order: no d-mediated green-before-blue edge.
            if relaxed and reg == DEST:
                continue
            if reg in last_write:
                preds[index].add(last_write[reg])
        for reg in writes:
            if relaxed and reg == DEST:
                continue
            if reg in last_write:
                preds[index].add(last_write[reg])  # WAW
            for reader in last_reads.get(reg, ()):
                preds[index].add(reader)  # WAR
        # Memory ordering.
        kind = kind_of(instruction)
        if kind == "load":
            if last_store >= 0:
                preds[index].add(last_store)
            last_load = index
        elif kind == "store":
            if last_load >= 0:
                preds[index].add(last_load)
            if is_green_store(instruction):
                if green_stores:
                    preds[index].add(green_stores[-1])
                green_stores.append(index)
            elif is_blue_store(instruction):
                if blue_stores:
                    preds[index].add(blue_stores[-1])
                pair = len(blue_stores)
                if not relaxed and pair < len(green_stores):
                    preds[index].add(green_stores[pair])
                blue_stores.append(index)
            else:
                # Plain (baseline) store: keep stores ordered.
                if last_store >= 0:
                    preds[index].add(last_store)
            last_store = index
        # Branch barriers.
        if last_branch >= 0:
            preds[index].add(last_branch)
        if is_commit_branch(instruction) or kind == "halt":
            for earlier in range(index):
                preds[index].add(earlier)
            last_branch = index

        for reg in reads:
            last_reads.setdefault(reg, []).append(index)
        for reg in writes:
            last_write[reg] = index
            last_reads[reg] = []
    return preds


def schedule_block(
    instructions: Sequence[Instruction],
    config: MachineConfig,
) -> List[int]:
    """A legal order of ``range(len(instructions))`` (original indices)."""
    count = len(instructions)
    preds = dependence_edges(instructions, config.relaxed_pairing)
    succs: List[Set[int]] = [set() for _ in range(count)]
    for index, pred_set in enumerate(preds):
        for pred in pred_set:
            succs[pred].add(index)

    # Priority: longest latency-weighted path to the block end.
    priority = [0] * count
    for index in range(count - 1, -1, -1):
        latency = config.latency(kind_of(instructions[index]))
        best = max((priority[s] for s in succs[index]), default=0)
        priority[index] = latency + best

    remaining = {i: len(preds[i]) for i in range(count)}
    ready = sorted(
        (i for i in range(count) if remaining[i] == 0),
        key=lambda i: (-priority[i], i),
    )
    order: List[int] = []
    while ready:
        chosen = ready.pop(0)
        order.append(chosen)
        for successor in succs[chosen]:
            remaining[successor] -= 1
            if remaining[successor] == 0:
                ready.append(successor)
        ready.sort(key=lambda i: (-priority[i], i))
    if len(order) != count:
        raise RuntimeError("dependence cycle in block scheduling")
    return order


def schedule_prefix(order: Sequence[int], executed: int) -> List[int]:
    """The scheduled order restricted to the first ``executed`` original
    instructions (a partially executed block instance)."""
    return [index for index in order if index < executed]
