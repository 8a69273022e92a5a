"""Machine states of the TAL_FT abstract machine (Figure 1).

A machine state ``S`` is either the distinguished ``fault`` state (the
hardware has *detected* a transient fault), our ``halted`` extension, or an
ordinary tuple ``(R, C, M, Q, ir)``:

* ``R`` -- the register bank, a total function from register names to
  :class:`~repro.core.colors.ColoredValue`;
* ``C`` -- code memory, mapping integer addresses (1-based; address 0 is
  never valid code) to instructions;
* ``M`` -- value memory, mapping integer addresses to integers;
* ``Q`` -- the store queue of pending (address, value) pairs standing between
  the processor and the memory-mapped output device;
* ``ir`` -- the current instruction, or ``None`` when the next instruction
  must be fetched.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.core.colors import Color, ColoredValue, blue, green
from repro.core.errors import ReproError
from repro.core.instructions import Instruction
from repro.core.registers import DEST, PC_B, PC_G, gpr_range, is_register

_new_cv = tuple.__new__


class RegisterFile:
    """The register bank ``R``: a total map from register names to values.

    ``R(a)`` is :meth:`get`, ``R[a -> v]`` is :meth:`set`, and the paper's
    ``R++`` (increment both program counters) is :meth:`bump_pcs`.
    ``Rval(a)`` / ``Rcol(a)`` are :meth:`value` / :meth:`color`.

    The bank is mutable for speed; :meth:`clone` takes a snapshot.
    """

    __slots__ = ("_regs",)

    def __init__(self, regs: Mapping[str, ColoredValue]):
        self._regs: Dict[str, ColoredValue] = dict(regs)
        for name in self._regs:
            if not is_register(name):
                raise ValueError(f"not a register name: {name!r}")

    @classmethod
    def initial(
        cls,
        entry: int,
        num_gprs: int = 64,
        gpr_colors: Optional[Mapping[str, Color]] = None,
    ) -> "RegisterFile":
        """A boot register bank.

        Both program counters point at ``entry``; the destination register
        holds green 0; every general-purpose register holds 0 with the color
        given by ``gpr_colors`` (default: green).
        """
        regs: Dict[str, ColoredValue] = {
            PC_G: green(entry),
            PC_B: blue(entry),
            DEST: green(0),
        }
        colors = gpr_colors or {}
        for name in gpr_range(num_gprs):
            regs[name] = ColoredValue(colors.get(name, Color.GREEN), 0)
        return cls(regs)

    def get(self, name: str) -> ColoredValue:
        """``R(a)`` -- the colored value in register ``name``."""
        try:
            return self._regs[name]
        except KeyError:
            raise ReproError(f"register {name!r} is not in the bank") from None

    def value(self, name: str) -> int:
        """``Rval(a)`` -- the integer payload of register ``name``."""
        # Tuple indexing instead of the NamedTuple property: this runs on
        # every operand read of every executed instruction.
        try:
            return self._regs[name][1]
        except KeyError:
            raise ReproError(f"register {name!r} is not in the bank") from None

    def color(self, name: str) -> Color:
        """``Rcol(a)`` -- the color tag of register ``name``."""
        try:
            return self._regs[name][0]
        except KeyError:
            raise ReproError(f"register {name!r} is not in the bank") from None

    def set(self, name: str, value: ColoredValue) -> None:
        """``R[a -> v]`` (in place)."""
        if name not in self._regs:
            raise ReproError(f"register {name!r} is not in the bank")
        self._regs[name] = value

    def bump_pcs(self) -> None:
        """``R++`` -- advance both program counters by one instruction."""
        regs = self._regs
        pc_g = regs[PC_G]
        pc_b = regs[PC_B]
        # tuple.__new__ directly: skips the generated NamedTuple __new__
        # wrapper on the two hottest allocations in the interpreter.
        regs[PC_G] = _new_cv(ColoredValue, (pc_g[0], pc_g[1] + 1))
        regs[PC_B] = _new_cv(ColoredValue, (pc_b[0], pc_b[1] + 1))

    def names(self) -> Iterator[str]:
        """All register names in the bank."""
        return iter(self._regs)

    def clone(self) -> "RegisterFile":
        # The names were validated when this bank was built; re-checking
        # them on every checkpoint and injection clone is pure cost.
        clone = RegisterFile.__new__(RegisterFile)
        clone._regs = dict(self._regs)
        return clone

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RegisterFile) and self._regs == other._regs

    def __repr__(self) -> str:
        pcs = f"pcG={self._regs[PC_G]}, pcB={self._regs[PC_B]}, d={self._regs[DEST]}"
        return f"<RegisterFile {pcs}, {len(self._regs) - 3} gprs>"


class StoreQueue:
    """The store queue ``Q`` of pending (address, value) pairs.

    ``stG`` pushes onto the *front*; ``stB`` inspects and pops the *back*.
    ``find(Q, n)`` (used by ``ldG``) scans from the front -- the most recent
    pending store to an address wins.

    Index 0 of the underlying deque is the front (newest entry); pushing
    there is O(1) (``appendleft``), as is popping the back.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Iterable[Tuple[int, int]] = ()):
        self._pairs: Deque[Tuple[int, int]] = deque(pairs)

    def push_front(self, address: int, value: int) -> None:
        self._pairs.appendleft((address, value))

    def back(self) -> Tuple[int, int]:
        """The oldest pending pair (the one ``stB`` must match)."""
        if not self._pairs:
            raise ReproError("store queue is empty")
        return self._pairs[-1]

    def pop_back(self) -> Tuple[int, int]:
        if not self._pairs:
            raise ReproError("store queue is empty")
        return self._pairs.pop()

    def find(self, address: int) -> Optional[Tuple[int, int]]:
        """The paper's ``find(Q, n)``: first pair for ``address``, front first."""
        for pair in self._pairs:
            if pair[0] == address:
                return pair
        return None

    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        """The queue contents, front (newest) first."""
        return tuple(self._pairs)

    def replace(self, index: int, pair: Tuple[int, int]) -> None:
        """Overwrite the pair at ``index`` (used by the Q-zap fault rules)."""
        self._pairs[index] = pair

    def clone(self) -> "StoreQueue":
        return StoreQueue(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StoreQueue) and self._pairs == other._pairs

    def __repr__(self) -> str:
        return f"StoreQueue({self._pairs!r})"


class Status(enum.Enum):
    """Execution status of a machine state."""

    RUNNING = "running"
    #: The hardware detected a transient fault (the paper's ``fault`` state).
    FAULT_DETECTED = "fault"
    #: The machine executed ``halt`` (extension; see instructions module).
    HALTED = "halted"


class MachineState:
    """An ordinary machine state ``(R, C, M, Q, ir)`` plus a status flag.

    The state is mutable -- the semantics updates it in place -- and
    :meth:`clone` snapshots everything except code memory, which is immutable
    by assumption (it sits outside the sphere of replication and is never
    written).
    """

    __slots__ = ("regs", "code", "memory", "queue", "ir", "status",
                 "observable_min")

    def __init__(
        self,
        regs: RegisterFile,
        code: Mapping[int, Instruction],
        memory: Dict[int, int],
        queue: Optional[StoreQueue] = None,
        ir: Optional[Instruction] = None,
        status: Status = Status.RUNNING,
        observable_min: int = 0,
    ):
        if 0 in code:
            raise ReproError("address 0 is not a valid code address")
        self.regs = regs
        self.code = code
        self.memory = memory
        self.queue = queue if queue is not None else StoreQueue()
        self.ir = ir
        self.status = status
        #: First address mapped to the output device.  Committed stores
        #: below this address (e.g. compiler spill slots) update memory but
        #: are not externally observable.  The default (0) makes every
        #: store observable, the conservative reading of the paper.
        self.observable_min = observable_min

    @property
    def is_terminal(self) -> bool:
        return self.status is not Status.RUNNING

    def enter_fault(self) -> None:
        """Transition to the hardware-detected ``fault`` state."""
        self.status = Status.FAULT_DETECTED
        self.ir = None

    def halt(self) -> None:
        self.status = Status.HALTED
        self.ir = None

    def clone(self) -> "MachineState":
        return MachineState(
            regs=self.regs.clone(),
            code=self.code,
            memory=dict(self.memory),
            queue=self.queue.clone(),
            ir=self.ir,
            status=self.status,
            observable_min=self.observable_min,
        )

    def __repr__(self) -> str:
        if self.status is Status.FAULT_DETECTED:
            return "<MachineState fault>"
        if self.status is Status.HALTED:
            return "<MachineState halted>"
        return (
            f"<MachineState pcG={self.regs.value(PC_G)} "
            f"pcB={self.regs.value(PC_B)} ir={self.ir} |Q|={len(self.queue)}>"
        )
