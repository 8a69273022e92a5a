"""Tests for the timing simulator: scheduling, issue model, runner."""

import pytest

from repro.core import (
    ArithRRI,
    ArithRRR,
    Bz,
    Color,
    Halt,
    Jmp,
    Load,
    Mov,
    Store,
    blue,
    green,
)
from repro.simulator import (
    DEFAULT_CONFIG,
    RELAXED_CONFIG,
    MachineConfig,
    dependence_edges,
    record_block_path,
    schedule_block,
    schedule_prefix,
    simulate,
    time_stream,
)
from repro.simulator.deps import kind_of, reads_of, writes_of
from repro.compiler import compile_source
from repro.exec import clear_exec_caches, get_compiled
from repro.exec.fusion import LazyChain
from repro.observe import MetricsRegistry, set_registry
from repro.workloads import ALL_KERNELS, compile_kernel

G, B = Color.GREEN, Color.BLUE


class TestDeps:
    def test_kinds(self):
        assert kind_of(ArithRRR("add", "r1", "r2", "r3")) == "alu"
        assert kind_of(ArithRRI("mul", "r1", "r2", green(3))) == "mul"
        assert kind_of(Load(G, "r1", "r2")) == "load"
        assert kind_of(Store(B, "r1", "r2")) == "store"
        assert kind_of(Jmp(B, "r1")) == "branch"
        assert kind_of(Halt()) == "halt"

    def test_blue_jump_reads_dest(self):
        assert "d" in reads_of(Jmp(B, "r1"))
        assert "d" not in reads_of(Jmp(G, "r1"))

    def test_green_control_writes_dest(self):
        assert "d" in writes_of(Jmp(G, "r1"))
        assert "d" in writes_of(Bz(G, "r1", "r2"))


class TestScheduling:
    def _store_pair_block(self):
        return [
            Mov("r1", green(5)),
            Mov("r2", green(256)),
            Store(G, "r2", "r1"),
            Mov("r3", blue(5)),
            Mov("r4", blue(256)),
            Store(B, "r4", "r3"),
            Halt(),
        ]

    def test_schedule_is_a_permutation(self):
        block = self._store_pair_block()
        order = schedule_block(block, DEFAULT_CONFIG)
        assert sorted(order) == list(range(len(block)))

    def test_constrained_keeps_green_store_first(self):
        block = self._store_pair_block()
        order = schedule_block(block, DEFAULT_CONFIG)
        assert order.index(2) < order.index(5)  # stG before stB

    def test_register_dependences_respected(self):
        block = self._store_pair_block()
        for config in (DEFAULT_CONFIG, RELAXED_CONFIG):
            order = schedule_block(block, config)
            # each store after the movs feeding it
            assert order.index(0) < order.index(2)
            assert order.index(1) < order.index(2)
            assert order.index(3) < order.index(5)
            assert order.index(4) < order.index(5)

    def test_relaxed_drops_cross_color_store_edge(self):
        block = self._store_pair_block()
        constrained = dependence_edges(block, relaxed=False)
        relaxed = dependence_edges(block, relaxed=True)
        assert 2 in constrained[5]
        assert 2 not in relaxed[5]

    def test_halt_is_barrier(self):
        block = self._store_pair_block()
        order = schedule_block(block, DEFAULT_CONFIG)
        assert order[-1] == len(block) - 1

    def test_commit_branch_is_barrier(self):
        block = [
            Mov("r1", green(9)),
            Jmp(G, "r1"),
            Mov("r2", blue(9)),
            Jmp(B, "r2"),
        ]
        order = schedule_block(block, DEFAULT_CONFIG)
        assert order[-1] == 3

    def test_schedule_prefix(self):
        order = [2, 0, 1, 3]
        assert schedule_prefix(order, 2) == [0, 1]
        assert schedule_prefix(order, 4) == order


class TestIssueModel:
    def test_independent_ops_issue_together(self):
        stream = [(Mov(f"r{i}", green(i)), False) for i in range(1, 7)]
        result = time_stream(stream, MachineConfig(issue_width=6))
        assert result.cycles <= 2  # one issue cycle + drain

    def test_issue_width_limits(self):
        stream = [(Mov(f"r{i}", green(i)), False) for i in range(1, 7)]
        narrow = time_stream(stream, MachineConfig(issue_width=1))
        wide = time_stream(stream, MachineConfig(issue_width=6))
        assert narrow.cycles > wide.cycles

    def test_raw_dependence_stalls(self):
        dependent = [
            (ArithRRI("mul", "r2", "r1", green(3)), False),
            (ArithRRI("add", "r3", "r2", green(1)), False),
        ]
        result = time_stream(dependent, DEFAULT_CONFIG)
        # mul latency 3: the add cannot issue before cycle 3.
        assert result.cycles >= 4

    def test_load_port_pressure(self):
        loads = [(Load(G, f"r{i}", "r10"), False) for i in range(1, 7)]
        two_ports = time_stream(loads, MachineConfig(load_ports=2))
        six_ports = time_stream(loads, MachineConfig(load_ports=6))
        assert two_ports.cycles > six_ports.cycles

    def test_branch_penalty_applies_on_taken(self):
        block = [(Mov("r1", green(5)), False), (Jmp(B, "r1"), True),
                 (Mov("r2", green(6)), False)]
        with_penalty = time_stream(block, MachineConfig(branch_penalty=10))
        without = time_stream(block, MachineConfig(branch_penalty=0))
        assert with_penalty.cycles >= without.cycles + 9

    def test_queue_forward_latency_delays_blue_store(self):
        pair = [
            (Mov("r1", green(5)), False),
            (Mov("r2", green(256)), False),
            (Store(G, "r2", "r1"), False),
            (Mov("r3", blue(5)), False),
            (Mov("r4", blue(256)), False),
            (Store(B, "r4", "r3"), False),
        ]
        slow = time_stream(pair, MachineConfig(queue_forward_latency=8))
        fast = time_stream(pair, MachineConfig(queue_forward_latency=0))
        assert slow.cycles > fast.cycles


class TestRunner:
    SRC = """
    array out[8];
    var i = 0;
    while (i < 5) { out[i] = i * 3; i = i + 1; }
    """

    def test_block_path_structure(self):
        compiled = compile_source(self.SRC, mode="ft")
        path = record_block_path(compiled)
        # Loop head executes 6 times (5 taken + final exit).
        labels = [instance.label for instance in path]
        assert labels[0] == compiled.lowered.cfg.entry
        head_count = sum(1 for name in labels if name.startswith("head"))
        assert head_count == 6

    def test_instances_cover_executed_instructions(self):
        compiled = compile_source(self.SRC, mode="ft")
        path = record_block_path(compiled)
        for instance in path:
            assert 0 < instance.executed <= \
                len(compiled.block_bodies[instance.label])

    def test_ft_slower_than_baseline(self):
        baseline = simulate(compile_source(self.SRC, mode="baseline"))
        protected = simulate(compile_source(self.SRC, mode="ft"))
        assert protected.cycles > baseline.cycles
        # But far less than 2x: duplication is hidden by the wide machine.
        assert protected.cycles < 2 * baseline.cycles

    def test_relaxed_not_slower_than_constrained(self):
        compiled = compile_source(self.SRC, mode="ft")
        constrained = simulate(compiled, DEFAULT_CONFIG)
        relaxed = simulate(compiled, RELAXED_CONFIG)
        assert relaxed.cycles <= constrained.cycles

    def test_narrower_machine_is_slower(self):
        compiled = compile_source(self.SRC, mode="ft")
        wide = simulate(compiled, MachineConfig(issue_width=6))
        narrow = simulate(compiled, MachineConfig(issue_width=1))
        assert narrow.cycles > wide.cycles

    def test_path_reuse_gives_same_cycles(self):
        compiled = compile_source(self.SRC, mode="ft")
        path = record_block_path(compiled)
        a = simulate(compiled, DEFAULT_CONFIG, path=path)
        b = simulate(compiled, DEFAULT_CONFIG)
        assert a.cycles == b.cycles

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_block_path_backend_parity_from_cold_cache(self, name):
        """The compiled functional pass records the interpreter's block
        path, with every fused chain compiling on its first dispatch."""
        for mode in ("ft", "baseline"):
            compiled = compile_kernel(name, mode)
            clear_exec_caches()
            assert record_block_path(compiled, backend="step") == \
                record_block_path(compiled, backend="compiled"), mode

    def test_block_path_compiles_only_dispatched_chains(self):
        """Compiling a program compiles no chain; a fault-free pass then
        compiles each chain it dispatches once, and not every chain."""
        compiled = compile_kernel("vpr", "ft")
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            clear_exec_caches()
            compiled_exec = get_compiled(compiled.program.code)
            chains = registry.counter("exec_fused_chains_compiled_total")
            assert chains.value == 0
            record_block_path(compiled)
        finally:
            set_registry(previous)
        pending = sum(isinstance(entry, LazyChain)
                      for _, entry in compiled_exec.fused.values())
        assert 0 < chains.value < compiled_exec.fused_sites
        # Every vpr chain is generated, so each fused site is either
        # still pending or was compiled exactly once.
        assert pending == compiled_exec.fused_sites - chains.value


class TestStallAccounting:
    def test_stall_causes_recorded(self):
        dependent = [
            (ArithRRI("mul", "r2", "r1", green(3)), False),
            (ArithRRI("add", "r3", "r2", green(1)), False),
        ]
        result = time_stream(dependent, DEFAULT_CONFIG)
        assert result.stalls.get("operand", 0) >= 2

    def test_port_stalls_recorded(self):
        loads = [(Load(G, f"r{i}", "r10"), False) for i in range(1, 7)]
        result = time_stream(loads, MachineConfig(load_ports=1))
        assert result.stalls.get("port", 0) >= 5

    def test_branch_flush_recorded(self):
        stream = [(Mov("r1", green(5)), False), (Jmp(B, "r1"), True),
                  (Mov("r2", green(6)), False)]
        result = time_stream(stream, MachineConfig(branch_penalty=7))
        assert result.stalls.get("branch-flush") == 7

    def test_queue_forward_stall_recorded(self):
        pair = [
            (Mov("r1", green(5)), False),
            (Mov("r2", green(256)), False),
            (Store(G, "r2", "r1"), False),
            (Mov("r3", blue(5)), False),
            (Mov("r4", blue(256)), False),
            (Store(B, "r4", "r3"), False),
        ]
        result = time_stream(pair, MachineConfig(queue_forward_latency=9))
        assert result.stalls.get("queue-forward", 0) > 0

    def test_kernel_stall_breakdown_sums_sensibly(self):
        compiled = compile_source(self.SRC if hasattr(self, "SRC") else """
        array out[8];
        var i = 0;
        while (i < 5) { out[i] = i * 3; i = i + 1; }
        """, mode="ft")
        result = simulate(compiled, DEFAULT_CONFIG)
        assert sum(result.stalls.values()) < result.cycles * 6
        assert "operand" in result.stalls
