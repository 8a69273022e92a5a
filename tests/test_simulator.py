"""Tests for the timing simulator: scheduling, issue model, runner."""

import dataclasses
import random

import pytest

from repro.core import (
    DEST,
    ArithRRI,
    ArithRRR,
    Bz,
    Color,
    Halt,
    Jmp,
    Load,
    Mov,
    PlainBz,
    PlainJmp,
    PlainLoad,
    PlainStore,
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
from repro.simulator.deps import (
    is_blue_store,
    is_green_control,
    is_green_store,
    kind_of,
    reads_of,
    writes_of,
)
from repro.compiler import compile_source
from repro.exec import clear_exec_caches, get_compiled
from repro.exec.fusion import LazyChain
from repro.observe import MetricsRegistry, set_registry
from repro.workloads import ALL_KERNELS, compile_kernel

G, B = Color.GREEN, Color.BLUE


#: Stall causes in the order the issue loop checks them, then the flush.
CAUSES = ("port", "operand", "queue-forward", "queue-full", "branch-flush")

#: The six kernels of the store-queue and issue-width ablations.
ABLATION_KERNELS = ("vpr", "gcc", "jpeg", "epic", "twolf", "mpeg2")

#: Simulation name -> (build, machine).  The first three are Figure 10's;
#: the ``baseline/`` and ``ft/`` rows each change one knob of the default.
SIMULATIONS = {
    "baseline": ("baseline", DEFAULT_CONFIG),
    "ordered": ("ft", DEFAULT_CONFIG),
    "relaxed": ("ft", RELAXED_CONFIG),
    **{
        f"{build}/{name}": (build, MachineConfig(**knob))
        for build in ("baseline", "ft")
        for name, knob in (("width1", {"issue_width": 1}),
                           ("depth1", {"store_queue_depth": 1}),
                           ("penalty0", {"branch_penalty": 0}),
                           ("forward8", {"queue_forward_latency": 8}))
    },
}

#: (kernel, simulation) -> (cycles, instructions, then the stall cycles of
#: each cause in CAUSES, None where the stall dict has no entry for it),
#: recorded with the per-cycle issue loop before stalls were charged in
#: closed form.
PINNED = {
    ("gzip", "baseline"): (57365, 78051, 3356, 26064, None, None, 20958),
    ("gzip", "ordered"): (78623, 156101, 20862, 29746, 70, None, 20958),
    ("gzip", "relaxed"): (78425, 156101, 20990, 29490, None, None, 20958),
    ("vpr", "baseline"): (1561, 2013, 15, 977, None, None, 426),
    ("vpr", "ordered"): (2064, 4025, 423, 1057, 15, None, 426),
    ("vpr", "relaxed"): (2017, 4025, 519, 929, None, None, 426),
    ("gcc", "baseline"): (3392, 3174, 56, 1635, None, None, 1275),
    ("gcc", "ordered"): (4581, 6347, 838, 2041, 1, None, 1275),
    ("gcc", "relaxed"): (4499, 6347, 902, 1896, None, None, 1275),
    ("mcf", "baseline"): (11008, 12667, 423, 7112, None, None, 2604),
    ("mcf", "ordered"): (13896, 25333, 2532, 7744, 98, 49, 2604),
    ("mcf", "relaxed"): (13799, 25333, 2517, 7809, None, None, 2604),
    ("crafty", "baseline"): (9985, 10327, 259, 3613, None, None, 4584),
    ("crafty", "ordered"): (14146, 20653, 3614, 4401, 17, 1, 4584),
    ("crafty", "relaxed"): (14113, 20653, 3647, 4353, None, None, 4584),
    ("parser", "baseline"): (5660, 6523, 290, 2305, None, None, 2298),
    ("parser", "ordered"): (8126, 13045, 1949, 3080, 32, None, 2298),
    ("parser", "relaxed"): (7966, 13045, 2077, 2824, None, None, 2298),
    ("vortex", "baseline"): (4907, 5843, 231, 2635, None, None, 1530),
    ("vortex", "ordered"): (6670, 11685, 1498, 3082, 49, None, 1530),
    ("vortex", "relaxed"): (6557, 11685, 1562, 2954, None, None, 1530),
    ("bzip2", "baseline"): (15863, 16281, 67, 10051, None, None, 4308),
    ("bzip2", "ordered"): (20526, 32561, 2889, 11293, 599, None, 4308),
    ("bzip2", "relaxed"): (19863, 32561, 2953, 11165, None, None, 4308),
    ("twolf", "baseline"): (3609, 4715, 75, 2137, None, None, 1047),
    ("twolf", "ordered"): (4678, 9429, 1052, 2057, 120, 52, 1047),
    ("twolf", "relaxed"): (4609, 9429, 1187, 2025, None, None, 1047),
    ("go", "baseline"): (114821, 100890, 2156, 53812, None, None, 44139),
    ("go", "ordered"): (151919, 201779, 26290, 66712, 64, None, 44139),
    ("go", "relaxed"): (151855, 201779, 26350, 66652, None, None, 44139),
    ("adpcm", "baseline"): (6344, 6685, 74, 3569, None, None, 2025),
    ("adpcm", "ordered"): (8297, 13369, 1550, 4046, None, None, 2025),
    ("adpcm", "relaxed"): (8233, 13369, 1614, 3918, None, None, 2025),
    ("epic", "baseline"): (2045, 3434, None, 1540, None, None, 378),
    ("epic", "ordered"): (2669, 6867, 674, 1490, None, None, 378),
    ("epic", "relaxed"): (2665, 6867, 918, 1242, None, None, 378),
    ("g721", "baseline"): (14017, 12419, 414, 6818, None, None, 5088),
    ("g721", "ordered"): (19133, 24837, 3420, 8864, 64, None, 5088),
    ("g721", "relaxed"): (19005, 24837, 3484, 8736, None, None, 5088),
    ("jpeg", "baseline"): (1205, 2130, 120, 788, None, None, 222),
    ("jpeg", "ordered"): (1726, 4259, 502, 897, 10, 20, 222),
    ("jpeg", "relaxed"): (1673, 4259, 610, 766, None, None, 222),
    ("mpeg2", "baseline"): (4920, 5556, 59, 2984, None, None, 1407),
    ("mpeg2", "ordered"): (6447, 11111, 1133, 3428, 9, None, 1407),
    ("mpeg2", "relaxed"): (6310, 11111, 1261, 3172, None, None, 1407),
    ("gsm", "baseline"): (8805, 9512, 8, 6500, None, None, 1722),
    ("gsm", "ordered"): (10653, 19023, 1703, 6645, 8, None, 1722),
    ("gsm", "relaxed"): (10581, 19023, 1767, 6517, None, None, 1722),
    ("pegwit", "baseline"): (3195, 3389, 59, 1611, None, None, 1143),
    ("pegwit", "ordered"): (4256, 6777, 899, 1816, 16, None, 1143),
    ("pegwit", "relaxed"): (4224, 6777, 931, 1768, None, None, 1143),
    ("vpr", "baseline/width1"): (2598, 2013, 1870, 159, None, None, 426),
    ("vpr", "baseline/depth1"): (1561, 2013, 15, 977, None, None, 426),
    ("vpr", "baseline/penalty0"): (1135, 2013, 15, 977, None, None, 0),
    ("vpr", "baseline/forward8"): (1561, 2013, 15, 977, None, None, 426),
    ("vpr", "ft/width1"): (4750, 4025, 3882, 299, None, None, 426),
    ("vpr", "ft/depth1"): (2064, 4025, 423, 1057, 15, None, 426),
    ("vpr", "ft/penalty0"): (1638, 4025, 423, 1057, 15, None, 0),
    ("vpr", "ft/forward8"): (2714, 4025, 438, 993, 697, 17, 426),
    ("gcc", "baseline/width1"): (4757, 3174, 2748, 308, None, None, 1275),
    ("gcc", "baseline/depth1"): (3392, 3174, 56, 1635, None, None, 1275),
    ("gcc", "baseline/penalty0"): (2117, 3174, 56, 1635, None, None, 0),
    ("gcc", "baseline/forward8"): (3392, 3174, 56, 1635, None, None, 1275),
    ("gcc", "ft/width1"): (8368, 6347, 5921, 746, None, None, 1275),
    ("gcc", "ft/depth1"): (4582, 6347, 837, 2041, 2, 1, 1275),
    ("gcc", "ft/penalty0"): (3306, 6347, 838, 2041, 1, None, 0),
    ("gcc", "ft/forward8"): (5162, 6347, 838, 2041, 582, None, 1275),
    ("jpeg", "baseline/width1"): (2496, 2130, 2055, 144, None, None, 222),
    ("jpeg", "baseline/depth1"): (1205, 2130, 120, 788, None, None, 222),
    ("jpeg", "baseline/penalty0"): (983, 2130, 120, 788, None, None, 0),
    ("jpeg", "baseline/forward8"): (1205, 2130, 120, 788, None, None, 222),
    ("jpeg", "ft/width1"): (4699, 4259, 4184, 218, None, None, 222),
    ("jpeg", "ft/depth1"): (1729, 4259, 490, 894, 16, 32, 222),
    ("jpeg", "ft/penalty0"): (1504, 4259, 502, 897, 10, 20, 0),
    ("jpeg", "ft/forward8"): (2602, 4259, 475, 894, 895, 41, 222),
    ("epic", "baseline/width1"): (3940, 3434, 3307, 128, None, None, 378),
    ("epic", "baseline/depth1"): (2045, 3434, None, 1540, None, None, 378),
    ("epic", "baseline/penalty0"): (1667, 3434, None, 1540, None, None, 0),
    ("epic", "baseline/forward8"): (2045, 3434, None, 1540, None, None, 378),
    ("epic", "ft/width1"): (7559, 6867, 6740, 314, None, None, 378),
    ("epic", "ft/depth1"): (2669, 6867, 674, 1490, None, None, 378),
    ("epic", "ft/penalty0"): (2291, 6867, 674, 1490, None, None, 0),
    ("epic", "ft/forward8"): (3537, 6867, 674, 1490, 868, None, 378),
    ("twolf", "baseline/width1"): (5914, 4715, 4365, 152, None, None, 1047),
    ("twolf", "baseline/depth1"): (3609, 4715, 75, 2137, None, None, 1047),
    ("twolf", "baseline/penalty0"): (2562, 4715, 75, 2137, None, None, 0),
    ("twolf", "baseline/forward8"): (3609, 4715, 75, 2137, None, None, 1047),
    ("twolf", "ft/width1"): (11052, 9429, 9079, 576, None, None, 1047),
    ("twolf", "ft/depth1"): (4693, 9429, 1037, 2057, 135, 67, 1047),
    ("twolf", "ft/penalty0"): (3631, 9429, 1052, 2057, 120, 52, 0),
    ("twolf", "ft/forward8"): (5735, 9429, 1052, 2057, 1177, 52, 1047),
    ("mpeg2", "baseline/width1"): (7475, 5556, 5086, 512, None, None, 1407),
    ("mpeg2", "baseline/depth1"): (4920, 5556, 59, 2984, None, None, 1407),
    ("mpeg2", "baseline/penalty0"): (3513, 5556, 59, 2984, None, None, 0),
    ("mpeg2", "baseline/forward8"): (4920, 5556, 59, 2984, None, None, 1407),
    ("mpeg2", "ft/width1"): (13558, 11111, 10641, 1040, None, None, 1407),
    ("mpeg2", "ft/depth1"): (6448, 11111, 1132, 3428, 10, 1, 1407),
    ("mpeg2", "ft/penalty0"): (5040, 11111, 1133, 3428, 9, None, 0),
    ("mpeg2", "ft/forward8"): (7413, 11111, 1133, 3428, 975, None, 1407),
}


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


class TestPinnedTiming:
    """Every cycle-derived number of Figure 10 and the ablations, pinned."""

    @staticmethod
    def _check(name, simulation):
        build, config = SIMULATIONS[simulation]
        result = simulate(compile_kernel(name, build), config)
        cycles, instructions, *stalls = PINNED[name, simulation]
        assert (result.cycles, result.instructions) == (cycles, instructions)
        assert result.stalls == {
            cause: count for cause, count in zip(CAUSES, stalls)
            if count is not None
        }

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_figure10_simulations(self, name):
        for simulation in ("baseline", "ordered", "relaxed"):
            self._check(name, simulation)

    @pytest.mark.parametrize("name", ABLATION_KERNELS)
    def test_ablation_machines(self, name):
        for simulation in SIMULATIONS:
            if "/" in simulation:
                self._check(name, simulation)

    def test_table_covers_every_simulation(self):
        expected = {(name, simulation) for name in ALL_KERNELS
                    for simulation in ("baseline", "ordered", "relaxed")}
        expected |= {(name, simulation) for name in ABLATION_KERNELS
                     for simulation in SIMULATIONS if "/" in simulation}
        assert set(PINNED) == expected


class TestStoreQueueBehaviours:
    """Two behaviours the pinned cycles depend on, on hand-built streams."""

    def test_blue_store_frees_the_smallest_entry(self):
        """A blue store overwrites the smallest occupancy entry even when
        that is a committed store not yet filtered out, so its partner's
        placeholder stays in the queue.  Here the second pair leaks one:
        the fourth green store waits it out (~1,000,000 cycles)."""
        green_store = (Store(G, "r2", "r1"), False)
        blue_store = (Store(B, "r4", "r3"), False)
        stream = [green_store, blue_store, green_store, blue_store,
                  green_store, green_store]
        result = time_stream(stream, MachineConfig(store_queue_depth=2))
        assert (result.cycles, result.instructions) == (1_000_002, 6)
        assert list(result.stalls.items()) == [
            ("queue-forward", 1), ("port", 1), ("queue-full", 999_999)]

    def test_queue_full_stall_drops_the_entries_it_waited_out(self):
        """The committed entries a full queue waited out are gone, so each
        later blue store frees its own partner's placeholder and nothing
        waits ~1,000,000 cycles."""
        green_store = (Store(G, "r2", "r1"), False)
        blue_store = (Store(B, "r4", "r3"), False)
        stream = [green_store, blue_store, green_store, blue_store,
                  green_store]
        result = time_stream(stream, MachineConfig(store_queue_depth=1))
        assert (result.cycles, result.instructions) == (5, 5)
        assert list(result.stalls.items()) == [
            ("queue-forward", 2), ("queue-full", 2)]

    def test_zero_penalty_taken_transfer_records_flush(self):
        """A taken transfer under ``branch_penalty=0`` still records a
        ``branch-flush`` entry, of 0 cycles."""
        stream = [(Jmp(B, "r1"), True), (Mov("r1", green(1)), False)]
        result = time_stream(stream, MachineConfig(branch_penalty=0))
        assert (result.cycles, result.instructions) == (2, 2)
        assert result.stalls == {"branch-flush": 0}


def _per_cycle_issue(stream, config):
    """The issue loop as it was before stalls were charged in closed form:
    the whole check sequence runs again on every stalled cycle.  Kept as
    the oracle for :func:`time_stream`; returns (cycles, instructions,
    stall items in insertion order)."""
    ports = {"load": config.load_ports, "store": config.store_ports,
             "branch": config.branch_ports}
    cycle = issued = count = last = 0
    used = dict.fromkeys(ports, 0)
    ready, busy, forward, stalls = {}, [], [], {}
    for instruction, taken in stream:
        kind = kind_of(instruction)
        green_store = is_green_store(instruction)
        blue_store = is_blue_store(instruction)
        while True:
            if issued >= config.issue_width \
                    or used.get(kind, 0) >= ports.get(kind, 1):
                cause = "port"
            elif any(ready.get(reg, 0) > cycle
                     for reg in reads_of(instruction)):
                cause = "operand"
            elif blue_store and forward and forward[0] > cycle:
                cause = "queue-forward"
            elif green_store and len(busy := [
                    done for done in busy if done > cycle
            ]) >= config.store_queue_depth:
                cause = "queue-full"
            else:
                break
            stalls[cause] = stalls.get(cause, 0) + 1
            cycle, issued, used = cycle + 1, 0, dict.fromkeys(ports, 0)
        latency = config.latency(kind)
        for reg in writes_of(instruction):
            green_dest = reg == DEST and is_green_control(instruction)
            ready[reg] = cycle + (
                config.dest_forward_latency if green_dest else latency)
        issued, count, last = issued + 1, count + 1, cycle
        if kind in used:
            used[kind] += 1
        if green_store:
            busy.append(cycle + 1_000_000)
            forward.append(cycle + config.queue_forward_latency)
        elif blue_store:
            if busy:
                busy[0] = cycle + latency
                busy.sort()
            if forward:
                forward.pop(0)
        if taken:
            stalls["branch-flush"] = (
                stalls.get("branch-flush", 0) + config.branch_penalty)
            cycle, issued = cycle + 1 + config.branch_penalty, 0
            used = dict.fromkeys(ports, 0)
    return max(cycle, last + 1), count, list(stalls.items())


def _random_instruction(rng):
    reg = lambda: rng.choice(("r1", "r2", "r3", "r4"))  # noqa: E731
    colour = rng.choice((G, B))
    return rng.choice((
        lambda: Mov(reg(), green(1)),
        lambda: ArithRRR(rng.choice(("add", "mul")), reg(), reg(), reg()),
        lambda: ArithRRI(rng.choice(("add", "mul")), reg(), reg(),
                         green(2)),
        lambda: Load(colour, reg(), reg()),
        lambda: Store(colour, reg(), reg()),
        lambda: Store(colour, reg(), reg()),
        lambda: Jmp(colour, reg()),
        lambda: Bz(colour, reg(), reg()),
        lambda: PlainLoad(reg(), reg()),
        lambda: PlainStore(reg(), reg()),
        lambda: PlainJmp(reg()),
        lambda: PlainBz(reg(), reg()),
        lambda: Halt(),
    ))()


def _random_config(rng):
    return MachineConfig(
        issue_width=rng.randint(1, 3),
        load_ports=rng.randint(1, 2),
        store_ports=rng.randint(1, 2),
        branch_ports=rng.randint(1, 2),
        store_queue_depth=rng.randint(1, 3),
        branch_penalty=rng.randint(0, 4),
        queue_forward_latency=rng.randint(0, 8),
        dest_forward_latency=rng.randint(0, 3),
    )


class TestClosedFormStalls:
    def test_matches_per_cycle_loop_on_random_streams(self):
        """Random streams on tiny machines: the closed-form loop charges
        the per-cycle loop's cycles, instruction count and stalls, in the
        same insertion order.  Streams timed at 1,000,000 cycles or more
        (an unpaired green store waits out a placeholder entry) are not
        walked cycle by cycle."""
        rng = random.Random(20261017)
        compared = 0
        for _ in range(3000):
            pool = [_random_instruction(rng)
                    for _ in range(rng.randint(1, 8))]
            stream = [(rng.choice(pool), rng.random() < 0.2)
                      for _ in range(rng.randint(1, 30))]
            config = _random_config(rng)
            result = time_stream(stream, config)
            if result.cycles >= 1_000_000:
                continue
            compared += 1
            assert (result.cycles, result.instructions,
                    list(result.stalls.items())) == \
                _per_cycle_issue(stream, config), (stream, config)
        assert compared > 2000

    def test_decoding_survives_reused_ids(self):
        """A stream of fresh objects frees each one after it issues, so
        CPython hands its ``id`` to the next; decoding must not confuse
        them."""
        rng = random.Random(7)
        for _ in range(200):
            stream = [(_random_instruction(rng), rng.random() < 0.2)
                      for _ in range(rng.randint(1, 30))]
            config = _random_config(rng)
            fresh = ((dataclasses.replace(instruction), taken)
                     for instruction, taken in stream)
            assert time_stream(fresh, config) == time_stream(stream, config)


class TestMachineConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("issue_width", 0),
        ("load_ports", 0),
        ("store_ports", 0),
        ("branch_ports", 0),
        ("store_queue_depth", 0),
        ("branch_penalty", -1),
        ("queue_forward_latency", -1),
        ("dest_forward_latency", -1),
        ("latencies", {**DEFAULT_CONFIG.latencies, "load": -1}),
    ])
    def test_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            MachineConfig(**{field: value})

    def test_accepts_the_smallest_machine(self):
        config = MachineConfig(
            issue_width=1, load_ports=1, store_ports=1, branch_ports=1,
            store_queue_depth=1, branch_penalty=0, queue_forward_latency=0,
            dest_forward_latency=0, latencies=dict.fromkeys(
                DEFAULT_CONFIG.latencies, 0))
        assert time_stream([(Halt(), False)], config).cycles == 1


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
