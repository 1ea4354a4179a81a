"""The seed event-driven simulator, kept as an executable specification.

This is the original (pre-levelization) engine: a per-cycle worklist over
*all* components with dict/tuple snapshots for change detection.  It is
deliberately simple and order-agnostic, which makes it the ground truth
the optimized :class:`repro.dataflow.simulator.Simulator` is checked
against — the equivalence suite in
``tests/dataflow/test_engine_equivalence.py`` asserts that both engines
produce bit-identical cycle counts, transfers, squash counts and final
memory state on every kernel and configuration.

Do not use this engine for evaluation runs; it is several times slower
and exists only as a test oracle.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import ConvergenceError, DeadlockError, SimulationError
from .channel import Channel
from .circuit import Circuit
from .component import Component
from .simulator import SimulationStats


class ReferenceSimulator:
    """Drives a :class:`Circuit` cycle by cycle (seed algorithm)."""

    engine_name = "reference"
    engine_reason = "requested"

    def __init__(
        self,
        circuit: Circuit,
        max_cycles: int = 1_000_000,
        deadlock_window: int = 256,
        fixpoint_cap: int = 10_000,
        trace=None,
        collect_stats: bool = True,
    ):
        self.circuit = circuit
        self.max_cycles = max_cycles
        self.deadlock_window = deadlock_window
        self.fixpoint_cap = fixpoint_cap
        self.trace = trace
        self.collect_stats = collect_stats
        self.stats = SimulationStats()
        self._quiet_cycles = 0
        #: callables invoked after every clock edge (e.g. squash execution)
        self.end_of_cycle_hooks: List[Callable[[], None]] = []
        circuit.validate()
        # Event-driven bookkeeping: which components observe each channel,
        # and which channels each component can drive.
        self._watchers: Dict[Channel, List[Component]] = {}
        self._adjacent: Dict[Component, List[Channel]] = {
            c: [] for c in circuit.components
        }
        for chan in circuit.channels:
            watchers = []
            if chan.consumer is not None:
                watchers.append(chan.consumer)
                self._adjacent[chan.consumer].append(chan)
            if chan.producer is not None:
                watchers.append(chan.producer)
                self._adjacent[chan.producer].append(chan)
            self._watchers[chan] = watchers

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def _fixpoint(self) -> None:
        comps = self.circuit.components
        channels = self.circuit.channels
        for chan in channels:
            chan.reset_cycle()
        pending = dict.fromkeys(comps)  # ordered set of components to evaluate
        rounds = 0
        while pending:
            rounds += 1
            if rounds > self.fixpoint_cap:
                raise ConvergenceError(
                    f"{self.circuit.name}: combinational fixpoint did not settle "
                    f"within {self.fixpoint_cap} rounds at cycle {self.stats.cycles}"
                )
            batch = list(pending)
            pending.clear()
            # Snapshot only channels the batch can drive, evaluate, then
            # wake the watchers of every changed channel.
            touched: Dict[Channel, tuple] = {}
            for comp in batch:
                for chan in self._adjacent[comp]:
                    if chan not in touched:
                        touched[chan] = (chan.valid, chan.ready, chan.data)
            for comp in batch:
                comp.propagate()
                self.stats.propagate_calls += 1
            for chan, prev in touched.items():
                if (chan.valid, chan.ready, chan.data) != prev:
                    for watcher in self._watchers[chan]:
                        pending[watcher] = None

    def step(self) -> int:
        """Simulate one cycle; returns the number of channel transfers."""
        self._fixpoint()
        fired = 0
        for chan in self.circuit.channels:
            if self.collect_stats:
                chan.record_stats()
            if chan.fires:
                fired += 1
        if self.trace is not None:
            self.trace.capture(self.circuit, self.stats.cycles)
        for comp in self.circuit.components:
            comp.tick()
        for hook in self.end_of_cycle_hooks:
            hook()
        self.stats.cycles += 1
        self.stats.transfers += fired
        return fired

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------
    def run(self, done: Callable[[], bool]) -> SimulationStats:
        """Run until ``done()`` is true; raise on deadlock or cycle budget."""
        self._quiet_cycles = 0
        while not done():
            if self.stats.cycles >= self.max_cycles:
                raise SimulationError(
                    f"{self.circuit.name}: exceeded {self.max_cycles} cycles "
                    "without completing"
                )
            fired = self.step()
            busy = fired > 0 or any(c.is_busy for c in self.circuit.components)
            if busy:
                self._quiet_cycles = 0
            else:
                self._quiet_cycles += 1
                if self._quiet_cycles >= self.deadlock_window:
                    self._raise_deadlock()
        return self.stats

    def run_cycles(self, n: int) -> SimulationStats:
        """Run exactly ``n`` cycles (no completion/deadlock checks)."""
        for _ in range(n):
            self.step()
        return self.stats

    def _raise_deadlock(self) -> None:
        stuck = [c for c in self.circuit.channels if c.valid and not c.ready]
        names = ", ".join(c.name for c in stuck[:8])
        more = "" if len(stuck) <= 8 else f" (+{len(stuck) - 8} more)"
        raise DeadlockError(
            f"{self.circuit.name}: no progress for {self.deadlock_window} cycles "
            f"at cycle {self.stats.cycles}; stalled channels: {names}{more}",
            stuck_channels=stuck,
        )
