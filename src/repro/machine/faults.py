"""Deterministic fault injection for the simulated CM-2.

A :class:`FaultPlan` is a seeded schedule of hardware failures: processor
kills, dropped or corrupted router messages, failed NEWS links.  Plans
are installed on a :class:`~repro.machine.machine.Machine` and observe
two event streams:

* **charge-stream triggers** — every :meth:`Clock.charge
  <repro.machine.cost.Clock.charge>` call reports its cost kind
  (``"alu"``, ``"router_send"``, ``"news"``, ...) through a hook the
  machine installs only when a plan is present.  Because the
  memo-free oracle and the memoised walker produce bit-identical
  charge sequences, a charge-stream trigger fires at exactly the same
  point of the computation in both engines — this is what makes fault
  runs reproducible and engine-comparable.
* **module fault points** — the Paris-level entry points in
  :mod:`~repro.machine.router`, :mod:`~repro.machine.news`,
  :mod:`~repro.machine.scan` and :mod:`~repro.machine.paris` each call
  :func:`fault_point` with a dotted name (``"router.send"``,
  ``"news.shift"``, ``"scan.reduce"``, ``"paris.alu"``...).  These fire
  for programs driving the machine API directly and use a separate
  counter namespace from the cost kinds, so one physical operation is
  never double-counted.

Every event names the operation class it watches and fires either on the
Nth matching occurrence (``at_count``) or at the first matching
occurrence at/after a simulated time (``at_us``).  Events fire **before**
the watched operation mutates machine state (the simulator charges the
clock before touching fields everywhere), so a fault leaves the machine
exactly as it was — the property checkpoint/replay recovery relies on.

Zero overhead when disabled: a machine without a plan pays one ``is not
None`` test per charge and per fault point, nothing else.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import LinkFault, ProcessorFault

#: fault kinds a plan can schedule.  ``shardkill`` is the whole-shard
#: generalisation of ``kill``: on a sharded run it takes down every PE in
#: shard ``pe``'s physical range (see ``Machine.shard_ranges``, installed
#: by :class:`repro.machine.shards.ShardedMachine`); on an unsharded
#: machine it degrades to a single-PE kill.
FAULT_KINDS = ("kill", "shardkill", "drop", "corrupt", "link")

#: what each kind means when it fires
_FIRE_MESSAGES = {
    "drop": "router message dropped in transit",
    "corrupt": "router payload failed checksum",
    "link": "NEWS link failed",
}


@dataclass
class FaultEvent:
    """One scheduled failure.

    ``op`` is the operation class the event watches: a cost kind for
    charge-stream triggers (``"router_send"``, ``"alu"``, ...), a dotted
    module fault point (``"router.send"``, ``"scan.reduce"``, ...), or
    ``"*"`` to match anything.  With ``at_count > 0`` the event fires on
    the ``at_count``-th matching occurrence; otherwise it fires at the
    first matching occurrence whose clock time is >= ``at_us``.
    """

    kind: str  # 'kill' | 'drop' | 'corrupt' | 'link'
    op: str = "*"
    at_count: int = 0
    at_us: float = 0.0
    pe: int = 0  # the processor a 'kill' takes down
    fired: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at_count < 0:
            raise ValueError(f"at_count must be >= 0, got {self.at_count}")

    def describe(self) -> str:
        when = f"#{self.at_count}" if self.at_count > 0 else f"@{self.at_us:g}us"
        target = f":{self.pe}" if self.kind in ("kill", "shardkill") else ""
        return f"{self.kind}{target}@{self.op}{when}"


class FaultPlan:
    """A deterministic, seeded schedule of hardware faults.

    Parameters
    ----------
    events:
        The :class:`FaultEvent` s to fire.  Each fires at most once.
    seed:
        Seeds the plan's private RNG (reserved for randomized corruption
        payloads; kept out of the machine RNG so installing a plan never
        perturbs program-visible randomness).
    """

    def __init__(self, events: Sequence[FaultEvent] = (), *, seed: int = 0) -> None:
        self.events: List[FaultEvent] = list(events)
        self.seed = seed
        #: (time_us, kind, op) for every fault fired, for observability
        self.log: List[Tuple[float, str, str]] = []
        self._counts: Dict[str, int] = {}
        self._suspended = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Build a plan from a compact spec string (the CLI's ``--faults``).

        Grammar (events separated by ``;``)::

            EVENT := KIND[':'PE] '@' OP ['#'COUNT] ['@'TIME_US]

        Examples::

            kill:3@alu#5          kill PE 3 on the 5th ALU charge
            drop@router_send#2    drop the 2nd router send
            corrupt@router_send   corrupt the first router send
            link@news@2500        fail the first NEWS op at/after t=2500us
        """
        events: List[FaultEvent] = []
        for raw in spec.split(";"):
            item = raw.strip()
            if not item:
                continue
            parts = item.split("@")
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"bad fault event {item!r}: expected KIND[:PE]@OP[#N][@US]"
                )
            head, op = parts[0], parts[1]
            at_us = float(parts[2]) if len(parts) == 3 else 0.0
            kind, _, pe_text = head.partition(":")
            pe = int(pe_text) if pe_text else 0
            at_count = 0
            if "#" in op:
                op, _, count_text = op.partition("#")
                at_count = int(count_text)
            if not op:
                raise ValueError(f"bad fault event {item!r}: empty op class")
            events.append(
                FaultEvent(kind=kind, op=op, at_count=at_count, at_us=at_us, pe=pe)
            )
        return cls(events, seed=seed)

    def describe(self) -> str:
        return "; ".join(ev.describe() for ev in self.events)

    def fork(self) -> "FaultPlan":
        """A fresh, unfired copy of this plan's schedule.

        The execution service gives every job (and every service-level
        retry attempt) its own plan instance: event fired-flags and
        cumulative counters are per-run state, so sharing one plan
        object across pool jobs would let one tenant's traffic consume
        another tenant's scheduled faults.
        """
        return FaultPlan(
            [
                FaultEvent(
                    kind=ev.kind,
                    op=ev.op,
                    at_count=ev.at_count,
                    at_us=ev.at_us,
                    pe=ev.pe,
                )
                for ev in self.events
            ],
            seed=self.seed,
        )

    # -- run control ---------------------------------------------------------

    def reset(self) -> None:
        """Re-arm every event and clear counters/log (fresh run)."""
        for ev in self.events:
            ev.fired = False
        self._counts.clear()
        self.log.clear()
        self._suspended = 0

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Mask the plan while recovery charges its own out-of-band traffic
        (backoff, relayout permutes) so a handler cannot re-fault itself."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    # -- triggering ----------------------------------------------------------

    def on_op(self, machine, op: str, count: int = 1) -> None:
        """Observe ``count`` occurrences of operation class ``op``.

        Called by the machine's clock hook (cost kinds) and by the Paris
        modules' fault points (dotted names).  Raises the scheduled fault
        when an event's trigger is reached.
        """
        if self._suspended:
            return
        total = self._counts.get(op, 0) + count
        self._counts[op] = total
        now = machine.clock.time_us
        for ev in self.events:
            if ev.fired or (ev.op != op and ev.op != "*"):
                continue
            if ev.at_count > 0:
                if total < ev.at_count:
                    continue
            elif now < ev.at_us:
                continue
            ev.fired = True
            self._fire(machine, ev, op)

    def _fire(self, machine, ev: FaultEvent, op: str) -> None:
        self.log.append((machine.clock.time_us, ev.kind, op))
        if ev.kind == "kill":
            machine.dead_pes.add(ev.pe)
            raise ProcessorFault(
                f"processor {ev.pe} failed during {op!r} "
                f"at t={machine.clock.time_us:.0f}us",
                pe=ev.pe,
            )
        if ev.kind == "shardkill":
            ranges = getattr(machine, "shard_ranges", None)
            if ranges and 0 <= ev.pe < len(ranges):
                lo, hi = ranges[ev.pe]
            else:
                lo, hi = ev.pe, ev.pe + 1  # unsharded machine: one PE
            machine.dead_pes.update(range(lo, hi))
            raise ProcessorFault(
                f"shard {ev.pe} (PEs {lo}..{hi - 1}) failed during {op!r} "
                f"at t={machine.clock.time_us:.0f}us",
                pe=lo,
            )
        raise LinkFault(
            f"{_FIRE_MESSAGES[ev.kind]} during {op!r} "
            f"at t={machine.clock.time_us:.0f}us",
            op=op,
        )


def fault_point(machine, op: str) -> None:
    """Module-level fault hook: one ``is not None`` test when no plan is
    installed.  ``op`` is a dotted name like ``"router.send"`` — a counter
    namespace separate from the clock's cost kinds."""
    plan = machine.faults
    if plan is not None:
        plan.on_op(machine, op)
