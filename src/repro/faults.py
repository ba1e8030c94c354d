"""Deterministic fault injection for the store, lifecycle, and net tiers.

Production code calls :func:`hit` at named *fault points* — e.g. just before
an ``os.fsync`` (``persist.fsync``) or an ``os.replace`` swap
(``compact.swap``).  With no plan armed, ``hit`` is a module-level no-op
(one global load + call of an empty function), so the instrumented hot
paths pay nothing measurable.

Tests and the chaos smoke arm a :class:`FaultPlan`:

::

    plan = FaultPlan(seed=7).on("persist.fsync", count=2, error=OSError("EIO"))
    with plan.armed():
        engine.checkpoint(path)     # first two fsyncs raise OSError

Rules are deterministic: a seeded RNG drives ``probability`` rules, and
``after``/``count`` windows are plain hit counters, so the same plan and
seed produce the same failure schedule every run.  Arming is process-local
and thread-safe; only one plan can be armed at a time.
"""

from __future__ import annotations

import contextlib
import random
import threading
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = ["FAULT_POINTS", "FaultPlan", "FaultRule", "InjectedFault", "hit"]

#: Every fault point the codebase is instrumented with.  Plans may only
#: reference these names — a typo'd point would silently never fire.
FAULT_POINTS = (
    "persist.write",  # store/runfile: segment payload write
    "persist.fsync",  # store/checkpoint: data/header fsync phases
    "net.send",  # net/{server,client}: socket send
    "net.recv",  # net/{server,client}: socket recv
    "scheduler.batch",  # serve/server: worker picked up a batch
    "scheduler.admit",  # serve/server: non-blocking admission (fires a shed)
    "compact.swap",  # store/compaction: atomic rename of the merged file
    "mmap.gather",  # store/mapped: mapped row gather
)


class InjectedFault(ReproError):
    """An error raised by an armed :class:`FaultPlan` (never in production)."""

    def __init__(self, point: str, hit_number: int) -> None:
        super().__init__(f"injected fault at {point} (hit #{hit_number})")
        self.point = point
        self.hit_number = hit_number


@dataclass
class FaultRule:
    """One trigger: fire at ``point`` after ``after`` clean hits, ``count``
    times (``None`` = forever), each firing gated by ``probability``."""

    point: str
    after: int = 0
    count: "int | None" = 1
    probability: float = 1.0
    error: "BaseException | None" = None  # default: InjectedFault
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; known: {FAULT_POINTS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")


class FaultPlan:
    """A deterministic schedule of fault-point failures.

    Build with :meth:`on`, then :meth:`arm` (or the :meth:`armed` context
    manager).  Per-point hit counters are kept whether or not a rule fires,
    so ``after=`` windows measure *calls*, not prior failures.
    """

    def __init__(self, *, seed: int = 0) -> None:
        self._rules: "list[FaultRule]" = []
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._hits: "dict[str, int]" = {}

    def on(
        self,
        point: str,
        *,
        after: int = 0,
        count: "int | None" = 1,
        probability: float = 1.0,
        error: "BaseException | None" = None,
    ) -> "FaultPlan":
        """Add a rule; returns self for chaining."""
        self._rules.append(
            FaultRule(point, after=after, count=count, probability=probability,
                      error=error)
        )
        return self

    # -- introspection -----------------------------------------------------------

    def hits(self, point: str) -> int:
        """How many times ``point`` was reached while this plan was armed."""
        with self._lock:
            return self._hits.get(point, 0)

    def fired(self, point: "str | None" = None) -> int:
        """Total rule firings (optionally for one point)."""
        with self._lock:
            return sum(
                rule.fired
                for rule in self._rules
                if point is None or rule.point == point
            )

    # -- the armed hook ----------------------------------------------------------

    def _hit(self, point: str) -> None:
        with self._lock:
            number = self._hits.get(point, 0) + 1
            self._hits[point] = number
            for rule in self._rules:
                if rule.point != point:
                    continue
                if number <= rule.after:
                    continue
                if rule.count is not None and rule.fired >= rule.count:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                rule.fired += 1
                error = rule.error
                break
            else:
                return
        # Imported lazily: repro.obs.events must not import at faults'
        # module load (several store modules import faults very early).
        from repro.obs import events as obs_events

        obs_events.emit(
            "fault_injected",
            point=point,
            hit_number=number,
            error=repr(error) if error is not None else "InjectedFault",
        )
        if error is None:
            raise InjectedFault(point, number)
        raise error

    def arm(self) -> None:
        global hit
        with _arm_lock:
            if _armed_plan() is not None:
                raise RuntimeError("another FaultPlan is already armed")
            hit = self._hit

    def disarm(self) -> None:
        global hit
        with _arm_lock:
            if _armed_plan() is self:
                hit = _noop

    @contextlib.contextmanager
    def armed(self):
        self.arm()
        try:
            yield self
        finally:
            self.disarm()


def _noop(point: str) -> None:
    """The disarmed fault hook: does nothing, costs nothing."""


def _armed_plan() -> "FaultPlan | None":
    fn = hit
    return getattr(fn, "__self__", None) if fn is not _noop else None


_arm_lock = threading.Lock()

#: The live hook.  Call sites import the *module* (``from repro import
#: faults``; ``faults.hit("persist.fsync")``) so arming rebinds what they see.
hit = _noop
