"""Per-request deadlines on the simulated clock.

A deadline is a *simulated-time* budget: the adaptation service (and
``coMtainer adapt --deadline``) bounds how much simulated work a request
may consume, not how much wall time the reproduction burns.  The rebuild
wave loop checks its fleet clock against the budget between wavefronts;
a blown deadline raises the typed :class:`DeadlineExceededError` *after*
the completed groups were checkpointed, so the journal stays resumable —
cancellation reshapes time, never bytes.

The error is deliberately **not** transient: retry layers propagate it
immediately and the degradation ladder treats it as terminal (descending
to a cheaper rung would spend even more of a budget that is already
gone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.telemetry import SimulatedClock


class DeadlineExceededError(Exception):
    """The simulated-time budget for a request ran out.

    Carries how much was spent against what budget and where the work
    stopped, so reports can render a ``deadline_exceeded`` row and the
    caller knows the journal holds everything completed so far.
    """

    def __init__(
        self,
        spent: float,
        budget: float,
        site: str = "rebuild.wave",
        wave_index: Optional[int] = None,
    ) -> None:
        self.spent = float(spent)
        self.budget = float(budget)
        self.site = site
        self.wave_index = wave_index
        detail = (
            f"deadline exceeded at {site}: {self.spent:.3f}s simulated "
            f"of a {self.budget:.3f}s budget"
        )
        if wave_index is not None:
            detail += f" (stopped before wave {wave_index})"
        super().__init__(detail)


def find_deadline_exceeded(
    exc: BaseException,
) -> Optional[DeadlineExceededError]:
    """The :class:`DeadlineExceededError` behind *exc*, walking cause
    chains — same idiom as :func:`repro.resilience.find_fleet_exhausted`."""
    seen: Set[int] = set()
    node: Optional[BaseException] = exc
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(node, DeadlineExceededError):
            return node
        node = node.__cause__ or node.__context__
    return None


@dataclass
class Deadline:
    """An absolute deadline against one :class:`SimulatedClock`.

    The service stamps each admitted request with one; ``remaining()``
    is what gets threaded into the rebuild layer as its relative budget.
    """

    at: float
    clock: SimulatedClock

    def remaining(self) -> float:
        return self.at - self.clock.now

    @property
    def expired(self) -> bool:
        return self.clock.now >= self.at

    def check(self, site: str = "op") -> None:
        """Raise the typed error if the deadline has passed."""
        if self.expired:
            raise DeadlineExceededError(
                spent=self.clock.now, budget=self.at, site=site
            )


__all__ = [
    "Deadline",
    "DeadlineExceededError",
    "find_deadline_exceeded",
]
