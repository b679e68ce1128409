"""Span-boundary cost profiler: phase x site attribution, collapsed stacks.

Every span start/end is a boundary (the recorder calls
:meth:`CostProfiler.enter` / :meth:`CostProfiler.exit` from
``start_span`` / ``end_span``).  The simulated time elapsed since the
previous boundary is attributed to the span stack that was active
*during* that interval, classified into a pipeline **phase** —
frontend / compile / link / transfer / verify / workload — from the
innermost span's ``phase`` attribute, a span-name map, or the parent
frame's phase (children inherit unless they say otherwise).  Time
outside any span lands in a synthetic ``(idle)`` frame.

Accounting is in **integer nanoseconds** (``round(seconds * 1e9)``), so
interval sums telescope exactly: the total attributed time equals the
recorder clock's elapsed time to the nanosecond, which is what lets the
reconciliation tests assert equality with zero tolerance.

Exports:

* :meth:`collapsed_stack` — ``frame;frame;phase <nanoseconds>`` lines,
  the flamegraph-compatible collapsed format (`flamegraph.pl`,
  `inferno`, speedscope all read it).
* :meth:`hot_rows` — the top-K stacks by attributed cost, with shares.
* :meth:`phase_totals` — seconds per phase, the measurement substrate
  the ROADMAP's profiling-driven optimization pass starts from.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

PHASE_FRONTEND = "frontend"
PHASE_COMPILE = "compile"
PHASE_LINK = "link"
PHASE_TRANSFER = "transfer"
PHASE_VERIFY = "verify"
PHASE_WORKLOAD = "workload"
PHASE_OTHER = "other"
PHASE_IDLE = "idle"

PHASES = (
    PHASE_FRONTEND, PHASE_COMPILE, PHASE_LINK, PHASE_TRANSFER,
    PHASE_VERIFY, PHASE_WORKLOAD, PHASE_OTHER, PHASE_IDLE,
)

#: Span-name -> phase, for spans that do not carry a ``phase`` attribute.
SPAN_PHASES: Dict[str, str] = {
    "build": PHASE_FRONTEND,
    "transfer": PHASE_TRANSFER,
    "registry.push": PHASE_TRANSFER,
    "registry.pull": PHASE_TRANSFER,
    "mirror.sync": PHASE_TRANSFER,
    "rebuild": PHASE_COMPILE,
    "rebuild.wavefront": PHASE_COMPILE,
    "fleet.worker": PHASE_COMPILE,
    "redirect": PHASE_LINK,
    "workload": PHASE_WORKLOAD,
    "fsck": PHASE_VERIFY,
    "repair": PHASE_VERIFY,
}

_IDLE_FRAME = "(idle)"


def classify_phase(
    name: str, attributes: Optional[dict], parent_phase: Optional[str] = None
) -> str:
    """Phase of one span: explicit attribute > name map > inherited."""
    if attributes:
        explicit = attributes.get("phase")
        if isinstance(explicit, str) and explicit:
            return explicit
    mapped = SPAN_PHASES.get(name)
    if mapped is not None:
        return mapped
    return parent_phase or PHASE_OTHER


def _ns(seconds: float) -> int:
    return round(seconds * 1e9)


class _Frame:
    __slots__ = ("name", "span_id", "phase")

    def __init__(self, name: str, span_id: int, phase: str) -> None:
        self.name = name
        self.span_id = span_id
        self.phase = phase


class CostProfiler:
    """Attributes simulated-clock charge to span-stack x phase."""

    def __init__(self, origin: float = 0.0) -> None:
        self._stack: List[_Frame] = []
        #: last boundary, integer nanoseconds on the recorder clock.
        self._mark_ns = _ns(origin)
        self._origin_ns = self._mark_ns
        #: (frame names..., phase) -> attributed nanoseconds.
        self._costs: Dict[Tuple[str, ...], int] = {}

    # -- recorder hooks --------------------------------------------------

    def enter(self, span, now: float) -> None:
        self._attribute(now)
        parent_phase = self._stack[-1].phase if self._stack else None
        phase = classify_phase(
            span.name, getattr(span, "attributes", None), parent_phase
        )
        self._stack.append(_Frame(span.name, span.span_id, phase))

    def exit(self, span, now: float) -> None:
        self._attribute(now)
        # end_span pops dangling children ended by an exception in one
        # sweep; mirror that by unwinding to (and including) this span.
        while self._stack:
            if self._stack.pop().span_id == span.span_id:
                break

    def finish(self, now: float) -> None:
        """Flush the trailing interval (call once, at the clock's end)."""
        self._attribute(now)

    def _attribute(self, now: float) -> None:
        now_ns = _ns(now)
        dt = now_ns - self._mark_ns
        self._mark_ns = now_ns
        if dt <= 0:
            return
        if self._stack:
            key = tuple(f.name for f in self._stack) + (self._stack[-1].phase,)
        else:
            key = (_IDLE_FRAME, PHASE_IDLE)
        self._costs[key] = self._costs.get(key, 0) + dt

    # -- exports ---------------------------------------------------------

    def total_ns(self) -> int:
        """Attributed nanoseconds; equals the clock elapsed exactly."""
        return sum(self._costs.values())

    def phase_totals_ns(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for key, cost in self._costs.items():
            phase = key[-1]
            totals[phase] = totals.get(phase, 0) + cost
        return totals

    def phase_totals(self) -> Dict[str, float]:
        return {p: ns / 1e9 for p, ns in self.phase_totals_ns().items()}

    def collapsed_stack(self) -> str:
        """Flamegraph-collapsed text: ``a;b;phase <ns>`` per line.

        The phase rides as the leaf frame, so two executions of the same
        span stack under different phases (a ``rebuild.node`` compiling
        vs linking) stay distinguishable in the flamegraph.
        """
        lines = [
            ";".join(key) + f" {cost}"
            for key, cost in sorted(self._costs.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def hot_rows(self, k: int = 10) -> List[Tuple[str, str, float, float]]:
        """Top-*k* ``(stack, phase, seconds, share)`` by attributed cost."""
        total = self.total_ns()
        ranked = sorted(self._costs.items(), key=lambda kv: (-kv[1], kv[0]))
        rows = []
        for key, cost in ranked[: max(0, int(k))]:
            rows.append((
                ";".join(key[:-1]),
                key[-1],
                cost / 1e9,
                cost / total if total else 0.0,
            ))
        return rows


__all__ = [
    "PHASES",
    "PHASE_COMPILE",
    "PHASE_FRONTEND",
    "PHASE_IDLE",
    "PHASE_LINK",
    "PHASE_OTHER",
    "PHASE_TRANSFER",
    "PHASE_VERIFY",
    "PHASE_WORKLOAD",
    "SPAN_PHASES",
    "CostProfiler",
    "classify_phase",
]
