"""Fault-tolerant rebuild worker fleet: crashes, stragglers, leases.

PR 4's wavefront scheduler charged each wavefront's makespan to
``--jobs`` anonymous worker *slots* that could never fail.  On the
shared HPC nodes coMtainer targets, rebuild workers die mid-compile,
hang for minutes, and flake — and the system-side service must absorb
all of it "without any user involvement".  This module gives the slots
an identity and a failure model:

* **Worker faults** come from the injector's worker fault family
  (``worker.crash`` / ``worker.straggle`` / ``worker.flaky``), consulted
  once per *(worker, group, attempt)* with keys like ``w3/<digest>#1``
  so chaos scripts can target one worker, one command group, or one
  specific retry.
* **Heartbeat leases**: a worker owns a group through a lease on the
  simulated clock (:class:`HeartbeatMonitor`).  A crashed worker stops
  heartbeating; after ``heartbeat_interval * misses_allowed`` seconds
  the lease expires and the group is *deterministically reassigned* to
  the surviving worker that frees up first (ties break on worker
  index).  The detection lag is charged to the wave makespan — crash
  recovery is not free.
* **Speculative re-execution**: a group still running past
  ``STRAGGLE_THRESHOLD`` times its cost estimate gets a duplicate
  launched on the least-loaded other worker; first completion wins and
  the loser is cancelled.  Execution is pure and idempotent, so running
  a group twice is always safe.
* **Blacklisting**: a worker whose attempts keep failing
  (``max_worker_failures`` strikes) is excluded from further
  assignment.  When every worker is dead or blacklisted the wave cannot
  finish and :class:`FleetExhaustedError` surfaces — the degradation
  ladder's ``fleet-exhausted`` rung retries the rebuild serially on a
  fresh single-worker fleet.

The fleet is a **pure timeline simulation**.  :meth:`WorkerFleet.run_wave`
decides *which* groups complete and *what simulated time* the wave costs;
the caller (``rebuild_in_container``) then performs the real execution of
each completed group exactly once, in deterministic wavefront order.
That split is what keeps the hard invariant of the parallel-rebuild work
intact under chaos: rebuilt-layer bytes depend only on the resolution
order, never on which simulated worker ran what, so digests stay
byte-identical under any seeded fault pattern and any ``--jobs`` value.
With no injector (or none of the worker sites firing), a wave's makespan
equals :func:`repro.core.backend.scheduler.lpt_schedule` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.telemetry import NULL_TELEMETRY, SimulatedClock

#: Default lease parameters: a heartbeat every 5 simulated seconds and
#: three missed beats before the monitor declares the worker dead.
HEARTBEAT_INTERVAL = 5.0
MISSES_ALLOWED = 3

#: A group is a straggler once it runs past ``threshold * cost`` without
#: completing; an undetected straggler finishes at ``factor * cost``.
STRAGGLE_THRESHOLD = 2.0
STRAGGLE_FACTOR = 4.0

#: Fraction of a group's cost a crashing worker burns before dying.
CRASH_FRACTION = 0.5


class FleetExhaustedError(Exception):
    """Every rebuild worker is dead or blacklisted; the wave cannot finish.

    Non-transient by design: retrying the same fleet reproduces the same
    corpses.  Recovery belongs to the degradation ladder, which re-runs
    the rebuild on a fresh serial fleet (the ``fleet-exhausted`` rung).
    """

    transient = False

    def __init__(self, wave_index: int, pending: Sequence[str], stats) -> None:
        super().__init__(
            f"worker fleet exhausted in wavefront {wave_index}: "
            f"{len(pending)} groups unassignable "
            f"({stats.crashes} crashes, {len(stats.blacklisted)} blacklisted)"
        )
        self.wave_index = wave_index
        self.pending = list(pending)
        self.stats = stats


def find_fleet_exhausted(exc: BaseException) -> Optional[FleetExhaustedError]:
    """The :class:`FleetExhaustedError` behind *exc*, walking cause chains.

    Exhaustion typically surfaces wrapped (engine ``run`` -> workflow ->
    retry layers); the ladder keys its serial-fleet rung on the typed
    error, same idiom as ``repro.integrity.find_integrity_error``.
    """
    seen: Set[int] = set()
    node: Optional[BaseException] = exc
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(node, FleetExhaustedError):
            return node
        node = node.__cause__ or node.__context__
    return None


@dataclass
class FleetWorker:
    """One simulated rebuild worker and its lifetime bookkeeping."""

    wid: str
    index: int
    alive: bool = True
    blacklisted: bool = False
    strikes: int = 0               # flaky failures accumulated
    groups_completed: int = 0
    busy_seconds: float = 0.0

    @property
    def active(self) -> bool:
        return self.alive and not self.blacklisted


@dataclass
class Lease:
    """Ownership of one command group by one worker, on the clock."""

    group: str                     # transformed-command digest
    worker: str
    wave: int
    issued_at: float
    deadline: float                # last heartbeat + lease timeout


class HeartbeatMonitor:
    """Lease-based group ownership over the simulated clock.

    A worker holding a group renews its lease every ``heartbeat_interval``
    simulated seconds; ``misses_allowed`` consecutive missed beats forfeit
    it.  Detection of a crash therefore lags the death by exactly
    :attr:`lease_timeout` — the reassignment latency the wave makespan is
    charged for.
    """

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        misses_allowed: int = MISSES_ALLOWED,
    ) -> None:
        self.clock = clock or SimulatedClock()
        self.heartbeat_interval = heartbeat_interval
        self.misses_allowed = max(1, int(misses_allowed))
        self.active: Dict[str, Lease] = {}
        self.expired: List[Lease] = []

    @property
    def lease_timeout(self) -> float:
        return self.heartbeat_interval * self.misses_allowed

    def grant(self, group: str, worker: str, now: float, wave: int) -> Lease:
        lease = Lease(group=group, worker=worker, wave=wave,
                      issued_at=now, deadline=now + self.lease_timeout)
        self.active[group] = lease
        return lease

    def expire(self, group: str) -> Optional[Lease]:
        """The owner stopped heartbeating; forfeit the lease."""
        lease = self.active.pop(group, None)
        if lease is not None:
            self.expired.append(lease)
        return lease

    def release(self, group: str) -> None:
        """The group completed (or was abandoned); drop its lease."""
        self.active.pop(group, None)


@dataclass
class FleetStats:
    """Aggregate fleet accounting, for reports/telemetry — never meta."""

    jobs: int = 0
    workers_alive: int = 0
    crashes: int = 0
    straggles: int = 0
    flaky_failures: int = 0
    reassignments: int = 0
    lease_expirations: int = 0
    speculative_launches: int = 0
    speculative_wins: int = 0
    blacklisted: List[str] = field(default_factory=list)
    exhausted_waves: int = 0

    @property
    def any_faults(self) -> bool:
        return bool(self.crashes or self.straggles or self.flaky_failures)

    def to_json(self) -> dict:
        return {
            "jobs": self.jobs,
            "workers_alive": self.workers_alive,
            "crashes": self.crashes,
            "straggles": self.straggles,
            "flaky_failures": self.flaky_failures,
            "reassignments": self.reassignments,
            "lease_expirations": self.lease_expirations,
            "speculative_launches": self.speculative_launches,
            "speculative_wins": self.speculative_wins,
            "blacklisted": list(self.blacklisted),
            "exhausted_waves": self.exhausted_waves,
        }

    def merge(self, other: "FleetStats") -> "FleetStats":
        """Accumulate *other* (a later rebuild's stats) into a new total."""
        merged = FleetStats(
            jobs=max(self.jobs, other.jobs),
            workers_alive=other.workers_alive,
            crashes=self.crashes + other.crashes,
            straggles=self.straggles + other.straggles,
            flaky_failures=self.flaky_failures + other.flaky_failures,
            reassignments=self.reassignments + other.reassignments,
            lease_expirations=self.lease_expirations + other.lease_expirations,
            speculative_launches=(
                self.speculative_launches + other.speculative_launches
            ),
            speculative_wins=self.speculative_wins + other.speculative_wins,
            exhausted_waves=self.exhausted_waves + other.exhausted_waves,
        )
        merged.blacklisted = list(self.blacklisted)
        for wid in other.blacklisted:
            if wid not in merged.blacklisted:
                merged.blacklisted.append(wid)
        return merged

    def summary_line(self) -> str:
        return (
            f"fleet jobs={self.jobs} alive={self.workers_alive} "
            f"crashes={self.crashes} straggles={self.straggles} "
            f"reassignments={self.reassignments} "
            f"speculative-wins={self.speculative_wins}/"
            f"{self.speculative_launches} "
            f"blacklisted={len(self.blacklisted)}"
        )


@dataclass
class WaveOutcome:
    """What one simulated wave dispatch produced."""

    index: int
    makespan: float = 0.0
    #: group digest -> simulated completion offset within the wave.
    completed: Dict[str, float] = field(default_factory=dict)
    #: group digest -> first worker the group was leased to.
    owners: Dict[str, str] = field(default_factory=dict)
    #: group digests left unfinished when the fleet was exhausted.
    pending: List[str] = field(default_factory=list)
    exhausted: bool = False


@dataclass
class _Attempt:
    digest: str
    cost: float
    not_before: float = 0.0        # reassignments wait for lease expiry
    excluded: Set[str] = field(default_factory=set)
    attempt: int = 0


class WorkerFleet:
    """The fleet: ``jobs`` simulated workers consuming command groups.

    Deterministic by construction: groups are assigned in LPT rank order
    (longest cost first, submission index breaking ties) to the worker
    that frees up first (worker index breaking ties), and every injector
    consultation happens in that assignment order.  A fault-free wave is
    therefore *exactly* :func:`repro.core.backend.scheduler.lpt_schedule`;
    a faulty one replays identically for the same seed.
    """

    def __init__(
        self,
        jobs: int = 1,
        injector=None,
        clock: Optional[SimulatedClock] = None,
        telemetry=NULL_TELEMETRY,
        speculate: bool = True,
        max_worker_failures: int = 3,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        misses_allowed: int = MISSES_ALLOWED,
    ) -> None:
        jobs = max(1, int(jobs))
        self.workers = [FleetWorker(wid=f"w{i}", index=i) for i in range(jobs)]
        self.injector = injector
        self.clock = clock or SimulatedClock()
        self.telemetry = telemetry
        self.monitor = HeartbeatMonitor(
            clock=self.clock,
            heartbeat_interval=heartbeat_interval,
            misses_allowed=misses_allowed,
        )
        self.speculate = speculate
        self.max_worker_failures = max(1, int(max_worker_failures))
        self.stats = FleetStats(jobs=jobs, workers_alive=jobs)

    # ------------------------------------------------------------------

    def active_workers(self) -> List[FleetWorker]:
        return [w for w in self.workers if w.active]

    def _consult(self, site: str, worker: FleetWorker, item: _Attempt) -> bool:
        if self.injector is None:
            return False
        key = f"{worker.wid}/{item.digest}"
        if item.attempt:
            key = f"{key}#{item.attempt}"
        return self.injector.worker_event(site, key)

    def _blacklist_check(self, worker: FleetWorker, wave: int) -> None:
        if worker.strikes >= self.max_worker_failures and not worker.blacklisted:
            worker.blacklisted = True
            self.stats.blacklisted.append(worker.wid)
            self.telemetry.event("fleet.worker_blacklisted", worker=worker.wid,
                                 wave=wave, strikes=worker.strikes)

    # ------------------------------------------------------------------

    def run_wave(
        self, index: int, entries: Sequence[Tuple[str, float]]
    ) -> WaveOutcome:
        """Simulate dispatching *entries* (``(digest, cost)`` pairs, in
        submission order) onto the surviving workers.

        Returns which groups completed and the wave makespan.  The caller
        performs the real execution of each completed group exactly once,
        in its own deterministic order — the fleet never touches the
        filesystem or the engine, so faults can reshape *time*, not
        *bytes*.  On exhaustion the outcome carries the unfinished
        digests; the caller raises :class:`FleetExhaustedError`.
        """
        outcome = WaveOutcome(index=index)
        crashes_before = self.stats.crashes
        free: Dict[str, float] = {w.wid: 0.0 for w in self.workers}
        wave_busy: Dict[str, float] = {w.wid: 0.0 for w in self.workers}
        # LPT rank order; requeued attempts join the back of the queue.
        ranked = sorted(
            range(len(entries)), key=lambda i: (-entries[i][1], i)
        )
        queue: List[_Attempt] = [
            _Attempt(digest=entries[i][0], cost=entries[i][1]) for i in ranked
        ]
        cursor = 0
        while cursor < len(queue):
            item = queue[cursor]
            cursor += 1
            active = self.active_workers()
            if not active:
                outcome.exhausted = True
                seen: Set[str] = set(outcome.completed)
                for leftover in [item] + queue[cursor:]:
                    if leftover.digest not in seen:
                        seen.add(leftover.digest)
                        outcome.pending.append(leftover.digest)
                break
            candidates = [w for w in active if w.wid not in item.excluded]
            if not candidates:
                # Every survivor already failed this group; relax the
                # exclusion rather than deadlocking — a retry on a
                # previously-failing worker may still succeed.
                candidates = active
            worker = min(candidates, key=lambda w: (free[w.wid], w.index))
            start = max(free[worker.wid], item.not_before)
            self.monitor.grant(item.digest, worker.wid,
                               self.clock.now + start, index)
            outcome.owners.setdefault(item.digest, worker.wid)

            if self._consult("worker.crash", worker, item):
                # The worker dies partway through; its heartbeat stops
                # and the lease expires a full timeout later — only then
                # does the group become eligible for reassignment.
                died_at = start + CRASH_FRACTION * item.cost
                worker.busy_seconds += died_at - start
                wave_busy[worker.wid] += died_at - start
                free[worker.wid] = died_at
                worker.alive = False
                self.monitor.expire(item.digest)
                detect = died_at + self.monitor.lease_timeout
                self.stats.crashes += 1
                self.stats.lease_expirations += 1
                self.stats.reassignments += 1
                self.telemetry.event("fleet.worker_crashed", worker=worker.wid,
                                     group=item.digest, wave=index)
                self.telemetry.event("fleet.lease_expired", worker=worker.wid,
                                     group=item.digest, wave=index)
                self.telemetry.event("fleet.reassigned", group=item.digest,
                                     wave=index, attempt=item.attempt + 1)
                queue.append(_Attempt(
                    digest=item.digest, cost=item.cost, not_before=detect,
                    excluded=item.excluded | {worker.wid},
                    attempt=item.attempt + 1,
                ))
                continue

            if self._consult("worker.flaky", worker, item):
                # The attempt burns the full cost, then fails; the worker
                # survives but earns a strike.
                end = start + item.cost
                worker.busy_seconds += item.cost
                wave_busy[worker.wid] += item.cost
                free[worker.wid] = end
                worker.strikes += 1
                self.monitor.release(item.digest)
                self.stats.flaky_failures += 1
                self.stats.reassignments += 1
                self.telemetry.event("fleet.worker_flaky", worker=worker.wid,
                                     group=item.digest, wave=index,
                                     strikes=worker.strikes)
                self._blacklist_check(worker, index)
                self.telemetry.event("fleet.reassigned", group=item.digest,
                                     wave=index, attempt=item.attempt + 1)
                queue.append(_Attempt(
                    digest=item.digest, cost=item.cost, not_before=end,
                    excluded=item.excluded | {worker.wid},
                    attempt=item.attempt + 1,
                ))
                continue

            finish = start + item.cost
            if self._consult("worker.straggle", worker, item):
                self.stats.straggles += 1
                slow_finish = start + STRAGGLE_FACTOR * item.cost
                detect = start + STRAGGLE_THRESHOLD * item.cost
                self.telemetry.event("fleet.straggler_detected", worker=worker.wid,
                                     group=item.digest, wave=index)
                finish = slow_finish
                if self.speculate:
                    others = [
                        w for w in self.active_workers()
                        if w.index != worker.index
                        and w.wid not in item.excluded
                    ]
                    if others:
                        dup = min(others,
                                  key=lambda w: (free[w.wid], w.index))
                        dup_start = max(free[dup.wid], detect)
                        dup_finish = dup_start + item.cost
                        if dup_finish < slow_finish:
                            # First completion wins; the loser is
                            # cancelled at the winner's finish time.
                            self.stats.speculative_launches += 1
                            self.stats.speculative_wins += 1
                            self.telemetry.event("fleet.speculation",
                                                 group=item.digest, wave=index,
                                                 worker=dup.wid, won=True)
                            dup.busy_seconds += dup_finish - dup_start
                            wave_busy[dup.wid] += dup_finish - dup_start
                            free[dup.wid] = dup_finish
                            dup.groups_completed += 1
                            finish = dup_finish
                            worker.busy_seconds += finish - start
                            wave_busy[worker.wid] += finish - start
                            free[worker.wid] = finish
                            self.monitor.release(item.digest)
                            outcome.completed[item.digest] = finish
                            continue
                        elif dup_start < slow_finish:
                            # Launched but the straggler beat it anyway.
                            self.stats.speculative_launches += 1
                            self.telemetry.event("fleet.speculation",
                                                 group=item.digest, wave=index,
                                                 worker=dup.wid, won=False)
                            dup.busy_seconds += slow_finish - dup_start
                            wave_busy[dup.wid] += slow_finish - dup_start
                            free[dup.wid] = slow_finish

            worker.busy_seconds += finish - start
            wave_busy[worker.wid] += finish - start
            free[worker.wid] = finish
            worker.groups_completed += 1
            self.monitor.release(item.digest)
            outcome.completed[item.digest] = finish

        outcome.makespan = max(free.values(), default=0.0)
        if outcome.exhausted:
            self.stats.exhausted_waves += 1
        self.stats.workers_alive = len(self.active_workers())
        if entries:
            for w in self.workers:
                if wave_busy[w.wid] > 0.0:
                    with self.telemetry.span(
                        "fleet.worker", worker=w.wid, wave=index,
                        busy_seconds=wave_busy[w.wid], alive=w.alive,
                    ):
                        pass
            # Per-wave accounting so the control plane's series see
            # crashes and fleet shrinkage as they happen, not only at
            # end-of-rebuild.
            m = self.telemetry.metrics
            wave_crashes = self.stats.crashes - crashes_before
            if wave_crashes:
                m.counter("fleet_worker_crashes_total").inc(wave_crashes)
            m.gauge("fleet_workers_alive").set(self.stats.workers_alive)
            m.gauge("fleet_blacklisted_workers").set(
                len(self.stats.blacklisted)
            )
            if outcome.makespan > 0.0:
                # Per-wave utilization: crash lease-timeouts and
                # straggler drag show up here wave by wave, which is
                # what the control plane's fleet-utilization series
                # (and its SLO rule) watch.
                self.telemetry.metrics.gauge("fleet_wave_utilization").set(
                    sum(wave_busy.values())
                    / (outcome.makespan * len(self.workers))
                )
        # Advance the fleet clock so later waves' leases carry absolute
        # simulated times.
        if outcome.makespan > 0.0:
            self.clock.sleep(outcome.makespan)
        return outcome

    def summary_line(self) -> str:
        return self.stats.summary_line()
