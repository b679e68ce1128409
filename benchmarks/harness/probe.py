"""A fixed reference routine that measures how fast the machine is now.

A shared 2-core sandbox does not run at one speed: a neighbour on the
same physical core slows every instruction by up to ~40% for seconds to
minutes at a time, and within one 12 s run that drift alone moves a
median latency by 5-20%.  The harness therefore runs this routine after
every op, outside the timed region, and rescales each op's wall-clock
latency by how much slower the routine ran around that op than it does
at :data:`REFERENCE_S`.  The routine exercises what the system under
test spends its time on (dict and list churn, JSON encode/decode,
sha256, path strings, sorting) and never changes, so it is a yardstick
of machine speed only: a slower commit stays slower after rescaling.
Set-up time is rescaled the same way, by probes taken on either side of
it.

The speed around an op is the mean *speed* of the probes near it, i.e.
the harmonic mean of their durations.  A neighbour's bursts are shorter
than most ops, so an op sees the average speed over its run; the median
probe instead reads a half-busy stretch as fully busy and over-corrects
it.  On repeated runs on the reference machine the harmonic mean left
less run-to-run spread than the median or the plain mean (README.md).
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from typing import List, Sequence

#: The routine's mean-speed duration on the reference machine (a 2-vCPU
#: sandbox, CPython 3.11) in a quiet minute.  Rescaled times are "as if
#: the machine ran at this speed throughout".
REFERENCE_S = 0.00075

#: Probes on each side of an op that set that op's speed.
WINDOW = 10

_PAYLOAD = {
    f"node{i:03d}": {
        "path": f"/usr/lib/x86_64-linux-gnu/lib{i:03d}/obj_{i % 13}.so",
        "size": i * 97,
        "deps": [f"lib{j}" for j in range(i % 7)],
    }
    for i in range(200)
}


def _routine() -> int:
    text = json.dumps(_PAYLOAD, sort_keys=True)
    hashlib.sha256(text.encode("utf-8")).hexdigest()
    tree = json.loads(text)
    index: dict = {}
    for path in sorted(node["path"] for node in tree.values()):
        level = index
        for part in path.split("/")[1:]:
            level = level.setdefault(part, {})
    return len(index)


def probe_s() -> float:
    """Wall-clock seconds one run of the reference routine takes now.

    The cyclic collector is held off while it runs, so neither the size
    of the program's heap nor its collector settings reach the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _routine()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(probes: Sequence[float]) -> float:
    """How much faster the reference machine is than the machine these
    probes ran on: multiply a time measured among them by this."""
    return REFERENCE_S / statistics.harmonic_mean(probes)


def speed_factors(probes: Sequence[float]) -> List[float]:
    """Per-op rescaling factors, one per probe: the :func:`speed_factor`
    of the probes within :data:`WINDOW` ops of each op."""
    return [speed_factor(probes[max(0, i - WINDOW): i + WINDOW + 1])
            for i in range(len(probes))]
