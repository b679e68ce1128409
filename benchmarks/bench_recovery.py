"""Durable-recovery benchmarks — WAL replay, resume ratio, failover.

Three tables into ``benchmarks/results/`` (plus a machine-readable
``recovery.json`` twin):

* **WAL replay vs queue depth** — wall-clock cost of ``restart()``
  (salvage + replay) as the number of admitted-but-unfinished requests
  in the log grows.  Replay is linear in record count and milliseconds
  even for deep queues.
* **Restart vs cold re-execution** — a crash after the first dispatches
  resumes through per-request rebuild journals and ``+coMre``
  manifests: the restarted run re-executes a small fraction of the
  compile nodes a cold rerun would.
* **Failover promotion** — wall-clock latency of electing/promoting a
  mirror and the simulated cost of reconciling the demoted origin back
  in as a mirror.

The WAL's own wall-clock cost on the serving path is measured by the
harness trace (``service.wal.self_ms_per_op`` on ``serve-burst``).
"""

import json
import os
import time

from repro.federation import FederatedRegistry
from repro.oci.blobs import Blob
from repro.oci.image import ImageConfig, Manifest
from repro.oci.layer import Layer, LayerEntry
from repro.reporting import render_table
from repro.service import AdaptationService, ServiceCrash
from repro.vfs import InlineContent

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SEED = 23
APP_POOL = ("minimd", "hpccg", "comd", "lulesh")

#: Accumulated by each bench, flushed to ``recovery.json`` by the last.
_PAYLOAD = {}


def _emit_json(name, payload):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _service(workers=8, queue_capacity=256):
    return AdaptationService(
        workers=workers, seed=SEED, queue_capacity=queue_capacity)


def _submit_burst(service, requests, window=None):
    service.add_tenant("acme", max_workers=8)
    for i in range(requests):
        at = (window * i / requests) if window else 0.01 * i
        service.submit("acme", APP_POOL[i % len(APP_POOL)], at=at)


def test_wal_replay_vs_queue_depth(emit):
    rows = []
    payload = []
    for depth in (4, 16, 64):
        service = _service()
        _submit_burst(service, depth)
        try:
            service.run(crash_at=0.5)
        except ServiceCrash:
            pass
        records = len(service.wal.records)
        begin = time.perf_counter()
        restarted = service.restart()
        replay_ms = (time.perf_counter() - begin) * 1e3
        open_requests = restarted.wal.open_request_count()
        rows.append((depth, records, open_requests, f"{replay_ms:.2f}"))
        payload.append({
            "queue_depth": depth,
            "wal_records": records,
            "open_requests": open_requests,
            "replay_ms": round(replay_ms, 3),
        })
        report = restarted.run()
        assert len(report.outcomes) == depth
    emit("recovery_replay", render_table(
        ("queue depth", "WAL records", "open requests", "replay (ms)"),
        rows))
    _PAYLOAD["replay_vs_depth"] = payload


def test_restart_vs_cold_reexecution(emit):
    # Cold baseline: the same workload, no crash, no prior state.
    cold = _service()
    _submit_burst(cold, 12, window=60.0)
    cold_report = cold.run()
    cold_nodes = sum(o.executed_nodes for o in cold_report.outcomes)
    assert cold_nodes > 0

    # Crash mid-run, then restart: checkpointed work is never redone.
    crashed = _service()
    _submit_burst(crashed, 12, window=60.0)
    try:
        crashed.run(crash_at=12.0)
    except ServiceCrash:
        pass
    restarted = crashed.restart()
    report = restarted.run()
    # Recovered outcomes carry their *pre-crash* node counts; only
    # non-recovered outcomes are work the restarted process did.
    restart_nodes = sum(o.executed_nodes for o in report.outcomes
                        if not o.recovered)
    recovered = sum(1 for o in report.outcomes if o.recovered)
    ratio = restart_nodes / cold_nodes
    table = render_table(("run", "executed nodes", "ratio vs cold"), [
        ("cold rerun", cold_nodes, "1.00"),
        ("crash+restart", restart_nodes, f"{ratio:.2f}"),
    ])
    emit("recovery_reexecution", table)
    assert ratio < 1.0, "restart re-executed at least as much as cold"
    _PAYLOAD["reexecution"] = {
        "cold_nodes": cold_nodes,
        "restart_nodes": restart_nodes,
        "ratio": round(ratio, 4),
        "recovered_outcomes": recovered,
    }


def _seeded_federation(mirrors=3):
    fed = FederatedRegistry()
    layer = Layer().add(LayerEntry.file(
        "/app/bin", InlineContent(b"payload-" * 2000), mode=0o755))
    config = ImageConfig(architecture="amd64", env=["PATH=/usr/bin"],
                         entrypoint=["/app/bin"])
    config.diff_ids.append(layer.digest)
    manifest = Manifest(config=config.descriptor(),
                        layers=[Blob.from_layer(layer).descriptor()])
    fed.push("app:dist", manifest, config, [layer])
    for i in range(mirrors):
        fed.add_mirror(f"edge-{i}")
        fed.sync_mirror(f"edge-{i}")
    return fed


def test_failover_promotion_latency(emit):
    rows = []
    payload = []
    for mirrors in (1, 3, 8):
        fed = _seeded_federation(mirrors=mirrors)
        begin = time.perf_counter()
        promotion = fed.fail_over()
        promote_ms = (time.perf_counter() - begin) * 1e3
        rejoin = fed.rejoin_demoted()
        rejoin_s = rejoin.simulated_seconds if rejoin is not None else 0.0
        rows.append((mirrors, promotion.elected, f"{promote_ms:.2f}",
                     f"{rejoin_s:.3f}"))
        payload.append({
            "mirrors": mirrors,
            "elected": promotion.elected,
            "promote_ms": round(promote_ms, 3),
            "rejoin_simulated_s": round(rejoin_s, 3),
        })
        assert fed.pull("app:dist") is not None
    emit("recovery_failover", render_table(
        ("mirrors", "elected", "promote (ms)", "rejoin sync (sim s)"),
        rows))
    _PAYLOAD["failover"] = payload
    # Last bench in the module: flush the machine-readable twin.
    _emit_json("recovery", _PAYLOAD)
