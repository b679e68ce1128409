"""Everything an adaptation discards is freed by reference counting, and a
build keeps only the images it names.

A reference cycle left behind per adaptation is work for the cyclic
garbage collector in every long-lived process that adapts images (the
adaptation service, a rebuild daemon).  So with the collector off, a cold
adaptation, an identical re-adaptation and a service burst must each leave
nothing for ``gc.collect()`` to find.  And a build's stage images, under
``__stage__`` refs nothing else holds, must not outlive the build."""

import collections
import dataclasses
import gc

import pytest

from repro.apps.specs import APPS
from repro.containers import ContainerEngine, EngineError
from repro.core.images import install_system_side_images, install_user_side_images
from repro.core.workflow import build_extended_image, system_side_adapt
from repro.images import install_ubuntu_base
from repro.service import AdaptationService
from repro.sysmodel import X86_CLUSTER

TENANTS = ("t0", "t1")


def _adapt(system, layout):
    return system_side_adapt(system, layout, X86_CLUSTER, jobs=2)


def _burst(service, apps):
    now = service.clock.now
    requests = [service.submit(TENANTS[k % len(TENANTS)], app, at=now + k)
                for k, app in enumerate(apps)]
    report = service.run()
    ids = {r.request_id for r in requests}
    statuses = [o.status for o in report.outcomes if o.request_id in ids]
    assert statuses == ["completed"] * len(apps)


@pytest.fixture(scope="module")
def warm():
    """A user engine, a system engine and a service, each warmed by one
    adaptation or burst, as a long-lived process would be."""
    user = ContainerEngine(arch=X86_CLUSTER.arch)
    system = ContainerEngine(arch=X86_CLUSTER.arch)
    install_user_side_images(user)
    install_system_side_images(system, X86_CLUSTER)
    layout, _ = build_extended_image(user, APPS["hpccg"])
    _adapt(system, layout)
    service = AdaptationService(workers=4, durable=True, seed=0)
    for tenant in TENANTS:
        service.add_tenant(tenant)
    _burst(service, ("hpccg", "minife", "hpccg"))
    return user, system, service, layout


def _cyclic_garbage(step):
    """The number of objects ``gc.collect()`` finds unreachable after
    *step* ran with the collector off, and their commonest types."""
    gc.collect()
    was_enabled = gc.isenabled()
    saved = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        step()
        found = gc.collect()
        types = collections.Counter(
            type(obj).__qualname__ for obj in gc.garbage[saved:])
        return found, types.most_common(12)
    finally:
        gc.set_debug(0)
        del gc.garbage[saved:]
        if was_enabled:
            gc.enable()


class TestNoCyclesPerAdaptation:
    def test_a_cold_adaptation(self, warm):
        user, system, _, _ = warm
        spec = dataclasses.replace(APPS["hpccg"], name="hpccg-refcount")

        def cold():
            layout, _ = build_extended_image(user, spec)
            _adapt(system, layout)

        found, types = _cyclic_garbage(cold)
        assert found == 0, f"{found} objects in cycles: {types}"

    def test_an_identical_readaptation(self, warm):
        _, system, _, layout = warm
        found, types = _cyclic_garbage(lambda: _adapt(system, layout))
        assert found == 0, f"{found} objects in cycles: {types}"

    def test_a_service_burst(self, warm):
        service = warm[2]
        found, types = _cyclic_garbage(
            lambda: _burst(service, ("hpccg", "minife", "lulesh")))
        assert found == 0, f"{found} objects in cycles: {types}"

    def test_a_discarded_service(self):
        """The service holds its circuit breakers and each breaker calls
        back into the service: held weakly, that hook is no cycle."""

        def serve_one_request():
            service = AdaptationService(workers=2, durable=True, seed=0)
            service.add_tenant(TENANTS[0])
            _burst(service, ("hpccg",))

        found, types = _cyclic_garbage(serve_one_request)
        assert found == 0, f"{found} objects in cycles: {types}"


CONTAINERFILE = """
FROM ubuntu:24.04 AS build
RUN mkdir -p /app && echo payload > /app/data.txt
FROM ubuntu:24.04 AS dist
COPY --from=build /app /app
"""


class TestBuildsKeepOnlyWhatTheyName:
    @pytest.fixture
    def engine(self):
        engine = ContainerEngine(arch="amd64")
        install_ubuntu_base(engine)
        return engine

    def test_build_extended_image_leaves_the_store_as_it_was(self, warm):
        user = warm[0]
        before = set(user.images)
        layout, dist_tag = build_extended_image(user, APPS["minife"])
        assert set(user.images) == before
        # The layout holds what the build produced.
        assert layout.resolve(dist_tag).layers

    def test_a_tagged_build_adds_only_its_tag(self, engine):
        before = set(engine.images)
        assert engine.build(CONTAINERFILE, tag="demo:1") == "demo:1"
        assert set(engine.images) == before | {"demo:1"}
        assert engine.image_filesystem("demo:1").read_text(
            "/app/data.txt") == "payload\n"

    def test_an_untagged_build_adds_only_the_ref_it_returns(self, engine):
        before = set(engine.images)
        ref = engine.build(CONTAINERFILE, target="build")
        assert ref.startswith("__stage__:build:")
        assert set(engine.images) == before | {ref}

    @pytest.mark.parametrize("build", ["build", "build_stages"])
    def test_a_failing_build_adds_nothing(self, engine, build):
        before = set(engine.images)
        with pytest.raises(EngineError, match="RUN"):
            getattr(engine, build)(
                CONTAINERFILE + "RUN definitely-not-a-command\n")
        assert set(engine.images) == before

    def test_build_stages_hands_its_refs_to_the_caller(self, engine):
        before = set(engine.images)
        refs = engine.build_stages(CONTAINERFILE)
        assert set(engine.images) == before | set(refs.values())
        for ref in refs.values():
            engine.remove_image(ref)
        assert set(engine.images) == before
