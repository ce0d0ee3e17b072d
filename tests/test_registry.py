"""The generic ``Registry[T]`` utility and its three instantiations.

The arbiter/engine/topology registries (and the lazy ``_known_*``
configuration fallbacks) all rebase on :class:`repro.registry.Registry`;
these tests pin the shared behaviour — duplicate rejection, ordered listing,
rich lookup errors — exactly once, plus the wiring that keeps the three
instantiations and the declared tuples in ``repro.config`` in sync.
"""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.config import (
    ARBITRATION_POLICIES,
    ENGINES,
    TOPOLOGIES,
    _known_arbitrations,
    _known_engines,
    _known_topologies,
    small_config,
)
from repro.errors import ConfigurationError
from repro.registry import Registry, registry_backed_names
from repro.sim.arbiter import ARBITER_REGISTRY
from repro.sim.scheduler import ENGINE_REGISTRY, EventScheduler, register_engine_path
from repro.sim.topology import TOPOLOGY_REGISTRY


def _fresh_python(script):
    """Run ``script`` in a fresh interpreter importing ``repro`` from this
    checkout, so no registry module is loaded before the script loads it."""
    source = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


#: The three registry modules ``repro.config`` validates names against.
_REGISTRY_MODULES = "('repro.sim.arbiter', 'repro.sim.scheduler', 'repro.sim.topology')"


class TestRegistry:
    def test_register_and_lookup(self):
        registry: Registry[int] = Registry("widget")
        registry.register("a", 1)
        registry.register("b", 2)
        assert registry.get("a") == 1
        assert registry.require("b") == 2
        assert registry.get("missing") is None
        assert registry.get("missing", 99) == 99

    def test_duplicate_rejected(self):
        registry: Registry[int] = Registry("widget")
        registry.register("a", 1)
        with pytest.raises(ConfigurationError):
            registry.register("a", 2)
        # The original entry survives the failed re-registration.
        assert registry.require("a") == 1

    def test_empty_name_rejected(self):
        registry: Registry[int] = Registry("widget")
        with pytest.raises(ConfigurationError):
            registry.register("", 1)

    def test_require_names_kind_and_alternatives(self):
        registry: Registry[int] = Registry("widget")
        registry.register("a", 1)
        with pytest.raises(ConfigurationError) as excinfo:
            registry.require("lottery")
        message = str(excinfo.value)
        assert "widget" in message
        assert "lottery" in message
        assert "a" in message

    def test_listing_preserves_registration_order(self):
        registry: Registry[int] = Registry("widget")
        for index, name in enumerate(("z", "a", "m")):
            registry.register(name, index)
        assert registry.names() == ("z", "a", "m")
        assert registry.values() == (0, 1, 2)
        assert registry.items() == (("z", 0), ("a", 1), ("m", 2))
        assert list(registry) == ["z", "a", "m"]
        assert len(registry) == 3
        assert "a" in registry and "lottery" not in registry

    def test_pop_supports_test_deregistration(self):
        registry: Registry[int] = Registry("widget")
        registry.register("a", 1)
        assert registry.pop("a") == 1
        assert "a" not in registry
        registry.register("a", 2)  # the name is reusable afterwards
        assert registry.require("a") == 2


class TestRegistryBackedNames:
    def test_reads_through_to_the_registry(self):
        names = registry_backed_names("repro.sim.arbiter", "registered_arbiters", ("stale",))
        assert names() == ARBITER_REGISTRY.names()

    def test_unimportable_module_falls_back(self):
        names = registry_backed_names("repro.no_such_module", "accessor", ("fallback",))
        assert names() == ("fallback",)

    def test_initialising_module_falls_back_until_its_accessor_exists(self, monkeypatch):
        module = types.ModuleType("repro_initialising_registry")
        monkeypatch.setitem(sys.modules, module.__name__, module)
        names = registry_backed_names(module.__name__, "registered", ("fallback",))
        assert names() == ("fallback",)
        monkeypatch.setattr(module, "registered", lambda: ("fallback", "runtime"), raising=False)
        assert names() == ("fallback", "runtime")

    def test_built_in_names_validate_without_loading_the_registries(self):
        result = _fresh_python(
            "import sys\n"
            "from repro.config import TopologyConfig, get_preset, small_config\n"
            "get_preset('ref')\n"
            "small_config(engine='replay')\n"
            "TopologyConfig(name='split_bus')\n"
            f"print([name for name in {_REGISTRY_MODULES} if name in sys.modules])\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_unknown_names_are_refused_without_loading_the_registries(self):
        result = _fresh_python(
            "import sys\n"
            "from repro.campaign.spec import CampaignSpec\n"
            "from repro.config import BusConfig, TopologyConfig, small_config\n"
            "from repro.errors import ReproError\n"
            "for build in (lambda: small_config(engine='warp'),\n"
            "              lambda: CampaignSpec(engine='warp'),\n"
            "              lambda: TopologyConfig(name='ring'),\n"
            "              lambda: TopologyConfig(mem_arbitration='lottery'),\n"
            "              lambda: BusConfig(arbitration='lottery')):\n"
            "    try:\n"
            "        build()\n"
            "    except ReproError as exc:\n"
            "        print(exc)\n"
            f"print([name for name in {_REGISTRY_MODULES} if name in sys.modules])\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "unsupported simulation engine: 'warp'",
            "unknown simulation engine 'warp'; registered: "
            "['stepped', 'event', 'codegen', 'replay']",
            "unsupported topology: 'ring'",
            "unsupported memory-queue arbitration policy: 'lottery'",
            "unsupported arbitration policy: 'lottery'",
            "[]",
        ]

    def test_runtime_registration_is_accepted_once_the_registry_loads(self):
        result = _fresh_python(
            "from repro.config import BusConfig\n"
            "from repro.errors import ConfigurationError\n"
            "try:\n"
            "    BusConfig(arbitration='lottery')\n"
            "except ConfigurationError as exc:\n"
            "    print(exc)\n"
            "from repro.sim.arbiter import RoundRobinArbiter, register_arbiter\n"
            "register_arbiter('lottery')(lambda ports, slot: RoundRobinArbiter(ports))\n"
            "print(BusConfig(arbitration='lottery').arbitration)\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "unsupported arbitration policy: 'lottery'",
            "lottery",
        ]


class TestInstantiations:
    """The three concrete registries sit on the shared utility and agree
    with the built-in tuples declared in ``repro.config``."""

    @pytest.mark.parametrize(
        "registry,declared",
        [
            (ARBITER_REGISTRY, ARBITRATION_POLICIES),
            (ENGINE_REGISTRY, ENGINES),
            (TOPOLOGY_REGISTRY, TOPOLOGIES),
        ],
        ids=["arbiters", "engines", "topologies"],
    )
    def test_built_ins_match_declared_tuples(self, registry, declared):
        assert isinstance(registry, Registry)
        assert registry.names() == declared

    def test_known_name_fallbacks_read_the_registries(self):
        assert _known_arbitrations() == ARBITER_REGISTRY.names()
        assert _known_engines() == ENGINE_REGISTRY.names()
        assert _known_topologies() == TOPOLOGY_REGISTRY.names()

    def test_engine_registered_by_path_resolves_on_first_use(self):
        register_engine_path("event_by_path", "repro.sim.scheduler:EventScheduler", "test")
        try:
            assert ENGINE_REGISTRY.names()[-1] == "event_by_path"
            assert small_config(engine="event_by_path").engine == "event_by_path"
            assert ENGINE_REGISTRY.require("event_by_path").cls is EventScheduler
        finally:
            ENGINE_REGISTRY.pop("event_by_path")
