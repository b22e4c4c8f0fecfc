"""The central protocol registry: resolution, aliases, assembly."""

import pytest

from repro.protocols import registry
from repro.system.builder import build_machine
from repro.workloads.synthetic import ScriptedWorkload


def test_aliases_resolve_to_canonical_specs():
    assert registry.canonical_name("two_bit") == "twobit"
    assert registry.canonical_name("mesi") == "illinois"
    assert registry.canonical_name("censier") == "fullmap"
    assert registry.resolve("goodman") is registry.resolve("write_once")


def test_canonical_names_resolve_to_themselves():
    for name in registry.protocol_names():
        assert registry.canonical_name(name) == name


def test_unknown_protocol_lists_choices():
    with pytest.raises(KeyError, match="choose from"):
        registry.resolve("banana")


def test_compatible_pairs_use_registered_networks():
    pairs = registry.compatible_pairs()
    assert ("twobit", "bus") in pairs
    assert ("static", "xbar") in pairs
    assert ("illinois", "xbar") not in pairs  # snooping needs the bus
    for name, network in pairs:
        assert network in registry.resolve(name).networks


def test_default_network_is_first_listed():
    for spec in registry.PROTOCOLS.values():
        assert spec.default_network() == spec.networks[0]


def test_snooping_protocols_skip_endpoint_attach():
    assert not registry.attaches_endpoints("write_once")
    assert not registry.attaches_endpoints("mesi")  # via alias
    assert registry.attaches_endpoints("twobit")


@pytest.mark.parametrize("name", registry.protocol_names())
def test_every_spec_assembles_a_runnable_machine(name):
    """Each assemble function produces components the builder accepts."""
    from repro.config import MachineConfig

    spec = registry.resolve(name)
    config = MachineConfig(
        n_processors=2,
        n_modules=1,
        n_blocks=2,
        cache_sets=2,
        cache_assoc=2,
        protocol=name,
        network=spec.default_network(),
    )
    machine = build_machine(config, ScriptedWorkload([[], []]))
    assert len(machine.caches) == 2
    assert machine.config.protocol == name
    if registry.attaches_endpoints(name):
        assert machine.controllers
    else:
        assert machine.managers
