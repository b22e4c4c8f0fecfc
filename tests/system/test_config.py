"""Machine configuration validation."""

import pytest

from repro.config import (
    NETWORKS,
    MachineConfig,
    ProtocolOptions,
    TimingConfig,
)
from repro.protocols.registry import protocol_names


def test_defaults_are_valid():
    config = MachineConfig()
    assert config.protocol == "twobit"
    assert config.cache_blocks == 128  # the paper's cache size


def test_with_updates_functionally():
    config = MachineConfig()
    bigger = config.with_(n_processors=16)
    assert bigger.n_processors == 16
    assert config.n_processors == 4  # original untouched


def test_every_protocol_name_accepted():
    for protocol in protocol_names():
        network = "bus" if protocol in ("write_once", "illinois") else "xbar"
        MachineConfig(protocol=protocol, network=network)


def test_every_network_name_accepted():
    for network in NETWORKS:
        MachineConfig(network=network)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError, match="unknown protocol"):
        MachineConfig(protocol="mesi2000")


def test_unknown_network_rejected():
    with pytest.raises(ValueError, match="unknown network"):
        MachineConfig(network="hypercube")


def test_snoop_protocols_require_bus():
    with pytest.raises(ValueError, match="snooping"):
        MachineConfig(protocol="illinois", network="xbar")
    with pytest.raises(ValueError, match="snooping"):
        MachineConfig(protocol="write_once", network="delta")


def test_pairs_outside_the_registry_rejected():
    from repro.protocols.registry import compatible_pairs

    listed = set(compatible_pairs())
    for protocol in protocol_names():
        for network in NETWORKS:
            if (protocol, network) in listed:
                MachineConfig(protocol=protocol, network=network)
            else:
                with pytest.raises(ValueError, match="runs on network"):
                    MachineConfig(protocol=protocol, network=network)


def test_geometry_validation():
    with pytest.raises(ValueError):
        MachineConfig(n_processors=0)
    with pytest.raises(ValueError):
        MachineConfig(cache_sets=0)
    with pytest.raises(ValueError):
        MachineConfig(n_blocks=0)
    with pytest.raises(ValueError):
        MachineConfig(n_modules=0)


def test_timing_validation():
    with pytest.raises(ValueError):
        TimingConfig(net_latency=-1)
    TimingConfig(net_latency=0)  # zero is allowed


def test_options_validation():
    with pytest.raises(ValueError):
        ProtocolOptions(serialization="none")
    with pytest.raises(ValueError):
        ProtocolOptions(translation_buffer_entries=-1)
    with pytest.raises(ValueError):
        ProtocolOptions(tbuf_forced_hit_ratio=1.5)


def test_configs_are_immutable():
    config = MachineConfig()
    with pytest.raises(Exception):
        config.n_processors = 8  # type: ignore[misc]
