"""The pieces every experiment builder shares: the table formatter and
the topology helpers. The builders themselves are exercised row by row
in ``test_manifest.py``."""

from repro.bench.table import format_table


def test_format_table_alignment():
    rows = [{"a": 1, "bb": 2.34567}, {"a": 100, "bb": 0.5}]
    text = format_table(rows)
    lines = text.splitlines()
    assert lines[0].startswith("a")
    assert "2.346" in text
    assert format_table([]) == "(no rows)"


def test_topology_helpers():
    from repro.bench.topologies import wan_site

    sim, topo, lans = wan_site(n_lans=3, hosts_per_lan=2)
    assert len(lans) == 3
    # Cross-LAN routing works through the gateways.
    assert topo.route("l0h1", "l2h1") is not None
    # Non-gateway hosts are not on the WAN.
    assert lans[0][1].nic_on_segment("wan") is None
    assert lans[0][0].nic_on_segment("wan") is not None
