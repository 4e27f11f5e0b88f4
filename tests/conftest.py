"""Every peel trace built during the suite is replayed against its graph."""

import pytest

from defekt import cli, colouring, experiments

from oracles import replay_forward_check


@pytest.fixture(autouse=True)
def _replay_every_peel_trace(monkeypatch):
    build = colouring.build_peel_trace

    def checked(g, vertex_limit, edge_limit):
        trace = build(g, vertex_limit, edge_limit)
        assert replay_forward_check(g, trace), "peel trace does not replay"
        return trace

    for module in (colouring, cli, experiments):
        monkeypatch.setattr(module, "build_peel_trace", checked)
