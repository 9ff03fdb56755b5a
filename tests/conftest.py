"""Shared fixtures for the test suite.

Expensive artefacts (ISP topologies, their embeddings, PR instances) are
session-scoped: they are immutable for the purposes of the tests that use
them, and rebuilding the Teleglobe embedding for every test would dominate
the suite's runtime.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import pytest

from repro.core.scheme import PacketRecycling
from repro.embedding.builder import embed
from repro.graph.multigraph import Graph
from repro.routing.tables import RoutingTables
from repro.topologies.abilene import abilene
from repro.topologies.example import example_fig1, example_fig1_embedding
from repro.topologies.geant import geant
from repro.topologies.teleglobe import teleglobe


#: How long the session waits at its end for child processes to exit.
CHILD_EXIT_GRACE_S = 10.0


def _live_descendants(root: int) -> Dict[int, str]:
    """Descendants of process ``root`` that still run, with their command
    lines (from ``/proc``; exited-but-unreaped zombies are not counted)."""
    children: Dict[int, List[int]] = {}
    zombies = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # The command name is parenthesised and may contain spaces.
                state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        children.setdefault(int(ppid), []).append(int(entry))
        if state == "Z":
            zombies.add(int(entry))
    found: Dict[int, str] = {}
    stack = [root]
    while stack:
        for pid in children.get(stack.pop(), ()):
            stack.append(pid)
            if pid in zombies:
                continue
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    cmdline = handle.read()
            except OSError:
                continue
            found[pid] = cmdline.replace(b"\0", b" ").decode(errors="replace").strip()
    return found


@pytest.fixture(scope="session", autouse=True)
def no_leaked_children():
    """Fail the session when the tests leave child processes running.

    Worker pools, daemons and subprocesses must all be gone by the end of
    the session; stragglers get :data:`CHILD_EXIT_GRACE_S` to exit.
    """
    yield
    if not os.path.isdir("/proc"):
        return
    deadline = time.monotonic() + CHILD_EXIT_GRACE_S
    leaked = _live_descendants(os.getpid())
    while leaked and time.monotonic() < deadline:
        time.sleep(0.1)
        leaked = _live_descendants(os.getpid())
    if leaked:
        listing = "; ".join(f"pid {pid}: {cmdline}" for pid, cmdline in sorted(leaked.items()))
        pytest.fail(f"the test session left child processes running: {listing}", pytrace=False)


@pytest.fixture(scope="session")
def fig1_graph() -> Graph:
    """The six-node example network of Figure 1(a)."""
    return example_fig1()


@pytest.fixture(scope="session")
def fig1_embedding():
    """The exact embedding (cycles c1–c4) of Figure 1(a)."""
    return example_fig1_embedding()


@pytest.fixture(scope="session")
def fig1_pr(fig1_embedding) -> PacketRecycling:
    """Packet Re-cycling on the paper's example network."""
    return PacketRecycling(fig1_embedding.graph, embedding=fig1_embedding)


@pytest.fixture(scope="session")
def abilene_graph() -> Graph:
    return abilene()

@pytest.fixture(scope="session")
def teleglobe_graph() -> Graph:
    return teleglobe()


@pytest.fixture(scope="session")
def geant_graph() -> Graph:
    return geant()


@pytest.fixture(scope="session")
def abilene_embedding(abilene_graph):
    return embed(abilene_graph, seed=0)


@pytest.fixture(scope="session")
def teleglobe_embedding(teleglobe_graph):
    return embed(teleglobe_graph, seed=0)


@pytest.fixture(scope="session")
def abilene_pr(abilene_graph, abilene_embedding) -> PacketRecycling:
    return PacketRecycling(abilene_graph, embedding=abilene_embedding)


@pytest.fixture(scope="session")
def teleglobe_pr(teleglobe_graph, teleglobe_embedding) -> PacketRecycling:
    return PacketRecycling(teleglobe_graph, embedding=teleglobe_embedding)


@pytest.fixture(scope="session")
def abilene_tables(abilene_graph) -> RoutingTables:
    return RoutingTables(abilene_graph)


@pytest.fixture()
def square_graph() -> Graph:
    """A 4-node cycle, the smallest useful 2-edge-connected test graph."""
    return Graph.from_edge_list([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], name="square")


@pytest.fixture()
def diamond_graph() -> Graph:
    """K4: planar, 3-connected, every face a triangle."""
    return Graph.from_edge_list(
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
        name="k4",
    )
