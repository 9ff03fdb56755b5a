"""Unit tests for the genus-minimisation heuristics."""

import pytest

from repro.embedding import genus
from repro.embedding.faces import euler_genus, trace_faces
from repro.embedding.genus import (
    embedding_score,
    greedy_insertion_rotation,
    local_search_rotation,
    minimise_genus,
    repair_self_paired_edges,
    self_paired_edge_count,
)
from repro.embedding.rotation import RotationSystem
from repro.embedding.validation import validate_embedding
from repro.topologies.corpus import parse_topology_spec, topology_set
from repro.topologies.generators import (
    complete_graph,
    k33_graph,
    k5_graph,
    petersen_graph,
    ring_graph,
    torus_grid_graph,
)


class TestGreedyInsertion:
    @pytest.mark.parametrize("graph_factory", [k5_graph, k33_graph])
    def test_kuratowski_graphs_reach_genus_one(self, graph_factory):
        graph = graph_factory()
        rotation = greedy_insertion_rotation(graph, seed=0)
        faces = validate_embedding(graph, rotation)
        assert euler_genus(graph, faces) == 1

    def test_planar_input_stays_planar(self):
        ring = ring_graph(6)
        rotation = greedy_insertion_rotation(ring, seed=1)
        faces = validate_embedding(ring, rotation)
        assert euler_genus(ring, faces) == 0

    def test_result_is_valid_rotation_system(self):
        graph = petersen_graph()
        rotation = greedy_insertion_rotation(graph, seed=3)
        validate_embedding(graph, rotation)


class TestLocalSearch:
    def test_never_decreases_score(self):
        graph = k5_graph()
        initial = RotationSystem.from_adjacency_order(graph)
        improved = local_search_rotation(graph, initial=initial, iterations=60, seed=0)
        assert embedding_score(improved) >= embedding_score(initial)

    def test_result_is_valid(self):
        graph = complete_graph(6)
        improved = local_search_rotation(graph, iterations=40, seed=5)
        validate_embedding(graph, improved)

    def test_degree_two_graph_returned_unchanged(self):
        ring = ring_graph(5)
        initial = RotationSystem.from_adjacency_order(ring)
        assert local_search_rotation(ring, initial=initial, iterations=10, seed=0) == initial


class TestRepairSelfPaired:
    def test_repair_does_not_invalidate(self):
        graph = petersen_graph()
        rotation = RotationSystem.from_adjacency_order(graph)
        repaired = repair_self_paired_edges(rotation, graph)
        validate_embedding(graph, repaired)
        assert self_paired_edge_count(repaired) <= self_paired_edge_count(rotation)

    def test_bridge_stays_self_paired(self):
        from repro.graph.multigraph import Graph

        graph = Graph.from_edge_list([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        rotation = minimise_genus(graph)
        # The bridge c--d has both darts on one face in every embedding.
        assert self_paired_edge_count(rotation) == 1


class TestMinimiseGenus:
    def test_planar_graph_gets_exact_embedding(self, abilene_graph):
        rotation = minimise_genus(abilene_graph)
        faces = trace_faces(rotation)
        assert euler_genus(abilene_graph, faces) == 0

    def test_non_planar_graph_gets_valid_low_genus_embedding(self):
        graph = k5_graph()
        rotation = minimise_genus(graph, seed=0)
        faces = validate_embedding(graph, rotation)
        assert euler_genus(graph, faces) == 1

    def test_teleglobe_embedding_has_no_self_paired_edges(self, teleglobe_graph):
        rotation = minimise_genus(teleglobe_graph, seed=0)
        validate_embedding(teleglobe_graph, rotation)
        assert self_paired_edge_count(rotation) == 0

    def test_torus_grid(self):
        torus = torus_grid_graph(3, 3)
        rotation = minimise_genus(torus, seed=1, iterations=100)
        faces = validate_embedding(torus, rotation)
        assert euler_genus(torus, faces) >= 1

    def test_methods_dispatch(self, abilene_graph):
        for method in ("auto", "planar", "greedy", "local-search", "adjacency"):
            rotation = minimise_genus(abilene_graph, method=method, iterations=20, seed=0)
            validate_embedding(abilene_graph, rotation)

    def test_unknown_method_raises(self, abilene_graph):
        with pytest.raises(ValueError):
            minimise_genus(abilene_graph, method="magic")


# ----------------------------------------------------------------------
# delta insertion scoring against the copy-and-rescore original
# ----------------------------------------------------------------------
def _reference_embedding_score(rotation):
    """The original embedding_score: a dict-based trace of every face."""
    successor = {}
    graph = rotation.graph
    for node in graph.nodes():
        cycle = rotation.rotation_at(node)
        length = len(cycle)
        for index, dart in enumerate(cycle):
            successor[dart] = cycle[(index + 1) % length]
    face_of = {}
    faces = 0
    for start in sorted(successor):
        if start in face_of:
            continue
        dart = start
        while dart not in face_of:
            face_of[dart] = faces
            dart = successor[dart.reversed()]
        faces += 1
    self_paired = 0
    for edge in graph.edges():
        forward, backward = edge.darts()
        forward_face = face_of.get(forward)
        if forward_face is not None and forward_face == face_of.get(backward):
            self_paired += 1
    return (-self_paired, faces)


def _reference_insert_edge_best(rotation, graph, edge_id):
    """The original insertion: copy the rotation and re-score every candidate
    with the original scorer."""
    edge = graph.edge(edge_id)
    dart_uv = edge.dart_from(edge.u)
    dart_vu = edge.dart_from(edge.v)

    best_score = None
    best_positions = (0, 0)
    rotation_u = rotation.rotation_at(edge.u)
    rotation_v = rotation.rotation_at(edge.v)
    positions_u = range(len(rotation_u) + 1) if rotation_u else range(1)
    positions_v = range(len(rotation_v) + 1) if rotation_v else range(1)
    for index_u in positions_u:
        for index_v in positions_v:
            candidate = rotation.copy()
            new_u = rotation_u[:index_u] + [dart_uv] + rotation_u[index_u:]
            new_v = rotation_v[:index_v] + [dart_vu] + rotation_v[index_v:]
            candidate.set_rotation(edge.u, new_u)
            candidate.set_rotation(edge.v, new_v)
            score = _reference_embedding_score(candidate)
            if best_score is None or score > best_score:
                best_score = score
                best_positions = (index_u, index_v)
    index_u, index_v = best_positions
    rotation.set_rotation(edge.u, rotation_u[:index_u] + [dart_uv] + rotation_u[index_u:])
    rotation.set_rotation(edge.v, rotation_v[:index_v] + [dart_vu] + rotation_v[index_v:])


EQUIVALENCE_SEEDS = (0, 7, 11)


def _insertion_rotations(graph, seed):
    """The two rotations edge insertion decides: greedy, and repaired local search."""
    return (
        genus.greedy_insertion_rotation(graph, seed=seed).as_mapping(),
        genus.repair_self_paired_edges(genus.local_search_rotation(graph, seed=seed), graph)
        .as_mapping(),
    )


def assert_insertion_matches_reference(spec, seeds=EQUIVALENCE_SEEDS):
    """The delta-scored insertion picks list-for-list the rotations of the
    copy-and-rescore reference on topology ``spec``, for every seed.

    Also run on the larger scale topologies by the nightly workflow.
    """
    graph = parse_topology_spec(spec).build()
    fast = [_insertion_rotations(graph, seed) for seed in seeds]
    original = genus._insert_edge_best
    genus._insert_edge_best = _reference_insert_edge_best
    try:
        reference = [_insertion_rotations(graph, seed) for seed in seeds]
    finally:
        genus._insert_edge_best = original
    for seed, ours, theirs in zip(seeds, fast, reference):
        assert ours == theirs, f"{spec} seed={seed}: insertion diverged from the reference"


@pytest.mark.parametrize("spec", topology_set("all") + ["fat-tree:k=6"])
def test_delta_insertion_matches_copy_and_rescore_reference(spec):
    assert_insertion_matches_reference(spec)


@pytest.mark.parametrize("spec", topology_set("all"))
def test_embedding_score_matches_reference(spec):
    graph = parse_topology_spec(spec).build()
    for rotation in (
        RotationSystem.from_adjacency_order(graph),
        local_search_rotation(graph, iterations=50, seed=0),
    ):
        assert embedding_score(rotation) == _reference_embedding_score(rotation)
