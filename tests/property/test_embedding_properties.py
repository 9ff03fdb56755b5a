"""Property-based tests for the embedding machinery."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding.builder import CellularEmbedding
from repro.embedding.faces import euler_genus, trace_faces
from repro.embedding.genus import _insertion_scores, embedding_score, minimise_genus
from repro.embedding.planarity import planar_embedding
from repro.embedding.rotation import RotationSystem
from repro.embedding.serialization import embedding_from_dict, embedding_to_dict
from repro.embedding.validation import validate_embedding
from repro.graph.multigraph import Graph

from tests.property.strategies import connected_graphs, planar_two_connected_graphs


@settings(max_examples=25, deadline=None)
@given(graph=connected_graphs())
def test_any_rotation_system_is_a_valid_cellular_embedding(graph):
    """Every rotation system of a connected graph traces into a consistent
    face set satisfying the two-traversals-per-edge invariant and Euler's
    formula — the fact Section 3 relies on."""
    rotation = RotationSystem.from_adjacency_order(graph)
    faces = validate_embedding(graph, rotation)
    assert euler_genus(graph, faces) >= 0


@settings(max_examples=25, deadline=None)
@given(graph=planar_two_connected_graphs())
def test_planar_embedder_always_reaches_genus_zero(graph):
    rotation = planar_embedding(graph)
    faces = validate_embedding(graph, rotation)
    assert euler_genus(graph, faces) == 0
    # 2-connected planar embeddings have simple face boundaries, which is the
    # structural property PR's backup cycles rely on.
    assert all(len(set(face.nodes)) == len(face.nodes) for face in faces)


@settings(max_examples=20, deadline=None)
@given(graph=connected_graphs(max_nodes=8, max_extra_edges=6))
def test_minimise_genus_never_does_worse_than_adjacency_order(graph):
    baseline = trace_faces(RotationSystem.from_adjacency_order(graph))
    optimised = trace_faces(minimise_genus(graph, iterations=60, seed=1))
    assert len(optimised) >= len(baseline)


@settings(max_examples=20, deadline=None)
@given(graph=planar_two_connected_graphs(max_rows=3, max_cols=4))
def test_serialization_round_trip(graph):
    embedding = CellularEmbedding(graph, planar_embedding(graph))
    rebuilt = embedding_from_dict(embedding_to_dict(embedding))
    assert rebuilt.rotation == embedding.rotation
    assert rebuilt.number_of_faces == embedding.number_of_faces


@settings(max_examples=25, deadline=None)
@given(graph=connected_graphs())
def test_face_permutation_is_a_bijection_on_darts(graph):
    """next_in_face is a permutation: every dart has exactly one successor and
    one predecessor along its face."""
    rotation = RotationSystem.from_adjacency_order(graph)
    darts = rotation.darts()
    successors = [rotation.next_in_face(dart) for dart in darts]
    assert sorted(successors) == sorted(darts)


# ----------------------------------------------------------------------
# delta scoring of edge insertion
# ----------------------------------------------------------------------
def _candidate(rotation, edge, index_u, index_v):
    """``rotation`` with ``edge`` materialised at the given positions."""
    candidate = rotation.copy()
    for node, index in ((edge.u, index_u), (edge.v, index_v)):
        darts = candidate.rotation_at(node)
        candidate.set_rotation(node, darts[:index] + [edge.dart_from(node)] + darts[index:])
    return candidate


def _assert_delta_scores_match(rotation, edge):
    """Every delta score equals embedding_score of the materialised candidate,
    over exactly the row-major positions; returns the face-count changes."""
    scored = list(_insertion_scores(rotation, edge))
    degree_u = rotation.degree(edge.u)
    degree_v = rotation.degree(edge.v)
    assert [positions for positions, _ in scored] == [
        (index_u, index_v)
        for index_u in range(max(1, degree_u))
        for index_v in range(max(1, degree_v))
    ]
    for (index_u, index_v), score in scored:
        assert score == embedding_score(_candidate(rotation, edge, index_u, index_v))
    faces = embedding_score(rotation)[1]
    return {score[1] - faces for _, score in scored}


def _rotation_without(graph, missing, seed):
    """A random rotation system of ``graph`` minus the edges in ``missing``."""
    rng = random.Random(seed)
    rotations = {}
    for node in graph.nodes():
        darts = [dart for dart in graph.darts_out(node) if dart.edge_id not in missing]
        rng.shuffle(darts)
        rotations[node] = darts
    return RotationSystem(graph, rotations)


@settings(max_examples=60, deadline=None)
@given(
    graph=connected_graphs(max_nodes=9, max_extra_edges=8),
    data=st.data(),
)
def test_delta_insertion_scores_equal_full_rescore(graph, data):
    """Random rotation of a random subgraph, plus one missing edge: the delta
    score of every insertion candidate is the full embedding_score."""
    edge_ids = graph.edge_ids()
    inserted = data.draw(st.sampled_from(edge_ids))
    others = [edge_id for edge_id in edge_ids if edge_id != inserted]
    missing = set(data.draw(st.lists(st.sampled_from(others), unique=True))) if others else set()
    rotation = _rotation_without(graph, missing | {inserted}, data.draw(st.integers(0, 10_000)))
    changes = _assert_delta_scores_match(rotation, graph.edge(inserted))
    # One edge at two corners: a face splits (+1), two faces merge (-1), or
    # an endpoint had no darts and the edge only grows a face (0, or +1 for
    # the face of a lone edge).
    assert changes <= {-1, 0, 1}


def test_delta_insertion_split_and_merge():
    """A chord of a square: corners on one face split it, corners on the inner
    and the outer face merge them."""
    graph = Graph.from_edge_list([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])
    chord = graph.edge(graph.edge_ids()[-1])
    rotation = _rotation_without(graph, {chord.edge_id}, seed=0)
    assert _assert_delta_scores_match(rotation, chord) == {1, -1}


def test_delta_insertion_degree_one_endpoint():
    """Closing a path a-b-c into a triangle: both endpoints have one dart."""
    graph = Graph.from_edge_list([("a", "b"), ("b", "c"), ("c", "a")])
    closing = graph.edge(graph.edge_ids()[-1])
    rotation = _rotation_without(graph, {closing.edge_id}, seed=0)
    assert rotation.degree("a") == rotation.degree("c") == 1
    assert _assert_delta_scores_match(rotation, closing) == {1}


def test_delta_insertion_empty_rotations():
    """An endpoint with no darts yet, and an edge into an empty rotation."""
    graph = Graph.from_edge_list([("a", "b"), ("b", "c")])
    first, second = (graph.edge(edge_id) for edge_id in graph.edge_ids())
    pendant = _rotation_without(graph, {second.edge_id}, seed=0)
    assert pendant.degree("c") == 0
    assert _assert_delta_scores_match(pendant, second) == {0}
    empty = _rotation_without(graph, {first.edge_id, second.edge_id}, seed=0)
    assert list(_insertion_scores(empty, first)) == [((0, 0), (-1, 1))]
    assert _assert_delta_scores_match(empty, first) == {1}
