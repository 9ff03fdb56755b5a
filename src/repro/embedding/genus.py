"""Heuristic search for low-genus rotation systems of non-planar graphs.

Finding the minimum-genus embedding of an arbitrary graph is NP-hard (the
paper cites Mohar & Thomassen for this), but *any* rotation system of a
connected graph is a cellular embedding of *some* orientable surface — so
correctness of Packet Re-cycling never depends on optimality.  Genus only
affects path stretch: fewer faces means longer backup cycles.  The heuristics
below therefore maximise the number of faces:

* :func:`greedy_insertion_rotation` — embed a maximal planar subgraph exactly
  (DMP), then insert the remaining edges one by one, choosing the rotation
  positions of their two darts so that the resulting face count is maximal.
  Inserting an edge at two corners changes the face count by exactly one:
  if both corners lie on one face that face splits in two (+1), otherwise
  the two faces merge (-1).  Only the touched faces change, so each
  candidate position pair is scored by re-tracing just the orbits through
  the new darts (see :func:`_insertion_scores`); candidates are tried in
  row-major position order and only a strictly better score replaces the
  best so far, which keeps the chosen rotation deterministic.
* :func:`local_search_rotation` — hill climbing (optionally with simulated
  annealing style restarts) over single-dart relocation moves.
* :func:`minimise_genus` — the public entry point combining both.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import NotPlanar
from repro.graph.darts import Dart
from repro.graph.multigraph import Edge, Graph
from repro.embedding.faces import trace_faces
from repro.embedding.planarity import is_planar, planar_embedding
from repro.embedding.rotation import RotationSystem


class _IntRotation:
    """A rotation system over integer darts, for the scoring inner loops.

    Darts are numbered node by node in rotation order, followed by the
    ``pending`` darts (an edge about to be inserted), which start unplaced.
    ``rot[node]`` is the rotation at ``node`` as dart numbers, ``reverse[i]``
    the number of dart ``i``'s reversal and ``successor`` the flat rotation
    successor array (an unplaced dart is its own successor), kept in step
    with ``rot`` by :meth:`sync`.  The face permutation is
    ``i -> successor[reverse[i]]``, as in :meth:`RotationSystem.next_in_face`.
    Shared by :func:`embedding_score`, the local search and the insertion
    scores.
    """

    def __init__(self, rotation: RotationSystem, pending: Sequence[Dart] = ()) -> None:
        self.graph = graph = rotation.graph
        rotations = rotation.as_mapping()
        self.darts: List[Dart] = [dart for node in graph.nodes() for dart in rotations[node]]
        self.placed = len(self.darts)
        self.darts.extend(pending)
        index_of = {dart: number for number, dart in enumerate(self.darts)}
        self.reverse = [index_of[dart.reversed()] for dart in self.darts]
        self.rot = {
            node: [index_of[dart] for dart in rotations[node]] for node in graph.nodes()
        }
        #: Every edge with both darts placed, once.
        self.pairs = [
            (number, back)
            for number, back in enumerate(self.reverse[: self.placed])
            if number < back
        ]
        self.successor = list(range(len(self.darts)))
        for node in self.rot:
            self.sync(node)

    def sync(self, node: str) -> None:
        """Refresh the successor slots of ``node`` from ``rot[node]``."""
        successor = self.successor
        cycle = self.rot[node]
        length = len(cycle)
        for position in range(length):
            successor[cycle[position]] = cycle[(position + 1) % length]

    def faces(self) -> Tuple[List[int], int]:
        """Face number of every placed dart (-1 if unplaced) and the face count."""
        successor, reverse = self.successor, self.reverse
        face_of = [-1] * len(successor)
        faces = 0
        for start in range(self.placed):
            if face_of[start] >= 0:
                continue
            dart = start
            while face_of[dart] < 0:
                face_of[dart] = faces
                dart = successor[reverse[dart]]
            faces += 1
        return face_of, faces

    def score(self) -> Tuple[int, int]:
        """:func:`embedding_score` of the placed darts."""
        face_of, faces = self.faces()
        self_paired = 0
        for forward, backward in self.pairs:
            if face_of[forward] == face_of[backward]:
                self_paired += 1
        return (-self_paired, faces)

    def decode(self) -> RotationSystem:
        """The placed darts as a :class:`RotationSystem`."""
        darts = self.darts
        return RotationSystem(
            self.graph, {node: [darts[i] for i in cycle] for node, cycle in self.rot.items()}
        )


def self_paired_edge_count(rotation: RotationSystem) -> int:
    """Number of edges whose two darts lie on the *same* face.

    The paper calls this the "curved cell" case: the main cycle and the
    complementary cycle of the link coincide.  Such links are exactly the
    ones Packet Re-cycling cannot route around (the backup cycle of the
    failed link is the cycle the packet is already stuck on), so the genus
    heuristics treat eliminating them as more important than gaining an
    extra face.  Planar embeddings of 2-connected graphs never contain them.
    """
    faces = trace_faces(rotation)
    count = 0
    for edge in rotation.graph.edges():
        forward, backward = edge.darts()
        if faces.face_of(forward) is faces.face_of(backward):
            count += 1
    return count


def embedding_score(rotation: RotationSystem) -> Tuple[int, int]:
    """Quality of a rotation system, higher is better.

    Lexicographic: first minimise the number of self-paired (unprotectable)
    edges, then maximise the number of faces (i.e. minimise genus).
    """
    return _IntRotation(rotation).score()


def greedy_insertion_rotation(graph: Graph, seed: Optional[int] = None) -> RotationSystem:
    """Embed a maximal planar subgraph exactly, then insert leftover edges greedily.

    Every leftover edge is inserted at the pair of rotation positions (one
    per endpoint) that maximises the number of faces of the resulting
    embedding; ties are broken deterministically.
    """
    rng = random.Random(seed)
    planar_core, deferred = _maximal_planar_core(graph, rng if seed is not None else None)

    base = planar_embedding(planar_core)
    rotation = RotationSystem(graph, base.as_mapping())
    for edge_id in deferred:
        _insert_edge_best(rotation, graph, edge_id)
    return rotation


def _maximal_planar_core(
    graph: Graph, rng: Optional[random.Random]
) -> Tuple[Graph, List[int]]:
    """Grow a maximal planar connected subgraph of ``graph``.

    A spanning tree is added first so that the core stays connected (the
    planar embedder requires connectivity); the remaining edges are then
    added greedily in (optionally shuffled) id order as long as planarity is
    preserved.  Returns the core and the list of deferred edge ids.
    """
    from repro.graph.traversal import spanning_tree_edges

    tree = set(spanning_tree_edges(graph))
    core = graph.edge_subgraph(tree, name=f"{graph.name}-planar-core")
    remaining = [edge_id for edge_id in graph.edge_ids() if edge_id not in tree]
    if rng is not None:
        rng.shuffle(remaining)
    deferred: List[int] = []
    for edge_id in remaining:
        edge = graph.edge(edge_id)
        core.add_edge_with_id(edge_id, edge.u, edge.v, edge.weight)
        if not is_planar(core):
            core.remove_edge(edge_id)
            deferred.append(edge_id)
    return core, deferred


def _insert_edge_best(rotation: RotationSystem, graph: Graph, edge_id: int) -> None:
    """Insert both darts of ``edge_id`` at the score-maximising positions.

    The candidates are the (position at ``u``, position at ``v``) pairs of
    :func:`_insertion_scores`, in row-major order; the first candidate with
    the strictly highest :func:`embedding_score` wins.  Position
    ``len(rotation_at(u))`` is the same cyclic corner as position 0, so under
    this tie-break it could never win and is not scored.  Each candidate
    changes the face count by exactly one: +1 when both corners lie on one
    face (it splits), -1 when they lie on two faces (they merge); the
    scores are deltas over just those faces.
    """
    edge = graph.edge(edge_id)
    best_score: Optional[Tuple[int, int]] = None
    best_positions: Tuple[int, int] = (0, 0)
    for positions, score in _insertion_scores(rotation, edge):
        if best_score is None or score > best_score:
            best_score = score
            best_positions = positions
    index_u, index_v = best_positions
    rotation_u = rotation.rotation_at(edge.u)
    rotation_v = rotation.rotation_at(edge.v)
    dart_uv = edge.dart_from(edge.u)
    dart_vu = edge.dart_from(edge.v)
    rotation.set_rotation(edge.u, rotation_u[:index_u] + [dart_uv] + rotation_u[index_u:])
    rotation.set_rotation(edge.v, rotation_v[:index_v] + [dart_vu] + rotation_v[index_v:])


def _insertion_scores(
    rotation: RotationSystem, edge: Edge
) -> Iterator[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """``((index_u, index_v), score)`` of every way to insert ``edge``.

    ``score`` is the :func:`embedding_score` the rotation would have with
    ``u -> v`` at position ``index_u`` of the rotation at ``u`` and
    ``v -> u`` at ``index_v`` at ``v``; positions run over
    ``range(max(1, len(rotation_at(node))))``, row-major.

    A candidate is scored by a delta instead of a re-trace of the whole
    embedding.  Placing ``u -> v`` between rotation neighbours ``a, b`` at
    ``u`` re-routes only the face through the corner ``(a, b)``, and
    likewise at ``v``: if both corners lie on one face, that face splits in
    two (faces +1); if they lie on two faces, the faces merge (faces -1).
    Every other face keeps its darts, and an edge keeps its self-paired
    status unless both its darts lie on touched faces.  So the faces are
    traced once, with a self-paired count per face, and each candidate
    patches at most four successor slots, traces the orbits through the two
    new darts, scores ``(-(self_paired - touched_self_paired +
    new_self_paired), faces - touched + new_orbits)`` and restores the
    slots: O(length of the touched faces) per candidate.
    """
    ints = _IntRotation(rotation, pending=(edge.dart_from(edge.u), edge.dart_from(edge.v)))
    new_uv, new_vu = ints.placed, ints.placed + 1
    successor, reverse = ints.successor, ints.reverse
    face_of, faces = ints.faces()
    face_self_paired = [0] * faces
    for forward, backward in ints.pairs:
        if face_of[forward] == face_of[backward]:
            face_self_paired[face_of[forward]] += 1
    self_paired = sum(face_self_paired)

    # Orbit labels of the current candidate; labels only grow, so stale
    # labels of earlier candidates never match.
    orbit_of = [0] * len(successor)
    label = 0
    rot_u = ints.rot[edge.u]
    rot_v = ints.rot[edge.v]
    for index_u in range(len(rot_u) or 1):
        face_u = -1
        if rot_u:
            before_u = rot_u[index_u - 1]
            successor[before_u] = new_uv
            successor[new_uv] = rot_u[index_u]
            face_u = face_of[reverse[before_u]]
        for index_v in range(len(rot_v) or 1):
            face_v = -1
            if rot_v:
                before_v = rot_v[index_v - 1]
                successor[before_v] = new_vu
                successor[new_vu] = rot_v[index_v]
                face_v = face_of[reverse[before_v]]

            members: List[int] = []
            first = label + 1
            for start in (new_uv, new_vu):
                if orbit_of[start] >= first:
                    continue
                label += 1
                dart = start
                while orbit_of[dart] != label:
                    orbit_of[dart] = label
                    members.append(dart)
                    dart = successor[reverse[dart]]
            # Both darts of a self-paired edge are members: count them halved.
            new_self_paired = 0
            for dart in members:
                if orbit_of[reverse[dart]] == orbit_of[dart]:
                    new_self_paired += 1
            new_self_paired //= 2

            touched = 0
            touched_self_paired = 0
            for face in (face_u, face_v) if face_u != face_v else (face_u,):
                if face >= 0:
                    touched += 1
                    touched_self_paired += face_self_paired[face]
            yield (index_u, index_v), (
                -(self_paired - touched_self_paired + new_self_paired),
                faces - touched + label - first + 1,
            )
            if rot_v:
                successor[before_v] = rot_v[index_v]
        if rot_u:
            successor[before_u] = rot_u[index_u]


def repair_self_paired_edges(
    rotation: RotationSystem,
    graph: Graph,
    rounds: int = 4,
) -> RotationSystem:
    """Targeted repair: re-insert the darts of self-paired edges at better spots.

    For every edge whose two darts ended up on the same face, remove both
    darts from the rotation and re-insert them at the position pair with the
    best :func:`embedding_score`.  A few rounds usually eliminate all
    self-paired edges on ISP-scale graphs (when the graph structure allows
    it at all — a cut edge is self-paired in every embedding).
    """
    from repro.graph.connectivity import bridges

    unavoidable = set(bridges(graph))
    current = rotation.copy()
    for _round in range(rounds):
        faces = trace_faces(current)
        face_of = {dart: face for face in faces for dart in face.darts}
        offenders = []
        for edge in graph.edges():
            if edge.edge_id in unavoidable:
                continue
            forward, backward = edge.darts()
            if face_of.get(forward) is face_of.get(backward):
                offenders.append(edge.edge_id)
        if not offenders:
            break
        for edge_id in offenders:
            edge = graph.edge(edge_id)
            forward, backward = edge.darts()
            current.remove_dart(forward)
            current.remove_dart(backward)
            _insert_edge_best(current, graph, edge_id)
    return current


def local_search_rotation(
    graph: Graph,
    initial: Optional[RotationSystem] = None,
    iterations: int = 200,
    seed: Optional[int] = None,
) -> RotationSystem:
    """Hill-climbing over single-dart relocation moves, maximising face count.

    Starting from ``initial`` (or the adjacency-order rotation), repeatedly
    pick a dart and a new position within its node's rotation at random and
    keep the move if the number of faces does not decrease.  The search stops
    after ``iterations`` candidate moves.
    """
    rng = random.Random(seed)
    current = (initial or RotationSystem.from_adjacency_order(graph)).copy()
    movable = [node for node in graph.nodes() if graph.degree(node) >= 3]
    if not movable:
        return current

    # The hill climb scores thousands of candidate rotations, so the loop
    # runs on the integer encoding of the darts: a score is one O(darts)
    # orbit trace over plain lists.  The random draws (``choice`` indexes by
    # position, the int lists mirror the dart lists) and the score values are
    # identical to the object-level implementation, so the search visits and
    # returns exactly the same rotation system.
    ints = _IntRotation(current)
    rot = ints.rot
    current_score = ints.score()
    for _round in range(iterations):
        node = rng.choice(movable)
        cycle = rot[node]
        dart = rng.choice(cycle)
        new_index = rng.randrange(len(cycle))
        old_index = cycle.index(dart)
        del cycle[old_index]
        cycle.insert(new_index, dart)
        ints.sync(node)
        candidate_score = ints.score()
        if candidate_score >= current_score:
            current_score = candidate_score
        else:
            del cycle[cycle.index(dart)]
            cycle.insert(old_index, dart)
            ints.sync(node)
    return ints.decode()


def minimise_genus(
    graph: Graph,
    method: str = "auto",
    iterations: int = 200,
    seed: Optional[int] = None,
    restarts: int = 4,
) -> RotationSystem:
    """Best-effort low-genus rotation system of a connected graph.

    ``method``:

    * ``"auto"`` — exact planar embedding when the graph is planar, otherwise
      up to ``restarts`` rounds of greedy insertion + local search + repair,
      keeping the best result and stopping early once an embedding with no
      self-paired edges (a "strong" embedding, the kind PR needs for full
      single-failure coverage) has been found.
    * ``"planar"`` — exact planar embedding; raises :class:`NotPlanar` if
      impossible.
    * ``"greedy"`` — greedy edge insertion only.
    * ``"local-search"`` — local search from the adjacency-order rotation.
    * ``"adjacency"`` — the raw adjacency-order rotation (no optimisation);
      useful as a worst-case ablation point.
    """
    if method == "planar":
        return planar_embedding(graph)
    if method == "adjacency":
        return RotationSystem.from_adjacency_order(graph)
    if method == "greedy":
        return greedy_insertion_rotation(graph, seed=seed)
    if method == "local-search":
        return local_search_rotation(graph, iterations=iterations, seed=seed)
    if method != "auto":
        raise ValueError(f"unknown embedding method {method!r}")

    if is_planar(graph):
        return planar_embedding(graph)

    base_seed = 0 if seed is None else seed
    best: Optional[RotationSystem] = None
    best_score: Optional[Tuple[int, int]] = None

    def consider(candidate: RotationSystem) -> None:
        nonlocal best, best_score
        repaired = repair_self_paired_edges(candidate, graph)
        if embedding_score(repaired) >= embedding_score(candidate):
            candidate = repaired
        score = embedding_score(candidate)
        if best_score is None or score > best_score:
            best, best_score = candidate, score

    # A longer budget for the plain local search pass: it starts from a much
    # worse point (adjacency order) than the greedy-insertion pass does.
    plain_iterations = max(iterations, 25 * graph.number_of_edges())

    for attempt in range(max(1, restarts)):
        attempt_seed = base_seed + attempt
        greedy = greedy_insertion_rotation(graph, seed=attempt_seed)
        improved = local_search_rotation(
            graph, initial=greedy, iterations=iterations, seed=attempt_seed
        )
        consider(improved if embedding_score(improved) >= embedding_score(greedy) else greedy)
        if best_score is not None and best_score[0] == 0:
            # No self-paired edges: every link has a usable backup cycle.
            break
        # Second try within the same attempt: local search from scratch, which
        # escapes starting points where greedy insertion trapped itself.
        consider(local_search_rotation(graph, iterations=plain_iterations, seed=attempt_seed))
        if best_score is not None and best_score[0] == 0:
            break
    assert best is not None  # restarts >= 1 guarantees at least one candidate
    return best
