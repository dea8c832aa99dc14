import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from scenemon import (
    AbstractSceneGraph,
    Embedding,
    OracleSizeError,
    SceneObject,
    SceneValidationError,
    brute_force_embeddings,
    check_embedding,
    find_embeddings,
    iter_embeddings,
    make_csg,
    parse_asg,
    parse_object_model,
    pattern_order,
    serialize_object_model,
    sg_comparison,
)
from scenemon.matching import (
    candidate_pools,
    _require_same_om,
    _visit_order,
)
from conftest import halted_obstacle_scene
from randscene import random_instance

TWO_LANE_PATTERN = """
asg "in-some-lane" {
  node ego: Vehicle;
  node lane: Lane;
  ego ego;
  edge ego isIn lane;
}
"""


def _straddle_scene(om):
    nodes = [
        SceneObject("ego", "Vehicle", {"velocity": 1.0, "position": (0.0, 1.75)}),
        SceneObject("lane1", "Lane", {}),
        SceneObject("lane2", "Lane", {}),
    ]
    edges = [("ego", "isIn", "lane1"), ("ego", "isIn", "lane2")]
    return make_csg(om, 0.0, "ego", nodes, edges)


def test_interchangeable_lanes_give_two_embeddings(om):
    asg = parse_asg(TWO_LANE_PATTERN, om)
    found = find_embeddings(asg, _straddle_scene(om))
    assert [e.as_dict() for e in found] == [
        {"ego": "ego", "lane": "lane1"},
        {"ego": "ego", "lane": "lane2"},
    ]


def test_ego_anchoring(om):
    # a second vehicle also sits in the lane; ego must still map to ego
    nodes = [
        SceneObject("beta", "Vehicle", {}),
        SceneObject("ego", "Vehicle", {}),
        SceneObject("lane1", "Lane", {}),
    ]
    edges = [("ego", "isIn", "lane1"), ("beta", "isIn", "lane1")]
    csg = make_csg(om, 0.0, "ego", nodes, edges)
    asg = parse_asg(TWO_LANE_PATTERN, om)
    found = find_embeddings(asg, csg)
    assert len(found) == 1
    assert found[0]["ego"] == "ego"


def test_abstract_pattern_class_matches_subclasses(om):
    asg = parse_asg(
        'asg "ahead" { node ego: Vehicle; node p: TrafficParticipant; '
        'ego ego; edge p inFrontOf ego; }', om)
    nodes = [
        SceneObject("ego", "Vehicle", {}),
        SceneObject("s1", "Static", {}),
        SceneObject("v1", "Vehicle", {}),
        SceneObject("road", "Road", {}),
    ]
    edges = [("s1", "inFrontOf", "ego"), ("v1", "inFrontOf", "ego")]
    csg = make_csg(om, 0.0, "ego", nodes, edges)
    found = find_embeddings(asg, csg)
    assert sorted(e["p"] for e in found) == ["s1", "v1"]


def test_monomorphism_tolerates_extra_edges_induced_does_not(om):
    asg = parse_asg(
        'asg "pair" { node ego: Vehicle; node v: Vehicle; '
        'ego ego; edge v inFrontOf ego; }', om)
    nodes = [SceneObject("ego", "Vehicle", {}), SceneObject("v1", "Vehicle", {})]
    # the reverse edge is extra structure the pattern does not mention
    edges = [("v1", "inFrontOf", "ego"), ("ego", "inFrontOf", "v1")]
    csg = make_csg(om, 0.0, "ego", nodes, edges)
    assert len(find_embeddings(asg, csg)) == 1
    assert find_embeddings(asg, csg, induced=True) == []
    assert len(brute_force_embeddings(asg, csg)) == 1
    assert brute_force_embeddings(asg, csg, induced=True) == []


def test_deterministic_order(om):
    asg = parse_asg(TWO_LANE_PATTERN, om)
    csg = _straddle_scene(om)
    full = find_embeddings(asg, csg)
    assert find_embeddings(asg, csg) == full
    order = pattern_order(asg, csg)
    keys = [tuple(e[p] for p in order) for e in full]
    assert keys == sorted(keys)


def test_pattern_order_starts_at_ego(ahead_asg, scene_factory):
    csg = scene_factory()
    order = pattern_order(ahead_asg, csg)
    assert order[0] == "ego"
    assert set(order) == set(ahead_asg.pattern_nodes)


def test_pattern_order_ranks_by_distance_then_candidates(om):
    asg = parse_asg("""asg "order" {
      node ego: Vehicle; node lane: Lane; node obstacle: Static; node aa_other: Vehicle;
      ego ego;
      edge ego isIn lane; edge obstacle isIn lane; edge aa_other isIn lane;
    }""", om)
    nodes = [SceneObject(oid, cls, {}) for oid, cls in (
        ("ego", "Vehicle"), ("v1", "Vehicle"), ("v2", "Vehicle"), ("s1", "Static"),
        ("lane1", "Lane"), ("lane2", "Lane"), ("lane3", "Lane"))]
    csg = make_csg(om, 0.0, "ego", nodes, [])
    # lane is one edge from ego; of the two nodes two edges away, obstacle
    # has one candidate and aa_other three
    assert pattern_order(asg, csg) == ("ego", "lane", "obstacle", "aa_other")


def test_no_embedding_when_class_absent(ahead_asg, scene_factory):
    csg = scene_factory(obstacle_cls="Vehicle")
    assert find_embeddings(ahead_asg, csg) == []
    assert brute_force_embeddings(ahead_asg, csg) == []


def test_oracle_size_bound(om):
    nodes = [SceneObject("ego", "Vehicle", {})]
    nodes += [SceneObject(f"v{i}", "Vehicle", {}) for i in range(12)]
    edges = [(f"v{i}", "inFrontOf", "ego") for i in range(12)]
    csg = make_csg(om, 0.0, "ego", nodes, edges)  # 13 nodes
    asg = parse_asg(
        'asg "a" { node ego: Vehicle; node v: Vehicle; ego ego; '
        'edge v inFrontOf ego; }', om)
    with pytest.raises(OracleSizeError):
        brute_force_embeddings(asg, csg)
    assert len(find_embeddings(asg, csg)) == 12  # the search matcher has no bound


def test_check_embedding_accepts_real_and_flags_fakes(ahead_asg, scene_factory):
    csg = scene_factory()
    emb = find_embeddings(ahead_asg, csg)[0]
    assert check_embedding(ahead_asg, csg, emb) == []
    fake = type(emb).from_dict({"ego": "ego", "obstacle": "ego", "lane": "lane1"})
    defects = check_embedding(ahead_asg, csg, fake)
    assert defects  # not injective and class-incompatible
    missing = type(emb).from_dict({"ego": "ego"})
    assert check_embedding(ahead_asg, csg, missing)
    with pytest.raises(KeyError) as err:
        Embedding((("ego", "e"),))["x"]
    assert err.value.args == ("x",)


def test_check_embedding_names_each_defect(om, ahead_asg):
    emb = Embedding.from_dict({"ego": "ego", "obstacle": "obs", "lane": "lane1"})
    scene = halted_obstacle_scene(om)
    extra = make_csg(om, 0.0, "ego", scene.nodes.values(),
                     scene.edges | {("ego", "inFrontOf", "obs")})
    assert check_embedding(ahead_asg, extra, emb) == []
    assert check_embedding(ahead_asg, extra, emb, induced=True) == [
        "scene edge (ego, inFrontOf, obs) has no pattern counterpart"]
    swapped = Embedding.from_dict({"ego": "obs", "obstacle": "ego", "lane": "lane1"})
    assert "ego pattern node is not mapped to the scene ego" in check_embedding(
        ahead_asg, scene, swapped)
    ghost = Embedding.from_dict({"ego": "ego", "obstacle": "ghost", "lane": "lane1"})
    assert check_embedding(ahead_asg, scene, ghost) == [
        "obstacle mapped to unknown object ghost",
        "pattern edge (obstacle, inFrontOf, ego) not preserved",
        "pattern edge (obstacle, isIn, lane) not preserved"]


def test_distinct_object_models_rejected(om, scene_factory):
    other = parse_object_model(
        serialize_object_model(om) + "\nclass Bicycle extends TrafficParticipant;")
    asg = parse_asg(TWO_LANE_PATTERN, other)
    with pytest.raises(SceneValidationError):
        find_embeddings(asg, scene_factory())


def test_equal_object_models_accepted(om):
    clone = parse_object_model(serialize_object_model(om))
    asg = parse_asg(TWO_LANE_PATTERN, clone)
    assert len(find_embeddings(asg, _straddle_scene(om))) == 2


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_search_matches_exhaustive_reference(om, seed):
    rng = random.Random(seed)
    asg, csg = random_instance(rng, om)
    native = set(find_embeddings(asg, csg))
    reference = set(brute_force_embeddings(asg, csg))
    assert native == reference


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_search_matches_exhaustive_reference_induced(om, seed):
    rng = random.Random(seed)
    asg, csg = random_instance(rng, om)
    native = set(find_embeddings(asg, csg, induced=True))
    reference = set(brute_force_embeddings(asg, csg, induced=True))
    assert native == reference


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_induced_embeddings_are_a_subset(om, seed):
    rng = random.Random(seed)
    asg, csg = random_instance(rng, om)
    assert set(find_embeddings(asg, csg, induced=True)) <= set(find_embeddings(asg, csg))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_found_embedding_verifies(om, seed):
    rng = random.Random(seed)
    asg, csg = random_instance(rng, om)
    for emb in find_embeddings(asg, csg):
        assert check_embedding(asg, csg, emb) == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_verdict_agrees_with_embedding_existence(om, seed):
    rng = random.Random(seed)
    asg, csg = random_instance(rng, om)
    verdict = sg_comparison(asg, csg)
    if not find_embeddings(asg, csg):
        assert verdict.result.value == "violated"
        assert verdict.cause.kind.value == "no_embedding"


def _recursive_reference(asg, csg, *, induced=False, check=None):
    """The recursive form of the search, kept as the order reference."""
    _require_same_om(asg, csg)
    rank, p_out, p_in = asg.pattern_facts
    cand = candidate_pools(asg, csg)
    order = _visit_order(asg, rank, cand)
    edges = csg.edges
    mapping = {}
    used = set()

    def consistent(pid, oid):
        for rel, dsts in p_out[pid]:
            for q in dsts:
                if q in mapping and (oid, rel, mapping[q]) not in edges:
                    return False
        for rel, srcs in p_in[pid]:
            for q in srcs:
                if q in mapping and (mapping[q], rel, oid) not in edges:
                    return False
        if induced:
            for q, w in mapping.items():
                extra_out = csg.labels_between(oid, w) - {
                    rel for rel, dsts in p_out[pid] if q in dsts}
                if extra_out:
                    return False
                extra_in = csg.labels_between(w, oid) - {
                    rel for rel, srcs in p_in[pid] if q in srcs}
                if extra_in:
                    return False
        return True

    def search(depth):
        if depth == len(order):
            yield Embedding.from_dict(mapping)
            return
        pid = order[depth]
        for oid in cand[pid]:
            if oid in used:
                continue
            if not consistent(pid, oid):
                continue
            mapping[pid] = oid
            if check is None or check(pid, mapping):
                used.add(oid)
                yield from search(depth + 1)
                used.discard(oid)
            del mapping[pid]

    yield from search(0)


def _recording_check(salt, calls):
    """A deterministic check that rejects about 30% of (pid, oid) pairs and
    logs each call's arguments."""
    def check(pid, mapping):
        calls.append((pid, dict(mapping)))
        return zlib.crc32(f"{salt}:{pid}:{mapping[pid]}".encode()) % 10 >= 3
    return check


@pytest.mark.parametrize("induced", [False, True])
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_search_order_matches_recursive_reference(om, induced, seed):
    """Same embedding sequence as the recursive search, not only the same
    set, and with a check the same calls to it and the same survivors."""
    rng = random.Random(seed)
    asg, csg = random_instance(rng, om, max_nodes=16, edge_p=0.7)
    assert (list(iter_embeddings(asg, csg, induced=induced))
            == list(_recursive_reference(asg, csg, induced=induced)))
    got_calls, want_calls = [], []
    got = list(iter_embeddings(
        asg, csg, induced=induced, check=_recording_check(seed, got_calls)))
    want = list(_recursive_reference(
        asg, csg, induced=induced, check=_recording_check(seed, want_calls)))
    assert got == want
    assert got_calls == want_calls


def test_pattern_without_nodes_has_one_empty_embedding(om, scene_factory):
    asg = AbstractSceneGraph("empty", {}, frozenset(), "ego", (), om)
    assert list(iter_embeddings(asg, scene_factory())) == [Embedding(())]
