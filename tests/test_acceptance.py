"""Acceptance criteria, one test per criterion (C1..C8).

Each test prints a single "ACCEPTANCE Cn (...): PASS" line when its
criterion holds, so a verbose run reads as a per-criterion checklist.
Tolerances and budgets are pinned in the assertions themselves.
"""

import random
import statistics
import string
import time

import pytest

from scenemon import (
    Cause,
    CauseKind,
    Embedding,
    PhaseAutomaton,
    Result,
    SceneMonError,
    SceneObject,
    SpecSyntaxError,
    Verdict,
    bind,
    brute_force_embeddings,
    builtin_asgs,
    evaluate,
    find_embeddings,
    generate_trace,
    load_bundled_asg,
    make_csg,
    overtake_script,
    parse_asg,
    pull_out_script,
    serialize_asg,
    sg_comparison,
)
from scenemon.cli import main
from scenemon.dsl import _ASSET_FILES, _bundled_text
from scenemon.monitor import reference_verdict
from scenemon.scenarios import build_bench_scene

from conftest import halted_obstacle_scene
from randscene import random_instance


# -- C1: search matcher vs exhaustive reference ----------------------------


def test_c1_oracle_equivalence(om):
    start = time.perf_counter()
    rng = random.Random(20260822)
    divergences = []
    for i in range(1000):
        asg, csg = random_instance(rng, om)
        native = set(find_embeddings(asg, csg))
        reference = set(brute_force_embeddings(asg, csg))
        if native != reference:
            divergences.append(f"case {i}: embedding sets differ")
            continue
        if sg_comparison(asg, csg) != reference_verdict(asg, csg):
            divergences.append(f"case {i}: verdicts differ")
    elapsed = time.perf_counter() - start
    assert divergences == []
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    print("ACCEPTANCE C1 (oracle equivalence, 1000 cases): PASS")


def test_c1_pushdown_matches_oracle(om, monkeypatch):
    """Pruned verdicts equal the exhaustive reference across epsilon and
    induced matching, with the pruned search taken often enough to count."""
    import scenemon.monitor

    pruned_searches = []
    unpruned = scenemon.monitor.iter_embeddings

    def counting(asg, csg, **kwargs):
        if kwargs.get("check") is not None:
            pruned_searches.append(asg.name)
        return unpruned(asg, csg, **kwargs)

    monkeypatch.setattr(scenemon.monitor, "iter_embeddings", counting)
    rng = random.Random(20261017)
    mismatches = []
    results = set()
    for i in range(500):
        asg, csg = random_instance(rng, om)
        for epsilon in (0.0, 0.5):
            for induced in (False, True):
                got = sg_comparison(asg, csg, epsilon=epsilon, induced=induced)
                want = reference_verdict(asg, csg, epsilon, induced)
                results.add((got.result, got.cause and got.cause.kind))
                if got != want:
                    mismatches.append(f"case {i} epsilon={epsilon} "
                                      f"induced={induced}: {got} != {want}")
    assert mismatches == []
    assert len(pruned_searches) > 100
    assert {(Result.SATISFIED, None),
            (Result.VIOLATED, CauseKind.NO_EMBEDDING),
            (Result.VIOLATED, CauseKind.PREDICATE_FAILED),
            (Result.ERROR, CauseKind.MISSING_ATTRIBUTE)} <= results


# -- C2: the bundled braking-trigger property ------------------------------


def test_c2_bundled_property_fixture(om, ahead_asg):
    sat = sg_comparison(ahead_asg, halted_obstacle_scene(om))
    assert sat == Verdict(
        0.0, "obstacle-ahead", Result.SATISFIED,
        witness=Embedding.from_dict(
            {"ego": "ego", "lane": "lane1", "obstacle": "obs"}))

    moving = sg_comparison(ahead_asg, halted_obstacle_scene(om, obstacle_speed=1.0))
    assert moving == Verdict(0.0, "obstacle-ahead", Result.VIOLATED,
                             cause=Cause.predicate_failed(0))

    far = sg_comparison(ahead_asg, halted_obstacle_scene(om, gap=25.0))
    assert far == Verdict(0.0, "obstacle-ahead", Result.VIOLATED,
                          cause=Cause.predicate_failed(1))

    wrong_class = sg_comparison(
        ahead_asg, halted_obstacle_scene(om, obstacle_cls="Vehicle"))
    assert wrong_class == Verdict(0.0, "obstacle-ahead", Result.VIOLATED,
                                  cause=Cause.no_embedding())
    print("ACCEPTANCE C2 (bundled property fixture): PASS")


# -- C3: pull-out golden trace ---------------------------------------------


def test_c3_pull_out_golden_trace(om):
    start = time.perf_counter()
    script = pull_out_script()
    trace = generate_trace(script, om)
    assert len(trace) <= 200
    asgs = builtin_asgs("P1", om)
    pa = PhaseAutomaton(script.phases)
    for csg in trace:
        pa = pa.step({a.name: sg_comparison(a, csg) for a in asgs})
    assert pa.completed
    assert pa.violations == 0

    p12 = load_bundled_asg("P1-2", om)
    perturbed = generate_trace(pull_out_script({"rear_gap": -5.0}), om)
    hits = [
        sg_comparison(p12, csg)
        for csg in perturbed
        if 3.0 <= csg.timestamp < 5.0
    ]
    assert hits
    assert all(
        v.result is Result.VIOLATED
        and v.cause == Cause.predicate_failed(0)
        for v in hits
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"pull-out check took {elapsed:.2f}s"
    print("ACCEPTANCE C3 (pull-out trace, nominal and perturbed): PASS")


# -- C4: overtake golden trace ---------------------------------------------


OVERTAKE_TARGETS = [
    ("approach_gap", -1.0, "P2-1", 0),
    ("rear_gap", -20.0, "P2-2", 0),
    ("pass_gap", -1.0, "P2-3", 1),
    ("return_gap", -10.0, "P2-4", 1),
]


def _in_segment(script, name, t):
    start, end = script.segment_of(name)
    if name == script.phases[-1]:
        return start <= t <= end
    return start <= t < end


def _failed_predicate(v):
    return v.cause is not None and v.cause.kind is CauseKind.PREDICATE_FAILED


def test_c4_overtake_golden_trace(om):
    start = time.perf_counter()
    script = overtake_script()
    asgs = builtin_asgs("P2", om)
    pa = PhaseAutomaton(script.phases)
    nominal = generate_trace(script, om)
    for csg in nominal:
        pa = pa.step({a.name: sg_comparison(a, csg) for a in asgs})
    assert pa.completed
    assert pa.violations == 0

    # nominal: every phase is satisfied somewhere in its own segment and
    # never fails a predicate there
    for asg in asgs:
        own = [sg_comparison(asg, csg) for csg in nominal
               if _in_segment(script, asg.name, csg.timestamp)]
        assert any(v.satisfied for v in own), asg.name
        assert not any(_failed_predicate(v) for v in own), asg.name

    for key, offset, target, pred_index in OVERTAKE_TARGETS:
        trace = generate_trace(overtake_script({key: offset}), om)
        for asg in asgs:
            own = [sg_comparison(asg, csg) for csg in trace
                   if _in_segment(script, asg.name, csg.timestamp)]
            failures = [v for v in own if _failed_predicate(v)]
            if asg.name == target:
                assert failures, (key, target)
                assert all(
                    v.result is Result.VIOLATED
                    and v.cause == Cause.predicate_failed(pred_index)
                    for v in failures
                ), (key, target)
            else:
                assert failures == [], (key, asg.name)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"overtake check took {elapsed:.2f}s"
    print("ACCEPTANCE C4 (overtake trace, nominal and 4 perturbations): PASS")


# -- C5: boundary exactness ------------------------------------------------


GE_ASG = ('asg "ge" { node ego: Vehicle; node s: Static; node lane: Lane; '
          'ego ego; edge ego isIn lane; edge s isIn lane; '
          'assert dist(ego, s) >= 15; }')


def test_c5_boundary_exactness(om, ahead_asg):
    ge = parse_asg(GE_ASG, om)

    def ge_scene(gap):
        return halted_obstacle_scene(om, gap=gap)

    # >= holds at exactly the threshold, fails one ulp-ish step below
    emb = find_embeddings(ge, ge_scene(15.0))[0]
    assert evaluate(ge.predicates, bind(emb, ge_scene(15.0))) == (True, None)
    below = ge_scene(14.999999999)
    emb = find_embeddings(ge, below)[0]
    assert evaluate(ge.predicates, bind(emb, below)) == (False, 0)

    # (0, 20]: the upper bound is inclusive, the lower exclusive
    assert sg_comparison(ahead_asg, halted_obstacle_scene(om, gap=20.0)).satisfied
    just_over = sg_comparison(ahead_asg, halted_obstacle_scene(om, gap=20.000000001))
    assert just_over.cause == Cause.predicate_failed(1)
    zero = sg_comparison(ahead_asg, halted_obstacle_scene(om, gap=0.0))
    assert zero.cause == Cause.predicate_failed(1)
    print("ACCEPTANCE C5 (boundary exactness, no epsilon): PASS")


# -- C6: determinism -------------------------------------------------------


def test_c6_monitor_determinism(tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    assert main(["gen", "--scenario", "P2", "--out", str(stream)]) == 0
    outputs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        code = main(["monitor", str(stream), "--phases", "P2",
                     "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    assert outputs[0]  # non-empty
    print("ACCEPTANCE C6 (byte-identical repeated monitoring): PASS")


# -- C7: property-spec language --------------------------------------------


NOISE_TOKENS = [
    "asg", "node", "edge", "ego", "assert", "dist", "isIn", "inFrontOf",
    "isPartOf", "in", "and", "{", "}", "(", ")", "[", "]", ";", ":", ",",
    ".", "==", "!=", "<=", ">=", "<", ">", '"x"', "0", "1.5", "-3", "true",
    "false", "velocity", "position", "Vehicle", "Lane", "Wurst", "\x00", '"',
]


def _mutate(rng, text):
    op = rng.randrange(6)
    if op == 0:  # truncate
        return text[: rng.randrange(len(text) + 1)]
    if op == 1:  # drop a span
        i = rng.randrange(len(text))
        j = min(len(text), i + rng.randrange(1, 40))
        return text[:i] + text[j:]
    if op == 2:  # replace chars
        chars = list(text)
        for _ in range(rng.randrange(1, 8)):
            chars[rng.randrange(len(chars))] = rng.choice(
                string.printable)
        return "".join(chars)
    if op == 3:  # shuffle whitespace-tokens
        tokens = text.split()
        rng.shuffle(tokens)
        return " ".join(tokens)
    if op == 4:  # splice noise tokens
        i = rng.randrange(len(text))
        noise = " ".join(rng.choice(NOISE_TOKENS)
                         for _ in range(rng.randrange(1, 6)))
        return text[:i] + " " + noise + " " + text[i:]
    return "".join(rng.choice(string.printable)  # pure soup
                   for _ in range(rng.randrange(0, 200)))


def test_c7_spec_language_round_trip_and_fuzz(om):
    texts = [_bundled_text(f) for f in _ASSET_FILES.values()]
    for text in texts:
        first = parse_asg(text, om)
        rendered = serialize_asg(first)
        second = parse_asg(rendered, om)
        assert second == first
        assert serialize_asg(second) == rendered

    rng = random.Random(20260822)
    crashes = []
    for i in range(10_000):
        mutated = _mutate(rng, rng.choice(texts))
        try:
            parse_asg(mutated, om)
        except SpecSyntaxError as exc:
            if exc.line < 1 or exc.column < 1:
                crashes.append(f"case {i}: unlocated syntax error {exc}")
        except SceneMonError:
            pass
        except Exception as exc:  # noqa: BLE001 - the point of the fuzz
            crashes.append(f"case {i}: {type(exc).__name__}: {exc}")
    assert crashes == []
    print("ACCEPTANCE C7 (spec round-trip and 10k-case fuzz): PASS")


# -- C8: matching speed ----------------------------------------------------


def test_c8_dense_scene_latency(om):
    csg = build_bench_scene(100, seed=0, om=om)
    asg = load_bundled_asg("P2-2", om)
    assert len(csg.nodes) == 100
    assert len(asg.pattern_nodes) == 6
    timings = []
    for _ in range(50):
        start = time.perf_counter()
        sg_comparison(asg, csg)
        timings.append((time.perf_counter() - start) * 1000.0)
    p50 = statistics.median(timings)
    assert p50 < 10.0, f"p50 {p50:.3f} ms"
    print(f"ACCEPTANCE C8 (100-node scene, p50={p50:.4f}ms): PASS")


def test_c8_halted_ego_worst_case_latency(om):
    """No embedding satisfies P2-2 with the ego halted: the verdict needs the
    whole embedding space ruled out, not just a first witness found."""
    dense = build_bench_scene(400, seed=0, om=om)
    nodes = [
        SceneObject(obj.object_id, obj.cls, {**obj.attributes, "velocity": 0.0})
        if obj.object_id == dense.ego_id else obj
        for obj in dense.nodes.values()
    ]
    csg = make_csg(om, dense.timestamp, dense.ego_id, nodes, dense.edges)
    asg = load_bundled_asg("P2-2", om)
    timings = []
    for _ in range(21):
        start = time.perf_counter()
        verdict = sg_comparison(asg, csg)
        timings.append((time.perf_counter() - start) * 1000.0)
    assert verdict.result is Result.VIOLATED
    assert verdict.cause == Cause.predicate_failed(2)
    p50 = statistics.median(timings)
    assert p50 < 30.0, f"p50 {p50:.1f} ms"
    print(f"ACCEPTANCE C8 (400-node halted-ego scene, p50={p50:.2f}ms): PASS")


@pytest.mark.parametrize("which", ["first", "last"])
def test_c8_data_gap_latency(om, which):
    """The halted-ego scene with one non-ego `Vehicle` (the first or the last
    in node order) lacking `position`: no embedding satisfies and one hits
    the gap, so the verdict is an error found without enumerating every
    embedding. With the gap on the first, the first embedding hits it."""
    dense = build_bench_scene(400, seed=0, om=om)
    vehicles = [oid for oid, obj in dense.nodes.items()
                if obj.cls == "Vehicle" and oid != dense.ego_id]
    gap = vehicles[0] if which == "first" else vehicles[-1]
    nodes = []
    for obj in dense.nodes.values():
        attrs = dict(obj.attributes)
        if obj.object_id == dense.ego_id:
            attrs["velocity"] = 0.0
        elif obj.object_id == gap:
            del attrs["position"]
        nodes.append(SceneObject(obj.object_id, obj.cls, attrs))
    csg = make_csg(om, dense.timestamp, dense.ego_id, nodes, dense.edges)
    asg = load_bundled_asg("P2-2", om)
    timings = []
    for _ in range(21):
        start = time.perf_counter()
        verdict = sg_comparison(asg, csg)
        timings.append((time.perf_counter() - start) * 1000.0)
    assert verdict.result is Result.ERROR
    assert verdict.cause == Cause.missing_attribute("oncoming.position")
    p50 = statistics.median(timings)
    assert p50 < 30.0, f"p50 {p50:.1f} ms"
    print(f"ACCEPTANCE C8 (400-node halted-ego scene, gap on the {which} Vehicle, "
          f"p50={p50:.2f}ms): PASS")


@pytest.mark.parametrize("which", ["first", "last"])
def test_c8_data_gap_behind_a_false_guard_latency(om, which):
    """P2-2 with `ego.velocity > 0` moved to the front, on the 1000-object
    scene with the ego halted and one non-ego `Vehicle` (the first or the
    last in node order) lacking `position`. Every embedding fails that first
    predicate before any can hit the gap, so the verdict is its failure,
    and the error search must settle that at depth 0, not enumerate every
    embedding that maps the gap object."""
    dense = build_bench_scene(1000, seed=0, om=om)
    vehicles = [oid for oid, obj in dense.nodes.items()
                if obj.cls == "Vehicle" and oid != dense.ego_id]
    gap = vehicles[0] if which == "first" else vehicles[-1]
    nodes = []
    for obj in dense.nodes.values():
        attrs = dict(obj.attributes)
        if obj.object_id == dense.ego_id:
            attrs["velocity"] = 0.0
        elif obj.object_id == gap:
            del attrs["position"]
        nodes.append(SceneObject(obj.object_id, obj.cls, attrs))
    csg = make_csg(om, dense.timestamp, dense.ego_id, nodes, dense.edges)
    guard = "  assert ego.velocity > 0;\n"
    text = _bundled_text(_ASSET_FILES["P2-2"])
    asg = parse_asg(text.replace(guard, "").replace("  assert ", guard + "  assert ", 1), om)
    assert asg.predicates[0].to_text() == "ego.velocity > 0"
    timings = []
    for _ in range(21):
        start = time.perf_counter()
        verdict = sg_comparison(asg, csg)
        timings.append((time.perf_counter() - start) * 1000.0)
    assert verdict.result is Result.VIOLATED
    assert verdict.cause == Cause.predicate_failed(0)
    p50 = statistics.median(timings)
    assert p50 < 30.0, f"p50 {p50:.1f} ms"
    print(f"ACCEPTANCE C8 (1000-node halted-ego scene, gap on the {which} Vehicle "
          f"behind a false guard, p50={p50:.2f}ms): PASS")
