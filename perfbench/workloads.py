"""Seeded inputs for the three benchmark workloads.

Everything here is built from scenemon's public API only: the phase streams
come from `builtin_script` + `generate_trace`, the dense scenes from
`MapLayout`, `LaneStrip`, `environment_nodes`, `derive_edges` and
`make_csg`. Generation is never timed.

A workload is a list of `Stream`s. One stream is one `scenemon monitor`
invocation: its arguments, its scene lines and what the checker expects of
its verdicts.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from scenemon import (
    ConcreteSceneGraph,
    LaneStrip,
    MapLayout,
    ObjectModel,
    SceneObject,
    builtin_script,
    derive_edges,
    generate_trace,
    make_csg,
    serialize_scene,
)
from scenemon.scenarios import ParticipantState, environment_nodes

# Safety threshold of each perturbation key (the scripts' PerturbationRule).
# A perturbed stream moves one threat actor to `threshold + offset`; any
# offset in (-threshold, 0) breaks that phase's distance predicate.
PERTURBATIONS = {
    "P1": {"rear_gap": 15.0},
    "P2": {"approach_gap": 5.0, "rear_gap": 30.0, "pass_gap": 2.0,
           "return_gap": 20.0},
}

# The nine bundled properties, in the order the dense streams check them.
ALL_PROPERTIES = ("obstacle-ahead", "P1-1", "P1-2", "P1-3",
                  "P2-1", "P2-2", "P2-3", "P2-4", "P2-5")

# Expected (result, cause kind) of every bundled property on a dense scene,
# known by construction (see `dense_scene`). A `None` cause means satisfied.
SATISFIED = ("satisfied", None)
NO_EMBEDDING = ("violated", "no_embedding")
PREDICATE_FAILED = ("violated", "predicate_failed")
DENSE_EXPECTED = {
    # ego moving: the planted objects satisfy every pattern that can match;
    # the layout has no parking spot, so the P1-1/P1-2 patterns cannot
    "dense_witness": {
        "obstacle-ahead": SATISFIED, "P1-1": NO_EMBEDDING,
        "P1-2": NO_EMBEDDING, "P1-3": SATISFIED, "P2-1": SATISFIED,
        "P2-2": SATISFIED, "P2-3": SATISFIED, "P2-4": SATISFIED,
        "P2-5": SATISFIED,
    },
    # ego halted: every property with an ego-velocity predicate has
    # embeddings but none satisfies; obstacle-ahead has no such predicate
    "dense_halted": {
        "obstacle-ahead": SATISFIED, "P1-1": NO_EMBEDDING,
        "P1-2": NO_EMBEDDING, "P1-3": PREDICATE_FAILED,
        "P2-1": PREDICATE_FAILED, "P2-2": PREDICATE_FAILED,
        "P2-3": PREDICATE_FAILED, "P2-4": PREDICATE_FAILED,
        "P2-5": PREDICATE_FAILED,
    },
}

# Dense scenes: object counts are stratified over [DENSE_MIN, DENSE_MAX] so
# every seed draws the same size mix; the seed shuffles order and geometry.
DENSE_MIN = 100
DENSE_MAX = 200
DENSE_POOL = 21
DENSE_DT = 0.1  # time step between the pool's scenes
EGO_SPEED = 8.33


@dataclass
class Stream:
    """One `scenemon monitor` invocation and its expected outcome."""

    name: str
    argv: list[str]
    properties: tuple[str, ...]
    scenes: list[ConcreteSceneGraph]
    lines: list[str] = field(init=False)  # the scenes as JSONL, fed to stdin
    phases: str | None = None
    perturbed: bool = False
    expected: dict[str, tuple[str, str | None]] | None = None

    def __post_init__(self) -> None:
        self.lines = [serialize_scene(csg) + "\n" for csg in self.scenes]


def phase_streams(seed: int, om: ObjectModel) -> list[Stream]:
    """P1 and P2 nominal streams plus one stream per perturbation key.

    Each perturbed stream draws its negative offset from the seed.
    """
    rng = random.Random(seed)
    streams = []
    for scenario, keys in PERTURBATIONS.items():
        variants: list[tuple[str, dict[str, float]]] = [("nominal", {})]
        for key, threshold in keys.items():
            offset = round(-threshold * rng.uniform(0.1, 0.9), 3)
            variants.append((f"{key}={offset}", {key: offset}))
        for label, offsets in variants:
            script = builtin_script(scenario, offsets=offsets)
            scenes = generate_trace(script, om)
            streams.append(Stream(
                name=f"{scenario}/{label}",
                argv=["monitor", "-", "--phases", scenario],
                properties=script.phases,
                scenes=scenes,
                phases=scenario,
                perturbed=bool(offsets),
            ))
    return streams


def _two_lane_layout() -> MapLayout:
    width = LaneStrip("lane1", 0.0).width
    return MapLayout("road", (LaneStrip("lane1", 0.0),
                              LaneStrip("lane2", width)))


def dense_scene(n_objects: int, rng: random.Random, om: ObjectModel,
                ego_speed: float, t: float) -> ConcreteSceneGraph:
    """A two-lane snapshot of `n_objects` objects around the ego.

    The ego straddles the lane boundary heading +x. Three objects are
    planted so that every bundled pattern that can match has a satisfying
    embedding while the ego moves:

    * a halted obstacle 12 m ahead in lane1 (obstacle-ahead, P2-1..P2-3),
    * a halted obstacle 12 m behind in lane1 (P2-4: ego inFrontOf it),
    * an oncoming vehicle 80 m ahead in lane2 (P2-2..P2-4).

    The rest is traffic at random places along the road, spread evenly over
    both lanes: every sixth object a halted Static, the others Vehicles
    driving with their lane's direction.
    """
    layout = _two_lane_layout()
    lane_y = tuple(lane.center_y for lane in layout.lanes)
    ego_y = (lane_y[0] + lane_y[1]) / 2.0
    nodes = environment_nodes(layout)
    participants = []

    def add(oid: str, cls: str, speed: float, pos: tuple[float, float],
            heading: tuple[float, float]) -> None:
        nodes.append(SceneObject(oid, cls, {"velocity": speed,
                                            "position": pos}))
        participants.append(ParticipantState(oid, pos, heading))

    add("ego", "Vehicle", ego_speed, (0.0, ego_y), (1.0, 0.0))
    add("plant_ahead", "Static", 0.0, (12.0, lane_y[0] + 0.3), (1.0, 0.0))
    add("plant_behind", "Static", 0.0, (-12.0, lane_y[0] + 0.3), (1.0, 0.0))
    add("plant_oncoming", "Vehicle", 8.0, (80.0, lane_y[1]), (-1.0, 0.0))
    for i in range(n_objects - len(nodes)):
        # Objects alternate lanes, and statics also alternate between ahead
        # of and behind the ego and between inside and outside its lateral
        # band, so the embedding count of every pattern depends on the
        # object count rather than on the seed.
        lane = (i // 2) % 2
        x = rng.uniform(-250.0, 250.0)
        dy = rng.uniform(-0.5, 0.5)
        if i % 6 == 0:
            j = i // 6
            x = abs(x) if (j // 2) % 2 else -abs(x)
            inward = abs(dy) if lane == 0 else -abs(dy)
            dy = inward if (j // 4) % 2 == 0 else -inward
            add(f"s{i:03d}", "Static", 0.0, (x, lane_y[lane] + dy), (1.0, 0.0))
        else:
            heading = (1.0, 0.0) if lane == 0 else (-1.0, 0.0)
            add(f"v{i:03d}", "Vehicle", rng.uniform(3.0, 14.0),
                (x, lane_y[lane] + dy), heading)
    return make_csg(om, t, "ego", nodes, derive_edges(layout, participants))


def dense_sizes() -> list[int]:
    """Object counts of the scene pool, spread evenly over the size range."""
    step = (DENSE_MAX - DENSE_MIN) / (DENSE_POOL - 1)
    return [DENSE_MIN + round(k * step) for k in range(DENSE_POOL)]


def dense_stream(workload: str, seed: int, om: ObjectModel) -> Stream:
    """A pool of dense scenes checked against all 9 bundled properties.

    `dense_witness` and `dense_halted` draw identical scenes for one seed;
    they differ only in the ego's velocity.
    """
    rng = random.Random(seed)
    sizes = dense_sizes()
    rng.shuffle(sizes)
    speed = EGO_SPEED if workload == "dense_witness" else 0.0
    scenes = [dense_scene(n, rng, om, speed, round(k * DENSE_DT, 6))
              for k, n in enumerate(sizes)]
    argv = ["monitor", "-"]
    for name in ALL_PROPERTIES:
        argv += ["--builtin", name]
    return Stream(
        name=f"{workload}/seed{seed}",
        argv=argv,
        properties=ALL_PROPERTIES,
        scenes=scenes,
        expected=DENSE_EXPECTED[workload],
    )
