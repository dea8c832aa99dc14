"""Scripted traffic scenarios and the scene-stream generator.

A :class:`ScenarioScript` describes a maneuver as a sequence of phases on a
straight two-lane road: every actor moves with a constant velocity per phase
segment, and scene graphs are sampled from the resulting trajectories at a
fixed step. Relationship edges are derived from geometry alone, so the
generated streams exercise the same derivation rules on every frame.

Two scripts are built in, each with one phase per phase property it is
meant to be monitored against, named as `dsl.SCENARIO_PHASES` lists them:

* ``P1`` pull-out: ego leaves a parking spot and merges into lane traffic.
* ``P2`` overtake: ego crosses into the opposing lane to pass a halted
  obstacle and returns.

The bundled properties themselves are loaded by `dsl`: monitoring never
imports this module. Only ``scenemon gen`` and the generator's names in
`scenemon` load it, on first use.

Perturbations inject a fault into one phase: during the target phase the
named threat actor is repositioned every frame so that its distance to the
ego equals ``threshold + offset``, which turns a safety margin predicate
false for negative offsets without disturbing any other phase.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .dsl import SCENARIO_PHASES, scenario_names
from .errors import SceneValidationError
from .object_model import ObjectModel, default_object_model
from .scene_graph import ConcreteSceneGraph, SceneObject, make_csg

LANE_WIDTH = 3.5
HALF_LANE = LANE_WIDTH / 2.0

Vec = tuple[float, float]


@dataclass(frozen=True)
class LaneStrip:
    """A straight lane of the road, modeled as a lateral band."""

    lane_id: str
    center_y: float
    width: float = LANE_WIDTH


@dataclass(frozen=True)
class SpotBay:
    """A parking bay beside the road with a finite length along x."""

    spot_id: str
    center_x: float
    center_y: float
    width: float
    length: float


@dataclass(frozen=True)
class MapLayout:
    road_id: str
    lanes: tuple[LaneStrip, ...]
    spots: tuple[SpotBay, ...] = ()


@dataclass(frozen=True)
class ActorTrack:
    """One traffic participant with a piecewise-constant velocity profile.

    ``velocities`` holds one velocity vector per phase segment. The heading
    used for front-of derivation is the current velocity direction, or
    ``rest_heading`` while the actor is stopped.
    """

    actor_id: str
    cls: str
    initial: Vec
    velocities: tuple[Vec, ...]
    half_width: float = 0.9
    half_length: float = 2.25
    rest_heading: Vec = (1.0, 0.0)


@dataclass(frozen=True)
class PerturbationRule:
    """Where and how a named perturbation key applies.

    ``placement`` is one of ``"behind_ego"``, ``"ahead_of_ego"`` and
    ``"abeam_ego"``; it fixes how the threat actor is positioned to realize
    the requested ego distance.
    """

    key: str
    phase_index: int
    actor_id: str
    threshold: float
    placement: str
    nominal_y: float = 0.0


@dataclass(frozen=True)
class ScenarioScript:
    scenario_id: str
    duration: float
    dt: float
    phases: tuple[str, ...]
    boundaries: tuple[float, ...]
    layout: MapLayout
    actors: tuple[ActorTrack, ...]
    rules: tuple[PerturbationRule, ...] = ()
    offsets: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if not math.isfinite(self.duration / self.dt):  # a subnormal dt overflows it
            raise ValueError(f"duration / dt must be finite, got dt={self.dt!r}")
        if len(self.boundaries) != len(self.phases) + 1:
            raise ValueError("boundaries must bracket every phase segment")
        if self.boundaries[0] != 0.0 or self.boundaries[-1] != self.duration:
            raise ValueError("phase segments must partition [0, duration]")
        for a, b in zip(self.boundaries, self.boundaries[1:]):
            if b <= a:
                raise ValueError("phase boundaries must be strictly increasing")
        ids = [a.actor_id for a in self.actors]
        ids += [lane.lane_id for lane in self.layout.lanes]
        ids += [spot.spot_id for spot in self.layout.spots]
        ids.append(self.layout.road_id)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node id in scenario script")
        if not any(a.actor_id == "ego" for a in self.actors):
            raise ValueError("script must define an actor with id 'ego'")
        for actor in self.actors:
            if len(actor.velocities) != len(self.phases):
                raise ValueError(
                    f"actor {actor.actor_id!r} needs one velocity per phase"
                )
        known = {rule.key for rule in self.rules}
        for key in self.offsets:
            if key not in known:
                raise ValueError(
                    f"unknown perturbation {key!r}; expected one of "
                    f"{sorted(known)}"
                )

    def phase_index_at(self, t: float) -> int:
        """Index of the phase segment the timestamp falls into."""
        i = bisect_right(self.boundaries, t) - 1
        return min(max(i, 0), len(self.phases) - 1)

    def segment_of(self, phase: str) -> tuple[float, float]:
        """Half-open time window [start, end) of the named phase.

        The final phase closes at ``duration`` inclusive.
        """
        i = self.phases.index(phase)
        return self.boundaries[i], self.boundaries[i + 1]


def _position_at(actor: ActorTrack, boundaries: tuple[float, ...], t: float) -> Vec:
    # Closed form, no per-frame accumulation: exact and order-independent.
    x, y = actor.initial
    for i, (vx, vy) in enumerate(actor.velocities):
        span = min(t, boundaries[i + 1]) - boundaries[i]
        if span <= 0:
            break
        x += vx * span
        y += vy * span
    return x, y


def _heading(velocity: Vec, rest: Vec) -> Vec:
    vx, vy = velocity
    norm = math.hypot(vx, vy)
    if norm == 0.0:
        vx, vy = rest
        norm = math.hypot(vx, vy)
        if norm == 0.0:
            return 1.0, 0.0
    return vx / norm, vy / norm


def _place_threat(rule: PerturbationRule, ego: Vec, distance: float) -> Vec:
    """Position the threat actor at the requested ego distance."""
    ex, ey = ego
    if rule.placement in ("behind_ego", "ahead_of_ego"):
        dy = ey - rule.nominal_y
        run = math.sqrt(max(distance * distance - dy * dy, 1e-4))
        sign = -1.0 if rule.placement == "behind_ego" else 1.0
        return ex + sign * run, rule.nominal_y
    if rule.placement == "abeam_ego":
        return ex, ey - distance
    raise ValueError(f"unknown placement {rule.placement!r}")


@dataclass(frozen=True)
class ParticipantState:
    """Pose of one traffic participant at a single instant."""

    actor_id: str
    position: Vec
    heading: Vec = (1.0, 0.0)
    half_width: float = 0.9
    half_length: float = 2.25


def derive_edges(
    layout: MapLayout, participants: Sequence[ParticipantState]
) -> list[tuple[str, str, str]]:
    """Relationship edges implied by geometry.

    Lane membership is lateral-only: the participant's lateral band must
    overlap the lane band. Spot membership additionally needs longitudinal
    overlap with the bay. ``a inFrontOf b`` holds when ``a`` lies strictly
    ahead along ``b``'s heading and within half a lane width laterally in
    the road frame (lanes run along x), so a briefly tilted heading during
    a lane change does not drop a straight-ahead object out of the cone.
    """
    edges: list[tuple[str, str, str]] = [
        (lane.lane_id, "isPartOf", layout.road_id) for lane in layout.lanes
    ]
    for p in participants:
        x, y = p.position
        for lane in layout.lanes:
            if abs(y - lane.center_y) <= lane.width / 2.0 + p.half_width:
                edges.append((p.actor_id, "isIn", lane.lane_id))
        for spot in layout.spots:
            if (
                abs(y - spot.center_y) <= spot.width / 2.0 + p.half_width
                and abs(x - spot.center_x) <= spot.length / 2.0 + p.half_length
            ):
                edges.append((p.actor_id, "isIn", spot.spot_id))
    for a in participants:
        for b in participants:
            if a.actor_id == b.actor_id:
                continue
            dx = a.position[0] - b.position[0]
            dy = a.position[1] - b.position[1]
            hx, hy = b.heading
            longitudinal = dx * hx + dy * hy
            if longitudinal > 0.0 and abs(dy) < HALF_LANE:
                edges.append((a.actor_id, "inFrontOf", b.actor_id))
    return edges


def environment_nodes(layout: MapLayout) -> list[SceneObject]:
    """Scene objects for the road, its lanes and any parking bays."""
    nodes = [SceneObject(layout.road_id, "Road", {})]
    nodes += [SceneObject(lane.lane_id, "Lane", {}) for lane in layout.lanes]
    nodes += [SceneObject(spot.spot_id, "ParkingSpot", {}) for spot in layout.spots]
    return nodes


def generate_trace(
    script: ScenarioScript, om: ObjectModel | None = None
) -> list[ConcreteSceneGraph]:
    """The scenes of `iter_trace`, as a list."""
    return list(iter_trace(script, om))


def iter_trace(
    script: ScenarioScript, om: ObjectModel | None = None
) -> Iterator[ConcreteSceneGraph]:
    """Sample the script into scene graphs, each built when it is pulled.

    A zero-duration script yields no scene. Otherwise frames are taken at
    ``t = 0, dt, 2*dt, ...`` up to and including ``duration``.
    """
    if om is None:
        om = default_object_model()
    if script.duration == 0.0:
        return

    active: dict[str, PerturbationRule] = {}
    for rule in script.rules:
        if rule.key in script.offsets:
            active[rule.actor_id] = rule

    steps = round(script.duration / script.dt)
    for k in range(steps + 1):
        t = round(k * script.dt, 9)
        phase = script.phase_index_at(t)

        states: dict[str, tuple[ActorTrack, Vec, Vec, float]] = {}
        for actor in script.actors:
            pos = _position_at(actor, script.boundaries, t)
            vel = actor.velocities[phase]
            states[actor.actor_id] = (actor, pos, _heading(vel, actor.rest_heading),
                                      math.hypot(*vel))
        ego_pos = states["ego"][1]
        applied = []  # the perturbations this frame carries, for error messages
        for actor_id, rule in active.items():
            if phase == rule.phase_index and actor_id != "ego":
                actor, _, head, speed = states[actor_id]
                distance = rule.threshold + script.offsets[rule.key]
                pos = _place_threat(rule, ego_pos, distance)
                states[actor_id] = (actor, pos, head, speed)
                applied.append(f"--perturb {rule.key}={script.offsets[rule.key]!r}")

        nodes = environment_nodes(script.layout)
        participants = []
        for actor, pos, heading, speed in states.values():
            nodes.append(
                SceneObject(actor.actor_id, actor.cls,
                            {"velocity": speed, "position": pos})
            )
            participants.append(
                ParticipantState(actor.actor_id, pos, heading,
                                 actor.half_width, actor.half_length)
            )
        edges = derive_edges(script.layout, participants)
        try:
            csg = make_csg(om, t, "ego", nodes, edges)
        except SceneValidationError as exc:
            if not applied:
                raise
            raise SceneValidationError(f"{exc}, at t={t} under {', '.join(applied)}") from exc
        yield csg


# ---------------------------------------------------------------------------
# Built-in scripts


def _two_lane_layout(spots: tuple[SpotBay, ...] = ()) -> MapLayout:
    return MapLayout(
        road_id="road",
        lanes=(
            LaneStrip("lane1", center_y=0.0),
            LaneStrip("lane2", center_y=LANE_WIDTH),
        ),
        spots=spots,
    )


def pull_out_script(offsets: dict[str, float] | None = None) -> ScenarioScript:
    """Pull-out maneuver P1: leave a parking spot and merge into lane1.

    The ego rests beside lane1, merges over two seconds while a vehicle
    approaches from behind in lane1, then cruises. Perturbation ``rear_gap``
    shifts the approaching vehicle so the merge gap equals ``15 + offset``
    meters throughout phase P1-2.
    """
    spot = SpotBay("spot", center_x=20.0, center_y=-2.1, width=2.2, length=7.0)
    return ScenarioScript(
        scenario_id="P1",
        duration=12.0,
        dt=0.1,
        phases=SCENARIO_PHASES["P1"],
        boundaries=(0.0, 3.0, 5.0, 12.0),
        layout=_two_lane_layout(spots=(spot,)),
        actors=(
            ActorTrack(
                "ego", "Vehicle", initial=(20.0, -2.1),
                velocities=((0.0, 0.0), (2.0, 1.05), (8.33, 0.0)),
            ),
            ActorTrack(
                "rear", "Vehicle", initial=(-40.0, 0.0),
                velocities=((8.33, 0.0),) * 3,
            ),
        ),
        rules=(
            PerturbationRule("rear_gap", phase_index=1, actor_id="rear",
                             threshold=15.0, placement="behind_ego"),
        ),
        offsets=dict(offsets or {}),
    )


def overtake_script(offsets: dict[str, float] | None = None) -> ScenarioScript:
    """Overtake maneuver P2: pass a halted obstacle via the opposing lane.

    The ego approaches the obstacle in lane1, crosses into lane2 against an
    oncoming vehicle that is still far away, passes, and returns. Each
    perturbation key targets one phase and sets one threat distance to
    ``threshold + offset`` meters for that phase only:

    * ``approach_gap``: obstacle standoff during P2-1 (threshold 5).
    * ``rear_gap``: oncoming distance during P2-2 (threshold 30).
    * ``pass_gap``: passing clearance during P2-3 (threshold 2).
    * ``return_gap``: oncoming distance during P2-4 (threshold 20).
    """
    return ScenarioScript(
        scenario_id="P2",
        duration=20.0,
        dt=0.1,
        phases=SCENARIO_PHASES["P2"],
        boundaries=(0.0, 3.0, 5.5, 9.0, 11.5, 20.0),
        layout=_two_lane_layout(),
        actors=(
            ActorTrack(
                "ego", "Vehicle", initial=(0.0, 0.0),
                velocities=((8.33, 0.0), (8.0, 1.4), (8.33, 0.0),
                            (8.0, -1.4), (8.33, 0.0)),
            ),
            ActorTrack(
                "obstacle", "Static", initial=(60.0, 0.0),
                velocities=((0.0, 0.0),) * 5,
            ),
            ActorTrack(
                "oncoming", "Vehicle", initial=(260.0, LANE_WIDTH),
                velocities=((-8.33, 0.0),) * 5,
                rest_heading=(-1.0, 0.0),
            ),
        ),
        rules=(
            PerturbationRule("approach_gap", phase_index=0, actor_id="obstacle",
                             threshold=5.0, placement="ahead_of_ego"),
            PerturbationRule("rear_gap", phase_index=1, actor_id="oncoming",
                             threshold=30.0, placement="ahead_of_ego",
                             nominal_y=LANE_WIDTH),
            PerturbationRule("pass_gap", phase_index=2, actor_id="obstacle",
                             threshold=2.0, placement="abeam_ego"),
            PerturbationRule("return_gap", phase_index=3, actor_id="oncoming",
                             threshold=20.0, placement="ahead_of_ego",
                             nominal_y=LANE_WIDTH),
        ),
        offsets=dict(offsets or {}),
    )


def build_bench_scene(
    n_nodes: int = 100, seed: int = 0, om: ObjectModel | None = None
) -> ConcreteSceneGraph:
    """A dense synthetic snapshot: two lanes of traffic around the ego.

    Deterministic for a given seed. The ego straddles the lane boundary so
    that multi-lane patterns have embeddings to find.
    """
    if om is None:
        om = default_object_model()
    if n_nodes < 5:
        raise ValueError("bench scene needs at least 5 nodes")
    rng = random.Random(seed)
    layout = _two_lane_layout()
    nodes = environment_nodes(layout)
    participants = [ParticipantState("ego", (0.0, LANE_WIDTH / 2.0))]
    nodes.append(SceneObject(
        "ego", "Vehicle",
        {"velocity": 8.33, "position": (0.0, LANE_WIDTH / 2.0)}))
    for i in range(n_nodes - 4):
        x = rng.uniform(-250.0, 250.0)
        lane_y = rng.choice((0.0, LANE_WIDTH))
        y = lane_y + rng.uniform(-0.5, 0.5)
        if i % 6 == 0:
            oid, cls, speed = f"s{i:02d}", "Static", 0.0
            heading = (1.0, 0.0)
        else:
            oid, cls = f"v{i:02d}", "Vehicle"
            speed = rng.uniform(3.0, 14.0)
            heading = (1.0, 0.0) if lane_y == 0.0 else (-1.0, 0.0)
        nodes.append(SceneObject(
            oid, cls, {"velocity": speed, "position": (x, y)}))
        participants.append(ParticipantState(oid, (x, y), heading))
    edges = derive_edges(layout, participants)
    return make_csg(om, 0.0, "ego", nodes, edges)


_SCRIPT_BUILDERS = {"P1": pull_out_script, "P2": overtake_script}


def builtin_script(
    scenario: str, offsets: dict[str, float] | None = None
) -> ScenarioScript:
    """Return a built-in scenario script, optionally perturbed."""
    try:
        builder = _SCRIPT_BUILDERS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; expected one of {scenario_names()}"
        ) from None
    return builder(offsets)
