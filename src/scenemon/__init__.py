"""Scene-graph runtime monitoring for traffic scenarios.

The package checks whether concrete traffic-scene snapshots satisfy spatial
properties written as abstract scene graphs: a typed pattern anchored at the
ego vehicle plus an ordered list of predicates over the matched objects.
Streams of scenes can additionally be tracked against an ordered phase
sequence describing a maneuver.

The scenario generator's names (`builtin_script`, `generate_trace` and the
script types) are resolved on first use, so monitoring never imports
`scenemon.scenarios`.
"""

from .errors import (
    MissingAttributeError,
    OracleSizeError,
    SceneMonError,
    SceneValidationError,
    SchemaError,
    SpecSyntaxError,
    SpecTypeError,
    StreamOrderError,
)
from .frozen import FrozenInstanceError
from .object_model import (
    ObjectModel,
    default_object_model,
    is_relationship_allowed,
    load_object_model,
    parse_object_model,
    serialize_object_model,
)
from .scene_graph import (
    AbstractSceneGraph,
    ConcreteSceneGraph,
    SceneObject,
    export_dot,
    make_csg,
    parse_csg,
    read_scene_stream,
    scene_record,
    serialize_scene,
)
from .dsl import (
    builtin_asgs,
    load_asg,
    load_bundled_asg,
    parse_asg,
    scenario_names,
    serialize_asg,
)
from .matching import (
    ORACLE_SIZE_BOUND,
    Embedding,
    brute_force_embeddings,
    check_embedding,
    find_embeddings,
    iter_embeddings,
    pattern_order,
)
from .predicates import Binding, BoundObject, bind, compile_predicates, evaluate
from .monitor import (
    Cause,
    CauseKind,
    PhaseAutomaton,
    Result,
    Verdict,
    monitor_stream,
    serialize_verdict,
    sg_comparison,
    verdict_record,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractSceneGraph",
    "ActorTrack",
    "Binding",
    "BoundObject",
    "Cause",
    "CauseKind",
    "ConcreteSceneGraph",
    "Embedding",
    "FrozenInstanceError",
    "LaneStrip",
    "MapLayout",
    "MissingAttributeError",
    "ORACLE_SIZE_BOUND",
    "ObjectModel",
    "OracleSizeError",
    "ParticipantState",
    "PerturbationRule",
    "PhaseAutomaton",
    "Result",
    "ScenarioScript",
    "SceneMonError",
    "SceneObject",
    "SceneValidationError",
    "SchemaError",
    "SpecSyntaxError",
    "SpecTypeError",
    "SpotBay",
    "StreamOrderError",
    "Verdict",
    "bind",
    "brute_force_embeddings",
    "builtin_asgs",
    "builtin_script",
    "check_embedding",
    "compile_predicates",
    "default_object_model",
    "derive_edges",
    "evaluate",
    "export_dot",
    "find_embeddings",
    "generate_trace",
    "is_relationship_allowed",
    "iter_embeddings",
    "load_asg",
    "load_bundled_asg",
    "load_object_model",
    "make_csg",
    "monitor_stream",
    "overtake_script",
    "parse_asg",
    "parse_csg",
    "parse_object_model",
    "pattern_order",
    "pull_out_script",
    "read_scene_stream",
    "scenario_names",
    "scene_record",
    "serialize_asg",
    "serialize_object_model",
    "serialize_scene",
    "serialize_verdict",
    "sg_comparison",
    "verdict_record",
    "__version__",
]

# the names `scenemon.scenarios` defines, imported when first read (PEP 562)
_GENERATOR_NAMES = frozenset({
    "ActorTrack", "LaneStrip", "MapLayout", "ParticipantState", "PerturbationRule",
    "ScenarioScript", "SpotBay", "builtin_script", "derive_edges", "generate_trace",
    "overtake_script", "pull_out_script",
})


def __getattr__(name: str) -> object:
    if name in _GENERATOR_NAMES:
        from . import scenarios

        return getattr(scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _GENERATOR_NAMES)
