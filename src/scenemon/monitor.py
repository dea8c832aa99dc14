"""Scene-against-property verdicts, online stream monitoring, phase tracking.

`sg_comparison` decides one (property, scene) pair: the scene satisfies the
property iff some embedding of the pattern exists whose bound attribute
values satisfy every predicate. Verdicts distinguish three outcomes:

  * Satisfied, carrying the witness embedding that satisfied the predicates;
  * Violated, with cause NoEmbedding (pattern absent) or
    PredicateFailed(index) (pattern present, a predicate broke);
  * Error, with cause MissingAttribute (a predicate touched data the scene
    does not carry - deliberately distinct from Violated).

Embeddings are scanned lazily in deterministic matcher order and the scan
stops at the first satisfying one, so the witness is always the first
satisfying embedding in that order. When nothing satisfies: if every
evaluation completed, the cause is the first failure of the first embedding;
if any evaluation hit missing data, the verdict is an Error (a data gap must
not masquerade as a threshold violation).

Predicate pushdown: once the first embedding has failed, its cause is
settled and only the witness is open. If the scene's data is complete for
the property (every candidate of every pattern node carries every attribute
the predicates read from that node), no evaluation can hit missing data, so
the scan hands over to one search that evaluates each predicate at the
first depth where all its pattern nodes are bound and prunes the subtree
below a false one. Its first embedding is the witness; if it yields none,
the verdict is Violated with the recorded cause. With incomplete data the
scan goes on unpruned, because pruning could skip the embedding whose
evaluation would have reported the gap. The verdicts are the same either
way.

Topology reuse: the first embedding in matcher order depends only on the
pattern, `induced` and what the matcher reads of the scene, which is its
object model, ego, class index and edge set. From one snapshot to the
next, positions and velocities change but lanes and relations rarely do.
So `monitor_stream` owns a memo of first embeddings, passed to each check,
and starts a fresh one when a scene's topology differs from the previous
scene's (along a run that `read_scene_stream` parsed, an identity test).
A direct call has no memo and searches every time; no scene is written.
The memo keeps each property beside its entry, so the property's id, its
key, is not reused while the entry lives. An entry may also keep its
miss's search, which holds the run's first scene until the run ends. The
memo dies with the stream.

The memo-hit path looks the memo up before it builds anything. A property
whose pattern had no embedding is decided at once, with the one shared
`no_embedding` cause. Otherwise the scan starts at the recorded first
embedding, evaluated on this scene's attributes; when it satisfies every
predicate, that is the verdict, and no search was built. Since the whole
embedding list, not just its head, is fixed along a run, the memo also
learns whether the first embedding is the only one: the miss keeps its
search, positioned after the first embedding, and the first check that
needs the fact pulls one more embedding from it (a miss whose own scan
goes on learns it on the way). On a one-embedding topology a hit is
decided by that embedding alone: satisfied, violated with its cause, or
an error with its ref. Only when a second embedding exists does the scan
go on: a search is built when it needs one (the pushdown search after a
failure with complete data, else an unpruned one that skips its first
yield, the recorded one), as without the memo. So a decided check costs
its evaluation and its verdict object, built with one dict update.

What depends on the property alone is computed once per property object
and epsilon, and kept on the property (`AbstractSceneGraph.plans`): the
compiled predicates (`predicates.compile_predicates`), the attributes they
read per pattern node, and the pushdown schedule of which predicates fall
due when a pattern node is mapped. Per scene, only the search and the
evaluations remain.

`monitor_stream` applies a list of properties to a time-ordered scene
stream, yielding per-scene verdicts in (scene order, property order) before
the next scene is consumed. `PhaseAutomaton` layers maneuver-sequence
tracking on top: phases advance only when the successor phase is satisfied,
never skipping. A scene satisfying neither the current nor the next phase
is a stream-level violation when both are violated, and a gap when either
is an error: a data gap is inconclusive, not a violation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import MissingAttributeError, StreamOrderError
from .matching import Embedding, brute_force_embeddings, iter_embeddings, pattern_order
from .predicates import Compiled, attribute_reads, bind, compile_predicates, evaluate
from .scene_graph import AbstractSceneGraph, ConcreteSceneGraph, SceneObject


class Result(str, Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    ERROR = "error"


class CauseKind(str, Enum):
    NO_EMBEDDING = "no_embedding"
    PREDICATE_FAILED = "predicate_failed"
    MISSING_ATTRIBUTE = "missing_attribute"


@dataclass(frozen=True)
class Cause:
    kind: CauseKind
    index: int | None = None  # failing predicate index, for PREDICATE_FAILED
    ref: str | None = None  # "<pattern-id>.<attr>", for MISSING_ATTRIBUTE

    @staticmethod
    def no_embedding() -> "Cause":
        return _NO_EMBEDDING

    @staticmethod
    def predicate_failed(index: int) -> "Cause":
        return Cause(CauseKind.PREDICATE_FAILED, index=index)

    @staticmethod
    def missing_attribute(ref: str) -> "Cause":
        return Cause(CauseKind.MISSING_ATTRIBUTE, ref=ref)


_NO_EMBEDDING = Cause(CauseKind.NO_EMBEDDING)  # frozen: one serves every verdict


@dataclass(frozen=True, init=False)
class Verdict:
    timestamp: float
    property_name: str
    result: Result
    witness: Embedding | None = None
    cause: Cause | None = None
    phase_index: int | None = None

    def __init__(self, timestamp: float, property_name: str, result: Result,
                 witness: Embedding | None = None, cause: Cause | None = None,
                 phase_index: int | None = None) -> None:
        # one dict update, where the generated frozen __init__ makes a
        # call to object.__setattr__ per field
        self.__dict__.update(timestamp=timestamp, property_name=property_name, result=result,
                             witness=witness, cause=cause, phase_index=phase_index)

    @property
    def satisfied(self) -> bool:
        return self.result is Result.SATISFIED


def sg_comparison(
    asg: AbstractSceneGraph,
    csg: ConcreteSceneGraph,
    *,
    epsilon: float = 0.0,
    induced: bool = False,
    memo: dict[tuple[int, bool], list] | None = None,
) -> Verdict:
    """Decide whether one scene satisfies one property. See module docstring.

    `memo` serves one topology and one `induced`; None searches from
    scratch. A miss files `(id(asg), induced) -> [asg, first embedding or
    None, rest]`, where `rest` is the miss's search, positioned after the
    first embedding, until it is known whether that embedding is the only
    one; then `rest` is that bool (`_only_embedding`).
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite number at or above 0, got {epsilon!r}")
    predicates, reads, due = _property_plan(asg, epsilon)
    entry = None if memo is None else memo.get((id(asg), induced))
    rest: Iterator[Embedding] | None = None  # the embeddings after `emb`, made when needed
    if entry is None:
        rest = iter_embeddings(asg, csg, induced=induced)
        emb = next(rest, None)
        if memo is not None:  # the embeddings depend on the pattern, topology and `induced`
            entry = memo[id(asg), induced] = [asg, emb, rest]  # holding asg keeps its id its own
    else:
        emb = entry[1]
    if emb is None:
        return Verdict(csg.timestamp, asg.name, Result.VIOLATED, cause=_NO_EMBEDDING)
    nodes = csg.nodes
    first_failure: Cause | None = None
    first_error: Cause | None = None
    while emb is not None:
        try:
            idx = _first_false(predicates, nodes, emb.as_dict())
        except MissingAttributeError as exc:
            if first_error is None:
                first_error = Cause.missing_attribute(exc.ref)
        else:
            if idx is None:
                return Verdict(csg.timestamp, asg.name, Result.SATISFIED, witness=emb)
            if first_failure is None:
                first_failure = Cause.predicate_failed(idx)
                if rest is None and _only_embedding(entry):
                    break
                check = _pushdown_check(asg, csg, reads, due)
                if check is not None:
                    # no evaluation can hit missing data: only the witness is open
                    witness = next(iter_embeddings(asg, csg, induced=induced, check=check), None)
                    if witness is not None:
                        return Verdict(csg.timestamp, asg.name, Result.SATISFIED, witness=witness)
                    break
        if rest is None:  # a memo hit: the search's first yield is the memo's embedding
            if _only_embedding(entry):
                break
            rest = iter_embeddings(asg, csg, induced=induced)
            next(rest, None)
        emb = next(rest, None)
        if entry is not None and entry[2] is rest:  # the miss's own search passed the first
            entry[2] = emb is None
    if first_error is not None:
        return Verdict(csg.timestamp, asg.name, Result.ERROR, cause=first_error)
    return Verdict(csg.timestamp, asg.name, Result.VIOLATED, cause=first_failure)


def _only_embedding(entry: list) -> bool:
    """Whether a memo entry's first embedding is its topology's only one.
    The first call on an entry that still holds its miss's search pulls one
    more embedding from it and keeps the answer in its place."""
    rest = entry[2]
    if rest.__class__ is bool:
        return rest
    entry[2] = only = next(rest, None) is None
    return only


def _first_false(
    predicates: Sequence[Compiled], nodes: Mapping[str, SceneObject], mapping: Mapping[str, str],
) -> int | None:
    """Index of the first predicate that fails on `mapping`, None if all hold."""
    for idx, pred in enumerate(predicates):
        if not pred(nodes, mapping):
            return idx
    return None


_Reads = tuple[tuple[str, frozenset[str]], ...]  # attributes read, per pattern node
_Due = dict[str, tuple[tuple[frozenset[str], Compiled], ...]]  # (pattern ids, predicate), per node


def _property_plan(
    asg: AbstractSceneGraph, epsilon: float,
) -> tuple[tuple[Compiled, ...], _Reads | None, _Due]:
    """What checking a property needs that depends on the property alone,
    built once per epsilon and kept in `asg.plans`: the compiled predicates
    in declaration order, their read set (None when a function's reads are
    unknown) and the pushdown schedule. The tables are shared: read only.

    A predicate is filed under each of its pattern nodes and becomes due
    when the last of them is mapped; one with no node refs is due at depth
    0, where the ego is mapped.
    """
    plan = asg.plans.get(epsilon)
    if plan is not None:  # two threads may both build it: equal plans, either kept
        return plan
    compiled = compile_predicates(asg.predicates, epsilon=epsilon)
    reads = attribute_reads(asg.predicates)
    due: dict[str, list[tuple[frozenset[str], Compiled]]] = {}
    for pred, fn in zip(asg.predicates, compiled):
        ids = pred.pattern_ids()
        for pid in ids or (asg.ego_pattern_id,):
            due.setdefault(pid, []).append((ids, fn))
    plan = asg.plans[epsilon] = (
        compiled, None if reads is None else tuple(reads.items()),
        {pid: tuple(v) for pid, v in due.items()})
    return plan


def _data_complete(asg: AbstractSceneGraph, csg: ConcreteSceneGraph, reads: _Reads) -> bool:
    """Whether every class-compatible candidate of every pattern node carries
    every attribute the predicates read from that node."""
    for pid, names in reads:
        cls = asg.pattern_nodes[pid]
        if pid == asg.ego_pattern_id:
            pool = (csg.ego_id,) if asg.om.is_subclass(csg.nodes[csg.ego_id].cls, cls) else ()
        else:
            pool = csg.class_index.get(cls, ())
        for oid in pool:
            if not names <= csg.nodes[oid].attributes.keys():
                return False
    return True


def _pushdown_check(
    asg: AbstractSceneGraph, csg: ConcreteSceneGraph, reads: _Reads | None, due: _Due,
) -> Callable[[str, Mapping[str, str]], bool] | None:
    """The search's per-depth predicate check, or None unless the scene's
    data is complete for the property."""
    if reads is None or not _data_complete(asg, csg, reads):
        return None
    nodes = csg.nodes

    def check(pid: str, mapping: Mapping[str, str]) -> bool:
        for ids, pred in due.get(pid, ()):
            if ids <= mapping.keys() and not pred(nodes, mapping):
                return False
        return True

    return check


def reference_verdict(
    asg: AbstractSceneGraph, csg: ConcreteSceneGraph, epsilon: float = 0.0, induced: bool = False,
) -> Verdict:
    """The verdict `sg_comparison` must give, rebuilt without its search,
    memo, compiled predicates or pushdown: the exhaustive matcher's
    embeddings sorted into matcher order, each bound and evaluated by the
    tree-walking evaluator. For tests and `--oracle`; oracle-sized scenes."""
    order = pattern_order(asg, csg)
    embs = sorted(brute_force_embeddings(asg, csg, induced=induced),
                  key=lambda e: tuple(e[p] for p in order))
    first_failure = None
    first_error = None
    for emb in embs:
        try:
            ok, idx = evaluate(asg.predicates, bind(emb, csg), epsilon=epsilon)
        except MissingAttributeError as exc:
            if first_error is None:
                first_error = Cause.missing_attribute(exc.ref)
            continue
        if ok:
            return Verdict(csg.timestamp, asg.name, Result.SATISFIED, witness=emb)
        if first_failure is None:
            first_failure = Cause.predicate_failed(idx)
    if not embs:
        return Verdict(csg.timestamp, asg.name, Result.VIOLATED, cause=Cause.no_embedding())
    if first_error is not None:
        return Verdict(csg.timestamp, asg.name, Result.ERROR, cause=first_error)
    return Verdict(csg.timestamp, asg.name, Result.VIOLATED, cause=first_failure)


def monitor_stream(
    asgs: Sequence[AbstractSceneGraph],
    scenes: Iterable[ConcreteSceneGraph],
    *,
    epsilon: float = 0.0,
    induced: bool = False,
) -> Iterator[Verdict]:
    """Yield one verdict per (scene, property), online.

    Verdicts for scene i appear in property declaration order and are all
    yielded before scene i+1 is pulled from the iterable. A timestamp lower
    than its predecessor raises StreamOrderError; equal timestamps are
    allowed (two snapshots may legitimately coincide).
    """
    last: ConcreteSceneGraph | None = None  # the loop holds it until the next scene anyway
    for csg in scenes:
        if last is not None and csg.timestamp < last.timestamp:
            raise StreamOrderError(
                f"scene timestamp {csg.timestamp} after {last.timestamp} is out of order")
        if last is None or not _same_topology(csg, last):
            memo: dict[tuple[int, bool], list] = {}  # embeddings for csg's topology
        last = csg
        for asg in asgs:
            yield sg_comparison(asg, csg, epsilon=epsilon, induced=induced, memo=memo)


def _same_topology(a: ConcreteSceneGraph, b: ConcreteSceneGraph) -> bool:
    """Whether the matcher sees the same graph in both scenes: the same
    object model object, ego, class index and edge set. The ego's class
    follows from the class index, so every embedding, in order, is shared."""
    return (a.om is b.om and a.ego_id == b.ego_id
            and (a.class_index is b.class_index or a.class_index == b.class_index)
            and (a.edges is b.edges or a.edges == b.edges))


@dataclass(frozen=True)
class PhaseAutomaton:
    """Progress tracker over an ordered phase sequence.

    `step` consumes the per-scene verdicts and returns the successor state:
    advance by one when the next phase is satisfied, stay when the current
    phase still is, otherwise stay and count the scene. It counts as a
    stream-level violation when the current verdict and the next one (if
    any) are both `violated`, and as a gap when either is an `error`: a data
    gap leaves the scene inconclusive, like LTL3's "?" verdict, and never
    reads as a violation. The phase index never decreases and never skips.
    `completed` latches once the final phase is satisfied while current.
    """

    phases: tuple[str, ...]
    index: int = 0
    dwell: tuple[int, ...] = field(default=())
    completed: bool = False
    violations: int = 0
    gaps: int = 0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("phase automaton needs at least one phase")
        if not self.dwell:
            object.__setattr__(self, "dwell", (0,) * len(self.phases))

    @property
    def current_phase(self) -> str:
        return self.phases[self.index]

    def step(self, verdicts: Mapping[str, Verdict]) -> "PhaseAutomaton":
        def verdict_for(name: str) -> Verdict:
            if name not in verdicts:
                raise ValueError(f"no verdict provided for phase {name!r}")
            return verdicts[name]

        current = verdict_for(self.phases[self.index])
        nxt = None
        if self.index + 1 < len(self.phases):
            nxt = verdict_for(self.phases[self.index + 1])
        new_index, violations, gaps = self.index, self.violations, self.gaps
        if nxt is not None and nxt.satisfied:
            new_index += 1
        elif not current.satisfied:
            if current.result is Result.ERROR or nxt is not None and nxt.result is Result.ERROR:
                gaps += 1
            else:
                violations += 1
        dwell = list(self.dwell)
        dwell[new_index] += 1
        completed = self.completed or (
            new_index == len(self.phases) - 1 and verdict_for(self.phases[new_index]).satisfied)
        return PhaseAutomaton(self.phases, new_index, tuple(dwell), completed, violations, gaps)


# -- verdict records -------------------------------------------------------


def verdict_record(v: Verdict) -> dict:
    """JSON-ready record; field order is fixed for byte-stable output."""
    rec: dict = {"t": v.timestamp, "property": v.property_name, "result": v.result.value}
    if v.witness is not None:
        rec["witness"] = {pid: oid for pid, oid in v.witness.mapping}
    if v.cause is not None:
        cause: dict = {"kind": v.cause.kind.value}
        if v.cause.index is not None:
            cause["index"] = v.cause.index
        if v.cause.ref is not None:
            cause["ref"] = v.cause.ref
        rec["cause"] = cause
    if v.phase_index is not None:
        rec["phase_index"] = v.phase_index
    return rec


_ENCODER = json.JSONEncoder(separators=(", ", ": "), allow_nan=False)
_RESULT_FIELDS = {r: f', "result": "{r.value}"' for r in Result}
_CAUSE_FIELDS = {k: f', "cause": {{"kind": "{k.value}"' for k in CauseKind}


_KEEP = object()  # serialize_verdict writes the verdict's own phase index


def serialize_verdict(v: Verdict, *, phase_index: object = _KEEP) -> str:
    """`verdict_record(v)` as one line of JSON; with `phase_index`, the line
    of `dataclasses.replace(v, phase_index=phase_index)`, built without it.

    The reference is `_ENCODER.encode(verdict_record(v))`. The line is built
    from a fixed template in the record's field order instead: strings are
    escaped as that encoder escapes them, a finite float timestamp and an
    exact int index are written with their repr, and each result and cause
    kind is a literal. Any other value (a timestamp that is not a finite
    float, a number that is not an exact int, a result or kind that is not
    the enum, a string field holding a non-string) goes to the reference, so
    every verdict gives the reference's bytes or raises its exception.
    """
    t, result, cause = v.timestamp, v.result, v.cause
    phase = v.phase_index if phase_index is _KEEP else phase_index
    if (type(t) is not float or not -math.inf < t < math.inf or type(result) is not Result
            or cause is not None and (
                type(cause) is not Cause or type(cause.kind) is not CauseKind
                or cause.index is not None and type(cause.index) is not int)
            or phase is not None and type(phase) is not int):
        return _reference_line(v, phase)
    try:
        line = f'{{"t": {t!r}, "property": {_quote(v.property_name)}{_RESULT_FIELDS[result]}'
        if v.witness is not None:
            pairs = {pid: oid for pid, oid in v.witness.mapping}  # as verdict_record
            line += ', "witness": {' + ", ".join(
                [f"{_quote(pid)}: {_quote(oid)}" for pid, oid in pairs.items()]) + "}"
        if cause is not None:
            line += _CAUSE_FIELDS[cause.kind]
            if cause.index is not None:
                line += f', "index": {cause.index!r}'
            if cause.ref is not None:
                line += f', "ref": {_quote(cause.ref)}'
            line += "}"
    except TypeError:  # a string field holding something else
        return _reference_line(v, phase)
    if phase is not None:
        line += f', "phase_index": {phase!r}'
    return line + "}"


def _reference_line(v: Verdict, phase: object) -> str:
    """The reference encoder's line for `v` with `phase` as its phase index."""
    if phase is not v.phase_index:
        v = replace(v, phase_index=phase)
    return _ENCODER.encode(verdict_record(v))
