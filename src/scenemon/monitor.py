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

Predicate pushdown: past the first embedding, a search evaluates each
predicate at the first depth where all its pattern nodes are bound and
prunes the subtree below a false one. A predicate that hits missing data
reads as false: its embeddings are not all-true, so no witness is pruned,
whatever the data. Only an embedding that maps a gap object, a candidate
lacking an attribute the predicates read from its node, can hit missing
data; a second search, kept to those, finds the errors.

Topology reuse: the embeddings in matcher order depend only on the
pattern, `induced` and what the matcher reads of the scene: its object
model, ego, class index and edge set. From one snapshot to the next,
positions and velocities change but lanes and relations rarely do. So
`monitor_stream` owns a memo, passed to each check, and starts a fresh
one when a scene's topology differs from the previous scene's (along a
run that `read_scene_stream` parsed, an identity test). A direct call has
no memo; no scene is written. The memo dies with the stream. An entry
(`_Embeddings`) holds the property, so its id, the key, is not reused
while the entry lives, and the first embedding or None, with that
embedding's pattern id -> object id mapping, built once per topology for
every scene of the run to evaluate. It learns on demand whether that is
the only embedding: it keeps the search that found the first one until a
check asks, then pulls one more embedding from it and keeps the answer in
its place.

A check runs three stages:
  1. The first embedding. A hit looks its entry up; a miss builds one and
     files it, given a memo. None gives `no_embedding`, with one shared
     cause. Otherwise it is evaluated on this scene: satisfied returns (on
     a hit, with no search built), and a failure or an error is recorded.
  2. The witness search, unless a hit's first embedding is the only one and
     decides. If it finds nothing after an error, that error decides: the
     first embedding is first in matcher order.
  3. The error search, after a failure, if the scene holds a gap object.
     The first of its yields that hits missing data gives the error;
     otherwise the failure decides. Its check prunes a partial mapping
     that cannot reach a gap object, or on which a predicate is false
     before any raises: evaluation stops there on every completion.

What depends on the property alone is computed once per property object
and epsilon, and kept on the property (`AbstractSceneGraph.plans`): the
compiled predicates (`predicates.compile_predicates`), the attributes they
read per pattern node, the pushdown schedule of which predicates fall
due when a pattern node is mapped, and each predicate's `predicate_failed`
cause, shared by every verdict that reports it. Per scene, only the
search, the evaluations and the verdict remain.

A verdict line is written from fragments rendered once per shared object:
each `Cause` caches its cause field (`Cause.json_field`) and each
`Embedding` its JSON object text (`Embedding.json_text`). A plan's causes
and `_NO_EMBEDDING` serve every verdict that reports them, and a memo
entry's first embedding is the witness of every scene of its run that it
satisfies, so their text is rendered once, not once a line.

`monitor_stream` applies a list of properties to a time-ordered scene
stream, yielding one row per scene, the scene with its verdicts in property
order, before the next scene is consumed. `PhaseAutomaton` layers
maneuver-sequence tracking on top, stepped on each row's verdicts: phases
advance only when the successor phase is satisfied, never skipping. A
scene satisfying neither the current nor the next phase is a stream-level
violation when both are violated, and a gap when either is an error: a
data gap is inconclusive, not a violation.
"""
from __future__ import annotations

import json
import math
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import MissingAttributeError, StreamOrderError
from .frozen import Frozen
from .matching import (Embedding, brute_force_embeddings, candidate_pools, iter_embeddings,
                       pattern_order)
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


class Cause(Frozen):
    kind: CauseKind
    index: int | None  # failing predicate index, for PREDICATE_FAILED
    ref: str | None  # "<pattern-id>.<attr>", for MISSING_ATTRIBUTE

    def __init__(self, kind: CauseKind, index: int | None = None, ref: str | None = None) -> None:
        self.__dict__.update(kind=kind, index=index, ref=ref)

    @staticmethod
    def no_embedding() -> "Cause":
        return _NO_EMBEDDING

    @staticmethod
    def predicate_failed(index: int) -> "Cause":
        return Cause(CauseKind.PREDICATE_FAILED, index=index)

    @staticmethod
    def missing_attribute(ref: str) -> "Cause":
        return Cause(CauseKind.MISSING_ATTRIBUTE, ref=ref)

    @cached_property
    def json_field(self) -> str:
        """The verdict line's cause field, `, "cause": {...}`, rendered on
        first use and kept in the instance dict, so a shared cause renders
        once. `serialize_verdict` reads it only after its type guard has
        checked `kind` and `index`; a `ref` that is not a string raises
        TypeError and caches nothing."""
        text = f', "cause": {{"kind": "{self.kind.value}"'
        if self.index is not None:
            text += f', "index": {self.index!r}'
        if self.ref is not None:
            text += f', "ref": {_quote(self.ref)}'
        return text + "}"


_NO_EMBEDDING = Cause(CauseKind.NO_EMBEDDING)  # frozen: one serves every verdict
# the members as module constants: a global read is cheaper than an Enum
# class-attribute lookup, on every verdict
_SATISFIED, _VIOLATED, _ERROR = Result.SATISFIED, Result.VIOLATED, Result.ERROR


class Verdict(Frozen):
    timestamp: float
    property_name: str
    result: Result
    witness: Embedding | None
    cause: Cause | None

    def __init__(self, timestamp: float, property_name: str, result: Result,
                 witness: Embedding | None = None, cause: Cause | None = None) -> None:
        self.__dict__.update(timestamp=timestamp, property_name=property_name, result=result,
                             witness=witness, cause=cause)

    @property
    def satisfied(self) -> bool:
        return self.result is _SATISFIED


def sg_comparison(
    asg: AbstractSceneGraph,
    csg: ConcreteSceneGraph,
    *,
    epsilon: float = 0.0,
    induced: bool = False,
    memo: dict[int, _Embeddings] | None = None,
) -> Verdict:
    """Decide whether one scene satisfies one property, in the three stages
    of the module docstring. `memo` serves one topology and one `induced`;
    a miss files its `_Embeddings` there. None searches from scratch."""
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite number at or above 0, got {epsilon!r}")
    predicates, reads, due, in_order, causes = (
        asg.plans.get(epsilon) or _property_plan(asg, epsilon))
    # 1. the first embedding, from the memo's entry or a new one
    entry = None if memo is None else memo.get(id(asg))
    hit = entry is not None
    if not hit:
        entry = _Embeddings(asg, csg, induced)
        if memo is not None:
            # the embeddings depend on the pattern, the topology and `induced`;
            # a memo serves one topology and one `induced`, so the pattern keys it
            memo[id(asg)] = entry
    first = entry.first
    if first is None:
        return Verdict(csg.timestamp, asg.name, _VIOLATED, None, _NO_EMBEDDING)
    nodes = csg.nodes
    try:
        idx = _first_false(predicates, nodes, entry.mapping)
    except MissingAttributeError as exc:
        result, cause = _ERROR, Cause.missing_attribute(exc.ref)
    else:
        if idx is None:
            return Verdict(csg.timestamp, asg.name, _SATISFIED, first)
        cause = causes[idx]  # the plan's shared cause
        result = _VIOLATED
    if hit and entry.only():  # the first embedding is the only one: it decides
        return Verdict(csg.timestamp, asg.name, result, None, cause)
    # 2. the witness search, on every scene
    witness = next(iter_embeddings(
        asg, csg, induced=induced, check=_witness_check(nodes, due)), None)
    if witness is not None:
        return Verdict(csg.timestamp, asg.name, _SATISFIED, witness)
    check = _gap_check(asg, csg, reads, in_order) if result is _VIOLATED else None
    if check is not None:  # 3. the error search
        for emb in iter_embeddings(asg, csg, induced=induced, check=check):
            try:
                _first_false(predicates, nodes, emb.as_dict())
            except MissingAttributeError as exc:
                return Verdict(csg.timestamp, asg.name, _ERROR, None,
                               Cause.missing_attribute(exc.ref))
    return Verdict(csg.timestamp, asg.name, result, None, cause)


class _Embeddings:
    """A property's embeddings into one topology, as far as checks need
    them: the first in matcher order, or None, with its pattern id ->
    object id mapping, and whether it is the only one. `asg` is held so
    that the memo key, its id, stays its own."""

    __slots__ = ("asg", "first", "mapping", "_rest")

    def __init__(self, asg: AbstractSceneGraph, csg: ConcreteSceneGraph, induced: bool) -> None:
        self.asg = asg
        self._rest: Iterator[Embedding] | bool = iter_embeddings(asg, csg, induced=induced)
        self.first = next(self._rest, None)
        self.mapping = None if self.first is None else self.first.as_dict()  # read only

    def only(self) -> bool:
        """Whether `first` is the topology's only embedding. The first call
        pulls one more embedding from the search and keeps the answer in
        its place, which frees the search and the scene it holds."""
        rest = self._rest
        if rest.__class__ is not bool:
            rest = self._rest = next(rest, None) is None
        return rest


def _first_false(
    predicates: Sequence[Compiled], nodes: Mapping[str, SceneObject], mapping: Mapping[str, str],
) -> int | None:
    """Index of the first predicate that fails on `mapping`, None if all hold."""
    for idx, pred in enumerate(predicates):
        if not pred(nodes, mapping):
            return idx
    return None


_Reads = tuple[tuple[str, frozenset[str]], ...]  # attributes read, per pattern node
_Scheduled = tuple[tuple[frozenset[str], Compiled], ...]  # (pattern ids, predicate) pairs
_Due = dict[str, _Scheduled]  # per pattern node
_Check = Callable[[str, Mapping[str, str]], bool]  # a search's per-depth check


def _property_plan(
    asg: AbstractSceneGraph, epsilon: float,
) -> tuple[tuple[Compiled, ...], _Reads, _Due, _Scheduled, tuple[Cause, ...]]:
    """What checking a property needs that depends on the property alone,
    built for one epsilon and kept in `asg.plans`, where checks look it up
    before they call this: the compiled predicates in declaration order,
    their read set, the pushdown schedule, each predicate with its pattern
    ids in declaration order, and the `predicate_failed` cause of each
    predicate, shared by every verdict as `_NO_EMBEDDING` is. The tables
    are shared: read only. Two threads may both build a plan: the plans are
    equal, and either is kept.

    A predicate is filed under each of its pattern nodes and becomes due
    when the last of them is mapped; one with no node refs is due at depth
    0, where the ego is mapped.
    """
    compiled = compile_predicates(asg.predicates, epsilon=epsilon)
    in_order = tuple((pred.pattern_ids(), fn) for pred, fn in zip(asg.predicates, compiled))
    due: dict[str, list[tuple[frozenset[str], Compiled]]] = {}
    for ids, fn in in_order:
        for pid in ids or (asg.ego_pattern_id,):
            due.setdefault(pid, []).append((ids, fn))
    plan = asg.plans[epsilon] = (
        compiled, tuple(attribute_reads(asg.predicates).items()),
        {pid: tuple(v) for pid, v in due.items()}, in_order,
        tuple(Cause.predicate_failed(i) for i in range(len(compiled))))
    return plan


def _witness_check(nodes: Mapping[str, SceneObject], due: _Due) -> _Check:
    """The witness search's per-depth check: every predicate that falls due
    holds. One that hits missing data reads as false: it is not all-true."""
    def check(pid: str, mapping: Mapping[str, str]) -> bool:
        try:
            for ids, pred in due.get(pid, ()):
                if ids <= mapping.keys() and not pred(nodes, mapping):
                    return False
        except MissingAttributeError:
            return False
        return True

    return check


def _gap_check(
    asg: AbstractSceneGraph, csg: ConcreteSceneGraph, reads: _Reads, in_order: _Scheduled,
) -> _Check | None:
    """The error search's per-depth check, or None when the gap table is
    empty. The table lists, per pattern node, the candidates that lack an
    attribute the predicates read from that node. A partial mapping is kept
    while a node in the table is mapped to one of its gap objects, or is
    still unmapped, unless a false predicate settles it: the predicates are
    walked in declaration order while all of a predicate's nodes are mapped.
    A false one prunes, as `_first_false` stops there on every completion
    before a later predicate can raise. One that raises, or one not yet
    bound, ends the walk and keeps the mapping."""
    pools, nodes = candidate_pools(asg, csg), csg.nodes
    gaps = {}
    for pid, names in reads:
        objs = {oid for oid in pools[pid] if not names <= nodes[oid].attributes.keys()}
        if objs:
            gaps[pid] = objs
    if not gaps:
        return None

    def check(pid: str, mapping: Mapping[str, str]) -> bool:
        for q, objs in gaps.items():
            oid = mapping.get(q)
            if oid is None or oid in objs:
                break
        else:
            return False
        try:
            for ids, pred in in_order:
                if not ids <= mapping.keys():
                    break
                if not pred(nodes, mapping):
                    return False
        except MissingAttributeError:
            pass
        return True

    return check


def reference_verdict(
    asg: AbstractSceneGraph, csg: ConcreteSceneGraph, epsilon: float = 0.0, induced: bool = False,
    *, embeddings: Iterable[Embedding] | None = None,
) -> Verdict:
    """The verdict `sg_comparison` must give, rebuilt without its search,
    memo, compiled predicates or pushdown: the exhaustive matcher's
    embeddings sorted into matcher order, each bound and evaluated by the
    tree-walking evaluator. For tests and `--oracle`; oracle-sized scenes.
    `embeddings` is `brute_force_embeddings`' result for these arguments,
    when the caller has it; None computes it."""
    if embeddings is None:
        embeddings = brute_force_embeddings(asg, csg, induced=induced)
    order = pattern_order(asg, csg)
    embs = sorted(embeddings, key=lambda e: tuple(e[p] for p in order))
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
) -> Iterator[tuple[ConcreteSceneGraph, tuple[Verdict, ...]]]:
    """Yield one `(scene, verdicts)` row per scene, online.

    `verdicts` holds the scene's verdicts in property declaration order,
    all decided before the next scene is pulled from the iterable; with no
    properties it is empty. A timestamp lower than its predecessor raises
    StreamOrderError; equal timestamps are allowed (two snapshots may
    legitimately coincide).
    """
    last: ConcreteSceneGraph | None = None  # the loop holds it until the next scene anyway
    for csg in scenes:
        if last is not None and csg.timestamp < last.timestamp:
            raise StreamOrderError(
                f"scene timestamp {csg.timestamp} after {last.timestamp} is out of order")
        if last is None or not _same_topology(csg, last):
            memo: dict[int, _Embeddings] = {}  # for csg's topology and `induced`
        last = csg
        yield csg, tuple([sg_comparison(asg, csg, epsilon=epsilon, induced=induced, memo=memo)
                          for asg in asgs])


def _same_topology(a: ConcreteSceneGraph, b: ConcreteSceneGraph) -> bool:
    """Whether the matcher sees the same graph in both scenes: the same
    object model object, ego, class index and edge set. The ego's class
    follows from the class index, so every embedding, in order, is shared."""
    return (a.om is b.om and a.ego_id == b.ego_id
            and (a.class_index is b.class_index or a.class_index == b.class_index)
            and (a.edges is b.edges or a.edges == b.edges))


class PhaseAutomaton(Frozen):
    """Progress tracker over an ordered phase sequence.

    `step` consumes the per-scene verdicts and returns the successor state:
    advance by one when the next phase is satisfied, stay when the current
    phase still is, otherwise stay and count the scene. It counts as a
    stream-level violation when the current verdict and the next one (if
    any) are both `violated`, and as a gap when either is an `error`: a data
    gap leaves the scene inconclusive, like LTL3's "?" verdict, and never
    reads as a violation. The phase index never decreases and never skips.
    `completed` latches once the final phase is satisfied while current.
    A state `step` could not take raises ValueError when constructed: no
    phases, repeated phase names, an index that is not an int in range, or
    a given `dwell` without one count per phase.
    """

    phases: tuple[str, ...]
    index: int
    dwell: tuple[int, ...]
    completed: bool
    violations: int
    gaps: int

    def __init__(self, phases: tuple[str, ...], index: int = 0, dwell: tuple[int, ...] = (),
                 completed: bool = False, violations: int = 0, gaps: int = 0) -> None:
        n = len(phases)
        if not n:
            raise ValueError("phase automaton needs at least one phase")
        if len(set(phases)) != n:
            raise ValueError(f"phase names must be unique, got {phases!r}")
        if not (type(index) is int and 0 <= index < n):
            raise ValueError(f"phase index {index!r} is not an int in 0..{n - 1}")
        if dwell and len(dwell) != n:
            raise ValueError(f"dwell {dwell!r} needs one count per phase, {n}")
        self.__dict__.update(phases=phases, index=index, dwell=dwell or (0,) * n,
                             completed=completed, violations=violations, gaps=gaps)

    @property
    def current_phase(self) -> str:
        return self.phases[self.index]

    def step(self, verdicts: Mapping[str, Verdict]) -> "PhaseAutomaton":
        phases, index, completed = self.phases, self.index, self.completed
        last = len(phases) - 1
        name = phases[index]
        try:  # one lookup per verdict
            current = verdicts[name]
            nxt = None
            if index < last:
                name = phases[index + 1]
                nxt = verdicts[name]
        except KeyError:
            raise ValueError(f"no verdict provided for phase {name!r}") from None
        violations, gaps = self.violations, self.gaps
        if nxt is not None and nxt.satisfied:
            index += 1
            completed = completed or index == last
        elif current.satisfied:
            completed = completed or index == last
        elif current.result is _ERROR or nxt is not None and nxt.result is _ERROR:
            gaps += 1
        else:
            violations += 1
        dwell = list(self.dwell)
        dwell[index] += 1
        return PhaseAutomaton(phases, index, tuple(dwell), completed, violations, gaps)


# -- verdict records -------------------------------------------------------


def verdict_record(v: Verdict, phase_index: object = None) -> dict:
    """JSON-ready record; field order is fixed for byte-stable output.
    `phase_index`, the phase automaton's index when one tracks the stream,
    is stamped last as the `phase_index` field; None leaves it out."""
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
    if phase_index is not None:
        rec["phase_index"] = phase_index
    return rec


_ENCODER = json.JSONEncoder(separators=(", ", ": "), allow_nan=False)
_RESULT_FIELDS = {r: f', "result": "{r.value}"' for r in Result}


def serialize_verdict(v: Verdict, *, phase_index: object = None) -> str:
    """`verdict_record(v, phase_index)` as one line of JSON: the verdict,
    stamped with the phase index unless it is None.

    The reference is `_ENCODER.encode(verdict_record(v, phase_index))`. The line is built
    from a fixed template in the record's field order instead: strings are
    escaped as that encoder escapes them, a finite float timestamp and an
    exact int index are written with their repr, and each result and cause
    kind is a literal. The witness and cause fields are fragments cached on
    the shared objects (`Embedding.json_text`, `Cause.json_field`), so a
    memo entry's witness and a plan's cause render once, not once a line.
    Any other value (a timestamp that is not a finite float, a number that
    is not an exact int, a result or kind that is not the enum, a witness or
    cause of another type, a string field holding a non-string) goes to the
    reference, so every verdict gives the reference's bytes or raises its
    exception. The reference reads no cache.
    """
    t, result, witness, cause = v.timestamp, v.result, v.witness, v.cause
    if (type(t) is not float or not -math.inf < t < math.inf or type(result) is not Result
            or witness is not None and type(witness) is not Embedding
            or cause is not None and (
                type(cause) is not Cause or type(cause.kind) is not CauseKind
                or cause.index is not None and type(cause.index) is not int)
            or phase_index is not None and type(phase_index) is not int):
        return _ENCODER.encode(verdict_record(v, phase_index))
    try:
        line = f'{{"t": {t!r}, "property": {_quote(v.property_name)}{_RESULT_FIELDS[result]}'
        if witness is not None:
            line += ', "witness": ' + witness.json_text
        if cause is not None:
            line += cause.json_field
    except (TypeError, ValueError):  # a field the template cannot write: the reference decides
        return _ENCODER.encode(verdict_record(v, phase_index))
    if phase_index is not None:
        line += f', "phase_index": {phase_index!r}'
    return line + "}"
