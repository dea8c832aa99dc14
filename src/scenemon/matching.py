"""Ego-anchored subgraph matching between pattern and scene graphs.

An embedding maps every pattern node of an AbstractSceneGraph to a distinct
scene object of a ConcreteSceneGraph such that

  * the ego pattern node maps to the scene's ego object,
  * each object's class is the pattern node's class or a subclass of it,
  * every labeled pattern edge is present between the images.

The default semantics is monomorphism: the scene may contain any number of
additional edges between matched objects. `induced=True` switches to strict
induced matching where edges between images must mirror the pattern exactly.

`iter_embeddings` runs a VF2-style backtracking search. A pattern node's
candidates are the scene's `class_index` entry for its class (the ego node
has the scene ego alone), so finding them costs one lookup, not a class
test per scene object. The pattern visit order is fixed up front
(`pattern_order`): ego first, then ascending BFS distance from ego
(`pattern_distances`), then ascending candidate count, then pattern id;
scene candidates are tried in lexicographic object-id order. Enumeration order is
therefore the lexicographic order of mapped-object tuples along the visit
order, which makes results reproducible and lets callers reason about "the
first embedding". A candidate is kept when each pattern edge to a mapped
node is in the scene's edge set; there is no degree lookahead.

The search is one generator over an explicit stack that holds one
candidate iterator per depth, and the edge test is a module-level
function. A call builds no closures, so it leaves no reference cycle: once
the caller drops the generator and the scene, reference counting frees
them, and the monitor's per-(scene, property) calls give the cycle
collector nothing to do.

What depends on the pattern alone is computed once per property object,
not per call: each pattern node's BFS distance from ego (its rank in the
visit order) and the labelled pattern adjacency. These facts live on the
immutable AbstractSceneGraph (`pattern_facts`), built on first use. A call
only looks up its scene's candidates and sorts them into the visit order.

Predicate pushdown: an optional per-depth `check` sees the partial mapping
right after each pattern node is mapped and may reject it, which prunes
every completion of that partial mapping. The monitor uses it to evaluate
each predicate at the first depth where all of its pattern nodes are bound
(the feasibility rule of VF2 applied to attribute constraints). Pruning
removes subtrees without reordering the rest, so the first embedding the
checked search yields is the first embedding in matcher order that passes
every check.

`brute_force_embeddings` is an intentionally naive oracle for testing: it
enumerates the full candidate product and filters. It shares no search code
with the matcher and tests classes with `is_subclass` instead of reading
the class index; keep it that way so the two routes stay independent.
"""
from __future__ import annotations

import itertools
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterator, Mapping

from .errors import OracleSizeError, SceneValidationError
from .frozen import Frozen
from .scene_graph import AbstractSceneGraph, ConcreteSceneGraph, PatternAdjacency

ORACLE_SIZE_BOUND = 12


class Embedding(Frozen):
    """Immutable pattern-id to object-id mapping, stored sorted by pattern id."""

    mapping: tuple[tuple[str, str], ...]

    def __init__(self, mapping: tuple[tuple[str, str], ...]) -> None:
        self.__dict__.update(mapping=mapping)

    @staticmethod
    def from_dict(d: dict[str, str]) -> "Embedding":
        return Embedding(tuple(sorted(d.items())))

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)

    @cached_property
    def json_text(self) -> str:
        """`as_dict()` as JSON object text, `{"ego": "e1", ...}`, each id
        escaped as `json` escapes strings for ASCII output. Rendered on first
        use and kept in the instance dict, so a witness that many verdicts
        share renders once. A non-string id raises TypeError."""
        return "{" + ", ".join(
            [f"{_quote(pid)}: {_quote(oid)}" for pid, oid in self.as_dict().items()]) + "}"

    def __getitem__(self, pattern_id: str) -> str:
        for pid, oid in self.mapping:
            if pid == pattern_id:
                return oid
        raise KeyError(pattern_id)


def _require_same_om(asg: AbstractSceneGraph, csg: ConcreteSceneGraph) -> None:
    if asg.om is not csg.om and asg.om != csg.om:
        raise SceneValidationError(
            "pattern and scene were validated against different object models")


def candidate_pools(
    asg: AbstractSceneGraph, csg: ConcreteSceneGraph,
) -> dict[str, tuple[str, ...]]:
    """Class-compatible scene objects per pattern node, ego pinned, sorted."""
    out: dict[str, tuple[str, ...]] = {}
    for pid, cls in asg.pattern_nodes.items():
        if pid == asg.ego_pattern_id:
            ego_cls = csg.nodes[csg.ego_id].cls
            out[pid] = (csg.ego_id,) if asg.om.is_subclass(ego_cls, cls) else ()
        else:
            out[pid] = csg.class_index.get(cls, ())
    return out


def pattern_order(asg: AbstractSceneGraph, csg: ConcreteSceneGraph) -> tuple[str, ...]:
    """The matcher's static pattern-node visit order.

    Ego is always first (BFS distance 0). Remaining nodes sort by distance
    from ego in the undirected pattern, then by how few scene candidates
    they have, then by pattern id for a total order.
    """
    return _visit_order(asg, asg.pattern_facts[0], candidate_pools(asg, csg))


def _visit_order(
    asg: AbstractSceneGraph, rank: Mapping[str, int], cand: dict[str, tuple[str, ...]],
) -> tuple[str, ...]:
    return tuple(sorted(asg.pattern_nodes, key=lambda pid: (rank[pid], len(cand[pid]), pid)))


def _consistent(
    pid: str,
    oid: str,
    mapping: Mapping[str, str],
    edges: frozenset[tuple[str, str, str]],
    p_out: PatternAdjacency,
    p_in: PatternAdjacency,
    induced: bool,
    csg: ConcreteSceneGraph,
) -> bool:
    """Whether mapping `pid` to `oid` keeps every pattern edge between `pid`
    and an already mapped node (and, induced, adds no scene edge)."""
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


def iter_embeddings(
    asg: AbstractSceneGraph,
    csg: ConcreteSceneGraph,
    *,
    induced: bool = False,
    check: Callable[[str, Mapping[str, str]], bool] | None = None,
) -> Iterator[Embedding]:
    """Yield all embeddings in deterministic matcher order.

    With `check`, the search calls `check(pid, mapping)` each time it maps
    pattern node `pid`; `mapping` is the partial mapping including `pid`
    and must not be modified. A false result prunes every completion of
    that partial mapping. Without `check`, every embedding is yielded.
    """
    _require_same_om(asg, csg)
    rank, p_out, p_in = asg.pattern_facts
    cand = candidate_pools(asg, csg)
    order = _visit_order(asg, rank, cand)
    if not order:
        yield Embedding(())
        return
    edges = csg.edges
    last = len(order) - 1
    mapping: dict[str, str] = {}
    used: set[str] = set()
    # stack[d] iterates the candidates of order[d]; order[:d] is mapped
    stack: list[Iterator[str]] = [iter(cand[order[0]])]
    while stack:
        depth = len(stack) - 1
        pid = order[depth]
        for oid in stack[depth]:
            if oid in used or not _consistent(
                    pid, oid, mapping, edges, p_out, p_in, induced, csg):
                continue
            mapping[pid] = oid
            if check is not None and not check(pid, mapping):
                del mapping[pid]
                continue
            if depth == last:
                yield Embedding.from_dict(mapping)
                del mapping[pid]
                continue
            used.add(oid)
            stack.append(iter(cand[order[depth + 1]]))
            break
        else:
            stack.pop()
            if depth:
                used.discard(mapping.pop(order[depth - 1]))


def find_embeddings(
    asg: AbstractSceneGraph, csg: ConcreteSceneGraph, *, induced: bool = False,
) -> list[Embedding]:
    """All embeddings of `asg` into `csg`, in deterministic matcher order."""
    return list(iter_embeddings(asg, csg, induced=induced))


def require_oracle_size(csg: ConcreteSceneGraph) -> None:
    """Raise OracleSizeError for a scene of more than ORACLE_SIZE_BOUND
    objects, which the exhaustive matcher refuses to enumerate."""
    if len(csg.nodes) > ORACLE_SIZE_BOUND:
        raise OracleSizeError(
            f"scene has {len(csg.nodes)} nodes, oracle bound is {ORACLE_SIZE_BOUND}")


def brute_force_embeddings(
    asg: AbstractSceneGraph,
    csg: ConcreteSceneGraph,
    *,
    induced: bool = False,
) -> list[Embedding]:
    """Enumerate embeddings by exhaustive candidate product. Oracle use only.

    Independent of the search in iter_embeddings by construction: no shared
    pruning, no shared ordering. Output is sorted canonically (object ids in
    sorted-pattern-id order). A scene the oracle refuses raises
    OracleSizeError (see `require_oracle_size`).
    """
    _require_same_om(asg, csg)
    require_oracle_size(csg)
    pids = sorted(asg.pattern_nodes)
    om = asg.om
    cand_lists: list[list[str]] = []
    for pid in pids:
        if pid == asg.ego_pattern_id:
            pool = [csg.ego_id]
        else:
            pool = sorted(csg.nodes)
        cls = asg.pattern_nodes[pid]
        cand_lists.append([oid for oid in pool if om.is_subclass(csg.nodes[oid].cls, cls)])
    results: list[Embedding] = []
    for combo in itertools.product(*cand_lists):
        if len(set(combo)) != len(combo):
            continue
        mapping = dict(zip(pids, combo))
        ok = all(
            csg.has_edge(mapping[src], rel, mapping[dst])
            for src, rel, dst in asg.pattern_edges
        )
        if ok and induced:
            for (pa, oa), (pb, ob) in itertools.permutations(mapping.items(), 2):
                for rel in csg.labels_between(oa, ob):
                    if (pa, rel, pb) not in asg.pattern_edges:
                        ok = False
        if ok:
            results.append(Embedding.from_dict(mapping))
    results.sort(key=lambda e: tuple(oid for _, oid in e.mapping))
    return results


def check_embedding(
    asg: AbstractSceneGraph,
    csg: ConcreteSceneGraph,
    embedding: Embedding,
    *,
    induced: bool = False,
) -> list[str]:
    """Independently verify an embedding; returns human-readable defects.

    An empty list means the embedding is valid. Used by tests and by the
    oracle cross-check mode; intentionally re-derives every condition
    instead of trusting matcher internals.
    """
    problems: list[str] = []
    mapping = embedding.as_dict()
    if set(mapping) != set(asg.pattern_nodes):
        problems.append("mapped pattern ids do not equal declared pattern ids")
        return problems
    if len(set(mapping.values())) != len(mapping):
        problems.append("mapping is not injective")
    if mapping.get(asg.ego_pattern_id) != csg.ego_id:
        problems.append("ego pattern node is not mapped to the scene ego")
    for pid, oid in mapping.items():
        if oid not in csg.nodes:
            problems.append(f"{pid} mapped to unknown object {oid}")
            continue
        if not asg.om.is_subclass(csg.nodes[oid].cls, asg.pattern_nodes[pid]):
            problems.append(
                f"{pid}: object {oid} has class {csg.nodes[oid].cls}, "
                f"not compatible with {asg.pattern_nodes[pid]}")
    for src, rel, dst in sorted(asg.pattern_edges):
        if (mapping.get(src), rel, mapping.get(dst)) not in csg.edges:
            problems.append(f"pattern edge ({src}, {rel}, {dst}) not preserved")
    if induced:
        for (pa, oa), (pb, ob) in itertools.permutations(sorted(mapping.items()), 2):
            for rel in sorted(csg.labels_between(oa, ob)):
                if (pa, rel, pb) not in asg.pattern_edges:
                    problems.append(
                        f"scene edge ({oa}, {rel}, {ob}) has no pattern counterpart")
    return problems
