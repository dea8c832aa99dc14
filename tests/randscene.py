"""Seeded random problem instances for matcher/oracle comparison tests.

Instances stay small by default (pattern <= 4 nodes, scene <= 8 nodes) so
the exhaustive reference matcher is always applicable. Tests that compare the
search with itself can ask for larger, denser scenes, where the search
branches at more depths. Patterns are built
as spec text and run through the real parser.
"""

import random

from scenemon import SceneObject, is_relationship_allowed, make_csg, parse_asg

CONCRETE = ("Vehicle", "Static", "Lane", "Road", "ParkingSpot")
PATTERN_CLASSES = CONCRETE + ("TrafficParticipant", "Entity")
WITH_MOTION = ("Vehicle", "Static", "TrafficParticipant")
RELS = ("isIn", "isPartOf", "inFrontOf")


def _allowed(om, src_cls, dst_cls):
    return [r for r in RELS if is_relationship_allowed(om, r, src_cls, dst_cls)]


def _random_predicates(rng, classes, om):
    movers = [pid for pid, cls in classes.items() if cls in WITH_MOTION]
    preds = []
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
        num = round(rng.uniform(-2.0, 25.0), 1)
        kind = rng.random()
        if kind < 0.45 and movers:
            preds.append(f"{rng.choice(movers)}.velocity {op} {num}")
        elif kind < 0.85 and len(classes) >= 2:
            # dist over arbitrary nodes, kept only when both classes declare
            # the position it reads: the parser refuses any other. Scenes
            # reach the missing-attribute verdict through `_motion`'s gaps
            pool = movers if movers and rng.random() < 0.8 else list(classes)
            if len(pool) < 2:
                pool = list(classes)
            a, b = rng.sample(pool, 2) if len(pool) >= 2 else (pool[0], pool[0])
            if a != b and all(om.find_attribute(classes[p], "position") for p in (a, b)):
                preds.append(f"dist({a}, {b}) {op} {num}")
        elif movers:
            lo = round(rng.uniform(-2.0, 10.0), 1)
            hi = round(lo + rng.uniform(0.0, 15.0), 1)
            brackets = rng.choice((("(", ")"), ("[", "]"), ("(", "]"), ("[", ")")))
            preds.append(
                f"{rng.choice(movers)}.velocity in {brackets[0]}{lo}, {hi}{brackets[1]}")
    return preds


def random_asg(rng: random.Random, om):
    n = rng.randint(1, 4)
    names = ("ego", "n1", "n2", "n3")[:n]
    classes = {"ego": "Vehicle"}
    edges = []
    for i in range(1, n):
        pid = names[i]
        for _ in range(60):
            cls = rng.choice(PATTERN_CLASSES)
            options = []
            for j in range(i):
                other = names[j]
                ocls = classes[other]
                options += [(pid, r, other) for r in _allowed(om, cls, ocls)]
                options += [(other, r, pid) for r in _allowed(om, ocls, cls)]
            if options:
                classes[pid] = cls
                edges.append(rng.choice(options))
                break
        else:
            # every class can sit inside a Lane, so this always connects
            classes[pid] = "Lane"
            edges.append((names[rng.randrange(i)], "isIn", pid))
    for a in names:
        for b in names:
            if a == b:
                continue
            for rel in _allowed(om, classes[a], classes[b]):
                if rng.random() < 0.12:
                    edges.append((a, rel, b))

    lines = ['asg "rand" {']
    for pid in names:
        lines.append(f"  node {pid}: {classes[pid]};")
    lines.append("  ego ego;")
    for src, rel, dst in edges:
        lines.append(f"  edge {src} {rel} {dst};")
    for pred in _random_predicates(rng, classes, om):
        lines.append(f"  assert {pred};")
    lines.append("}")
    return parse_asg("\n".join(lines), om)


def _motion(rng, cls, keep):
    """Velocity and position of a moving class, each kept with probability `keep`."""
    attrs = {}
    if cls in ("Vehicle", "Static"):
        if rng.random() < keep:
            attrs["velocity"] = round(rng.uniform(0.0, 12.0), 2)
        if rng.random() < keep:
            attrs["position"] = (round(rng.uniform(-30.0, 30.0), 2),
                                 round(rng.uniform(-10.0, 10.0), 2))
    return attrs


def random_csg(rng: random.Random, om, *, max_nodes: int = 8, edge_p: float = 0.3):
    n = rng.randint(1, max_nodes)
    nodes = []
    classes = {}
    for i in range(n):
        oid = f"o{i}"
        if i == 0:
            cls = "Vehicle"
        else:
            cls = rng.choice(CONCRETE + ("Vehicle", "Static", "Lane"))
        classes[oid] = cls
        nodes.append(SceneObject(oid, cls, _motion(rng, cls, 0.85)))
    edges = []
    for a in classes:
        for b in classes:
            if a == b:
                continue
            for rel in _allowed(om, classes[a], classes[b]):
                if rng.random() < edge_p:
                    edges.append((a, rel, b))
    return make_csg(om, float(rng.randint(0, 100)), "o0", nodes, edges)


def random_instance(rng: random.Random, om, **scene):
    return random_asg(rng, om), random_csg(rng, om, **scene)


def topology_run(rng: random.Random, csg, length: int):
    """`length` scenes with `csg`'s topology (ego, objects, classes and
    edges) at rising timestamps, each with fresh velocities and positions.
    Three scenes in ten leave one of them out."""
    scenes = []
    for step in range(length):
        attrs = {oid: _motion(rng, obj.cls, 1.0) for oid, obj in csg.nodes.items()}
        carried = [(oid, name) for oid, names in attrs.items() for name in names]
        if carried and rng.random() < 0.3:
            oid, name = rng.choice(carried)
            del attrs[oid][name]
        nodes = [SceneObject(oid, obj.cls, attrs[oid]) for oid, obj in csg.nodes.items()]
        scenes.append(make_csg(csg.om, csg.timestamp + step, csg.ego_id, nodes, csg.edges))
    return scenes
