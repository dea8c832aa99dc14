"""Correctness check of the monitor's verdict streams, run after timing.

Every scene fed to the monitor is judged on its own: it passes only when
all of its verdict lines are present and right. A stream whose exit code or
phase summary is wrong fails every scene it fed.

* Phase streams are checked against a reference built independently of
  the search: `brute_force_embeddings` plus `bind`/`evaluate` give each
  (scene, property) result class, and a small re-implementation of the
  phase rule gives each scene's phase index and the stream's summary.
* Dense streams are checked against the result classes their generator
  guarantees (`workloads.DENSE_EXPECTED`).
* Every witness is re-checked with `check_embedding`, and every predicate
  must hold on it.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from scenemon import (
    AbstractSceneGraph,
    ConcreteSceneGraph,
    Embedding,
    MissingAttributeError,
    bind,
    brute_force_embeddings,
    check_embedding,
    evaluate,
    load_bundled_asg,
)

from workloads import NO_EMBEDDING, PREDICATE_FAILED, SATISFIED, Stream

SUMMARY = re.compile(
    r"phases (\S+): completed=(True|False) final=(\S+) violations=(\d+)")


@dataclass
class Reference:
    """What one phase stream's verdicts and summary must be."""

    classes: list[dict[str, tuple[str, str | None]]]
    # predicate indices some embedding fails first, per scene and property;
    # the monitor reports the one of the first embedding in matcher order
    fail_indices: list[dict[str, set[int]]]
    phase_index: list[int]
    completed: bool
    violations: int


@dataclass
class Checker:
    """Checks streams; caches references and verified outputs across passes."""

    om: object
    asgs: dict[str, AbstractSceneGraph] = field(default_factory=dict)
    references: dict[str, Reference] = field(default_factory=dict)
    verified: dict[str, str] = field(default_factory=dict)
    witnesses: set = field(default_factory=set)

    def asg(self, name: str) -> AbstractSceneGraph:
        if name not in self.asgs:
            self.asgs[name] = load_bundled_asg(name, self.om)
        return self.asgs[name]

    # -- reference -----------------------------------------------------

    def reference_class(self, asg: AbstractSceneGraph, csg: ConcreteSceneGraph):
        embeddings = brute_force_embeddings(asg, csg)
        if not embeddings:
            return NO_EMBEDDING, set()
        failed: set[int] = set()
        error = False
        for emb in embeddings:
            try:
                ok, idx = evaluate(asg.predicates, bind(emb, csg))
            except MissingAttributeError:
                error = True
                continue
            if ok:
                return SATISFIED, set()
            failed.add(idx)
        if error:
            return ("error", "missing_attribute"), set()
        return PREDICATE_FAILED, failed

    def reference(self, stream: Stream) -> Reference:
        if stream.name in self.references:
            return self.references[stream.name]
        phases = stream.properties
        classes, fail_indices, phase_index = [], [], []
        index, completed, violations = 0, False, 0
        for csg in stream.scenes:
            row, fails = {}, {}
            for name in phases:
                row[name], fails[name] = self.reference_class(self.asg(name), csg)
            classes.append(row)
            fail_indices.append(fails)
            sat = [row[name] == SATISFIED for name in phases]
            if index + 1 < len(phases) and sat[index + 1]:
                index += 1
            elif not sat[index]:
                violations += 1
            completed = completed or (index == len(phases) - 1 and sat[index])
            phase_index.append(index)
        ref = Reference(classes, fail_indices, phase_index, completed, violations)
        self.references[stream.name] = ref
        return ref

    # -- per-line checks -----------------------------------------------

    def witness_ok(self, name: str, csg: ConcreteSceneGraph, witness) -> bool:
        if not isinstance(witness, dict):
            return False
        key = (name, id(csg), tuple(sorted(witness.items())))
        if key in self.witnesses:
            return True
        asg = self.asg(name)
        emb = Embedding.from_dict(witness)
        if check_embedding(asg, csg, emb):
            return False
        try:
            if evaluate(asg.predicates, bind(emb, csg)) != (True, None):
                return False
        except MissingAttributeError:
            return False
        self.witnesses.add(key)
        return True

    def line_ok(self, line: str, t: float, name: str, csg: ConcreteSceneGraph,
                expected: tuple[str, str | None], fail_indices: set[int] | None,
                phase_index: int | None) -> bool:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            return False
        if not isinstance(rec, dict) or rec.get("t") != t:
            return False
        if rec.get("property") != name or rec.get("phase_index") != phase_index:
            return False
        cause = rec.get("cause")
        kind = cause.get("kind") if isinstance(cause, dict) else None
        if (rec.get("result"), kind) != expected:
            return False
        if expected == SATISFIED:
            return "cause" not in rec and self.witness_ok(name, csg, rec.get("witness"))
        if "witness" in rec:
            return False
        if expected == PREDICATE_FAILED:
            index = cause.get("index")
            if fail_indices is not None:
                return index in fail_indices
            return (isinstance(index, int)
                    and 0 <= index < len(self.asg(name).predicates))
        return True

    # -- streams -------------------------------------------------------

    def check(self, stream: Stream, fed: int, output: str, rc: int | None,
              stderr: str) -> int:
        """Number of the stream's scenes whose verdicts are not all correct.

        Scenes the monitor did not pull (`fed` counts those it did) fail.
        """
        attempted = len(stream.scenes)
        if output == self.verified.get(stream.name):
            if fed == attempted and self.summary_ok(stream, rc, stderr):
                return 0
        lines = output.splitlines()
        k = len(stream.properties)
        ref = self.reference(stream) if stream.phases is not None else None
        failed = 0
        for i in range(fed):
            csg = stream.scenes[i]
            t = csg.timestamp
            scene_lines = lines[i * k:(i + 1) * k]
            ok = len(scene_lines) == k
            for j, name in enumerate(stream.properties):
                if not ok:
                    break
                if ref is not None:
                    ok = self.line_ok(scene_lines[j], t, name, csg,
                                      ref.classes[i][name],
                                      ref.fail_indices[i][name],
                                      ref.phase_index[i])
                else:
                    ok = self.line_ok(scene_lines[j], t, name, csg,
                                      stream.expected[name], None, None)
            failed += not ok
        if len(lines) != fed * k or not self.summary_ok(stream, rc, stderr):
            return attempted
        if failed == 0 and fed == attempted:
            self.verified[stream.name] = output
        return failed + attempted - fed

    def summary_ok(self, stream: Stream, rc: int | None, stderr: str) -> bool:
        if stream.phases is None:
            # dense streams: P1-1 has no embedding, so some verdict is violated
            return rc == 1 and stderr == ""
        ref = self.reference(stream)
        # the workload itself is wrong if a nominal stream does not complete
        # cleanly or a perturbation fails to break its phase
        if stream.perturbed:
            if ref.violations == 0:
                return False
        elif not ref.completed or ref.violations:
            return False
        match = SUMMARY.search(stderr)
        if match is None or match.group(1) != stream.phases:
            return False
        completed = match.group(2) == "True"
        violations = int(match.group(4))
        expected_rc = 1 if ref.violations else 0
        return (rc == expected_rc and completed == ref.completed
                and violations == ref.violations
                and match.group(3) == stream.properties[ref.phase_index[-1]])
