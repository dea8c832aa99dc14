"""Command line front end.

Subcommands:

* ``check``: evaluate one scene record against properties, by the loop
  ``monitor`` runs, over that one scene.
* ``monitor``: evaluate a scene stream, optionally tracking a maneuver's
  phase sequence.
* ``gen``: sample a built-in scenario script into a scene stream.
* ``export``: render a scene or property as Graphviz DOT.

Latency is measured outside the CLI: ``perfbench`` times ``gen | monitor``
end to end, and the C8 acceptance tests time single checks.

Verdicts are emitted as JSON lines on stdout (or ``--out``); diagnostics go
to stderr. Exit codes: 0 all satisfied, 1 at least one violated verdict
(under ``--phases``, a phase-sequence violation; off-phase properties are
expected to be unsatisfied), 2 usage or input validation failure, 3
evaluation errors or an oracle divergence, 141 stdout closed by its reader
(as ``| head`` does), with nothing on stderr.

``check`` and ``monitor`` share one loop over ``monitor_stream``'s rows,
each scene with its verdicts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterable, Iterator, Sequence, TextIO

from .dsl import builtin_asgs, load_asg, load_bundled_asg, scenario_names
from .errors import SceneMonError, parse_file
from .matching import brute_force_embeddings, check_embedding, find_embeddings, require_oracle_size
from .monitor import (
    PhaseAutomaton,
    Result,
    Verdict,
    monitor_stream,
    reference_verdict,
    serialize_verdict,
    verdict_record,
)
from .object_model import ObjectModel, load_object_model
from .scene_graph import (
    AbstractSceneGraph,
    ConcreteSceneGraph,
    export_dot,
    parse_scene_json,
    read_scene_stream,
    serialize_scene,
)


def _finite(text: str, low: float = -math.inf, *, strict: bool = False) -> float:
    """`text` as a finite float at or above `low`, or above it if `strict`."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > low if strict else value >= low)):
        bound = "" if low == -math.inf else f" {'above' if strict else 'at or above'} {low:g}"
        raise argparse.ArgumentTypeError(f"must be a finite number{bound}, got {text!r}")
    return value


def _kv_offset(text: str) -> tuple[str, float]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected KEY=OFFSET, got {text!r}")
    try:
        return key, _finite(value)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"offset for {key!r} {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    om_parent = argparse.ArgumentParser(add_help=False)
    om_parent.add_argument(
        "--om", default="default", metavar="PATH",
        help="object model schema file, or 'default' for the bundled one")

    props_parent = argparse.ArgumentParser(add_help=False)
    props_parent.add_argument(
        "--props", action="append", default=[], metavar="PATH",
        help="property file (.asg) or a directory of them; repeatable")
    props_parent.add_argument(
        "--builtin", action="append", default=[], metavar="NAME",
        help="bundled property by name, e.g. obstacle-ahead or P1-2; "
             "repeatable")

    eval_parent = argparse.ArgumentParser(add_help=False)
    eval_parent.add_argument(
        "--epsilon", type=lambda text: _finite(text, 0.0), default=0.0, metavar="E",
        help="comparison tolerance applied to every numeric predicate "
             "(default 0: exact)")
    eval_parent.add_argument(
        "--induced", action="store_true",
        help="require matched objects to carry no extra edges between them")
    eval_parent.add_argument(
        "--oracle", action="store_true",
        help="cross-check every verdict against the exhaustive reference "
             "matcher (small scenes only)")

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument(
        "--out", default=None, metavar="FILE",
        help="write output here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="scenemon",
        description="Check traffic scenes against scene-graph properties.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", parents=[om_parent, props_parent, eval_parent, out_parent],
        help="evaluate one scene record against properties")
    p_check.add_argument("scene", help="JSON file holding a single scene record")
    p_check.set_defaults(func=_cmd_check)

    p_monitor = sub.add_parser(
        "monitor", parents=[om_parent, props_parent, eval_parent, out_parent],
        help="evaluate a scene stream (JSON lines)",
        allow_abbrev=False)  # so a stale `--in FILE` is refused, not read as --induced
    p_monitor.add_argument(
        "stream", help="scene stream file with one record per line, or '-' for stdin")
    p_monitor.add_argument(
        "--phases", choices=scenario_names(), default=None,
        help="also track this scenario's phase sequence; its phase "
             "properties are added to the property set")
    p_monitor.set_defaults(func=_cmd_monitor)

    p_gen = sub.add_parser(
        "gen", parents=[om_parent, out_parent],
        help="generate a scene stream from a built-in scenario")
    p_gen.add_argument(
        "--scenario", required=True, choices=scenario_names())
    p_gen.add_argument(
        "--perturb", action="append", default=[], type=_kv_offset,
        metavar="KEY=OFFSET",
        help="shift one scripted safety distance by OFFSET meters during "
             "its phase; repeatable")
    p_gen.add_argument(
        "--dt", type=lambda text: _finite(text, 0.0, strict=True), default=None,
        metavar="SECONDS",
        help="override the script's sampling step")
    p_gen.set_defaults(func=_cmd_gen)

    p_export = sub.add_parser(
        "export", parents=[om_parent, out_parent],
        help="render a scene or property as Graphviz DOT")
    source = p_export.add_mutually_exclusive_group(required=True)
    source.add_argument("--scene", default=None, metavar="FILE",
                        help="JSON file holding a single scene record")
    source.add_argument("--asg", default=None, metavar="FILE",
                        help="property file to render")
    source.add_argument("--builtin", default=None, metavar="NAME",
                        help="bundled property to render")
    p_export.set_defaults(func=_cmd_export)

    return parser


@contextmanager
def _open_out(path: str | None) -> Iterator[TextIO]:
    if path is None or path == "-":
        yield sys.stdout
        sys.stdout.flush()  # a reader that left shows here, before any summary
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _open_in(path: str) -> ContextManager[TextIO]:
    """The stream `path`, or stdin for `-`. A path is read as CPython reads
    stdin in the C and C.UTF-8 locales, so both give the same lines."""
    if path == "-":
        return nullcontext(sys.stdin)
    return open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n")


def _resolve_props(
    paths: Sequence[str], builtins: Sequence[str], om: ObjectModel
) -> list[AbstractSceneGraph]:
    asgs: list[AbstractSceneGraph] = []
    for path in paths:
        if os.path.isdir(path):
            names = sorted(n for n in os.listdir(path) if n.endswith(".asg"))
            if not names:
                raise ValueError(f"no .asg files in directory {path!r}")
            for name in names:
                asgs.append(load_asg(os.path.join(path, name), om))
        else:
            asgs.append(load_asg(path, om))
    for name in builtins:
        asgs.append(load_bundled_asg(name, om))
    return asgs


def _require_unique_names(asgs: Sequence[AbstractSceneGraph]) -> None:
    seen: set[str] = set()
    for asg in asgs:
        if asg.name in seen:
            raise ValueError(f"duplicate property name {asg.name!r}")
        seen.add(asg.name)


def _oracle_problems(
    asg: AbstractSceneGraph,
    csg: ConcreteSceneGraph,
    verdict: Verdict,
    epsilon: float,
    induced: bool,
) -> list[str]:
    """Disagreements between the search matcher and the exhaustive one, the
    witness's defects, and the difference between the verdict and the one
    rebuilt from the exhaustive matcher. A verdict that equals the rebuilt
    one has a reference witness, and `no_embedding` exactly when there is
    no reference embedding, so neither is checked apart."""
    native = set(find_embeddings(asg, csg, induced=induced))
    embeddings = brute_force_embeddings(asg, csg, induced=induced)
    reference = set(embeddings)
    problems: list[str] = []
    if native != reference:
        missing = len(reference - native)
        extra = len(native - reference)
        problems.append(
            f"embedding sets differ ({missing} missing, {extra} spurious)")
    if verdict.witness is not None and (
            defects := check_embedding(asg, csg, verdict.witness, induced=induced)):
        problems.append("witness defects: " + "; ".join(defects))
    want = reference_verdict(asg, csg, epsilon, induced, embeddings=embeddings)
    if (verdict.result, verdict.cause, verdict.witness) != (want.result, want.cause, want.witness):
        problems.append(f"verdict differs: got {_outcome(verdict)}, want {_outcome(want)}")
    return problems


def _outcome(v: Verdict) -> str:
    """A verdict's result, witness and cause, as its JSON record has them."""
    rec = verdict_record(v)
    return json.dumps({k: rec[k] for k in ("result", "witness", "cause") if k in rec})


def _run_oracle(
    asgs: Sequence[AbstractSceneGraph],
    csg: ConcreteSceneGraph,
    verdicts: Sequence[Verdict],
    epsilon: float,
    induced: bool,
) -> bool:
    diverged = False
    for asg, verdict in zip(asgs, verdicts):
        for problem in _oracle_problems(asg, csg, verdict, epsilon, induced):
            diverged = True
            print(
                f"scenemon: oracle divergence: t={csg.timestamp} "
                f"property={asg.name}: {problem}",
                file=sys.stderr)
    return diverged


def _exit_code(any_violated: bool, any_error: bool, diverged: bool) -> int:
    if any_error or diverged:
        return 3
    if any_violated:
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    om = load_object_model(args.om)
    asgs = _resolve_props(args.props, args.builtin, om)
    if not asgs:
        raise ValueError("no properties given; use --props or --builtin")
    _require_unique_names(asgs)
    # before --out opens: a bad scene writes no file
    csg = parse_file(args.scene, parse_scene_json, om)
    if args.oracle:  # nor does one too large for the oracle
        require_oracle_size(csg)
    return _monitor(args, asgs, [csg])


def _cmd_monitor(args: argparse.Namespace) -> int:
    om = load_object_model(args.om)
    asgs = _resolve_props(args.props, args.builtin, om)
    phase_asgs = () if args.phases is None else builtin_asgs(args.phases, om)
    asgs += phase_asgs
    if not asgs:
        raise ValueError(
            "no properties given; use --props, --builtin or --phases")
    _require_unique_names(asgs)
    with _open_in(args.stream) as stream:
        return _monitor(args, asgs, read_scene_stream(stream, om), phase_asgs)


def _monitor(
    args: argparse.Namespace,
    asgs: Sequence[AbstractSceneGraph],
    scenes: Iterable[ConcreteSceneGraph],
    phase_asgs: Sequence[AbstractSceneGraph] = (),
) -> int:
    """Check `scenes` against `asgs`, write each scene's verdict lines to
    `--out`, cross-check them under `--oracle`, and return the exit code.
    `phase_asgs`, the last of `asgs`, are tracked by a phase automaton,
    whose summary goes to stderr."""
    automaton = PhaseAutomaton(tuple(a.name for a in phase_asgs)) if phase_asgs else None
    plain = len(asgs) - len(phase_asgs)  # each row's verdicts before the phase ones
    any_violated = any_error = diverged = False
    phase = None  # the automaton's index, written into each verdict line
    violated, error = Result.VIOLATED, Result.ERROR  # locals: no Enum lookup per verdict
    with _open_out(args.out) as out:
        for csg, verdicts in monitor_stream(asgs, scenes, epsilon=args.epsilon,
                                            induced=args.induced):
            if automaton is not None:
                automaton = automaton.step({v.property_name: v for v in verdicts[plain:]})
                phase = automaton.index
            if args.oracle:
                diverged |= _run_oracle(asgs, csg, verdicts, args.epsilon, args.induced)
            # one write per scene, after its last check and before the next read
            out.write("".join([serialize_verdict(v, phase_index=phase) + "\n" for v in verdicts]))
            # a phase property being unsatisfied off-phase is expected; the
            # automaton decides whether the sequence was violated
            for verdict in verdicts[:plain]:
                any_violated |= verdict.result is violated
            for verdict in verdicts:
                any_error |= verdict.result is error
    if automaton is not None:
        any_violated |= automaton.violations > 0
        gaps = f"gaps={automaton.gaps} " if automaton.gaps else ""
        print(
            f"scenemon: phases {args.phases}: completed={automaton.completed} "
            f"final={automaton.current_phase} "
            f"violations={automaton.violations} {gaps}"
            f"dwell={list(automaton.dwell)}",
            file=sys.stderr)
    return _exit_code(any_violated, any_error, diverged)


def _cmd_gen(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .scenarios import builtin_script, iter_trace  # only gen loads the generator

    om = load_object_model(args.om)
    script = builtin_script(args.scenario, offsets=dict(args.perturb))
    if args.dt is not None:
        script = replace(script, dt=args.dt)
    with _open_out(args.out) as out:
        for csg in iter_trace(script, om):
            print(serialize_scene(csg), file=out)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    om = load_object_model(args.om)
    if args.scene is not None:
        graph: ConcreteSceneGraph | AbstractSceneGraph = parse_file(
            args.scene, parse_scene_json, om)
    elif args.asg is not None:
        graph = load_asg(args.asg, om)
    else:
        graph = load_bundled_asg(args.builtin, om)
    with _open_out(args.out) as out:
        out.write(export_dot(graph))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader of stdout left, as `| head` does: end quietly with the
        # status a shell gives a process SIGPIPE killed. What stdout still
        # buffers goes to devnull, so the exit-time flush raises nothing
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (SceneMonError, ValueError, OSError) as exc:
        print(f"scenemon: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
