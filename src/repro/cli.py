"""Command-line front end: ``repro`` and its ``lotos-pg`` alias.

``repro`` is one argparse tree with four subcommands::

    repro lint service.lotos                    # static analysis only
    repro lint service.lotos --format json      # machine-readable output
    repro lint --list-rules                     # the rule catalogue
    repro derive service.lotos [flags]          # lint warnings + derivation
    repro derive service.lotos --trace          # span tree on stderr
    repro derive service.lotos --stats=json     # metrics snapshot on stderr
    repro profile service.lotos                 # consolidated JSON report
    repro batch corpus/                         # cached corpus run
    repro --version

``repro derive`` is the Protocol Generator: it reads a service
specification (file, or stdin for ``-``), checks it, derives the
protocol entity specification of every place, and optionally verifies
the correctness theorem, reports message complexity, or executes random
schedules::

    repro derive service.lotos --place 2        # one entity
    repro derive service.lotos --verify         # Section 5 check
    repro derive service.lotos --complexity     # Section 4.3 counts
    repro derive service.lotos --run 5          # execute 5 schedules
    repro derive service.lotos --attributes     # SP/EP/AP table (Fig. 4)

``lotos-pg ARGS`` is the original name of the tool and runs
``repro derive ARGS``.

Diagnostic output (lint warnings, traces, stats, digests) goes to
stderr so stdout stays pipeable; ``--quiet`` silences the informational
stderr chatter of every subcommand.  Exit codes: 0 ok, 1 a failed
derivation/spec (or lint findings), 2 a usage error or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List, Optional, Sequence, Tuple

from repro import __version__
from repro.core.complexity import analyze
from repro.core.generator import derive_protocol
from repro.errors import ReproError
from repro.lotos.unparse import unparse_behaviour
from repro.runtime import build_system, check_run, random_run

COMMANDS = ("lint", "derive", "profile", "batch")


class _RootExit(SystemExit):
    """An exit of the root parser, returned (not raised) by :func:`repro_main`."""


class _ReproParser(argparse.ArgumentParser):
    # ``repro --help``, ``repro --version`` and root usage errors become
    # return codes of repro_main; subcommand parsers are plain
    # ArgumentParsers and raise SystemExit as argparse always does.
    def exit(self, status: int = 0, message: Optional[str] = None):
        if message:
            self._print_message(message, sys.stderr)
        raise _RootExit(status)


class _UsageError(Exception):
    """Bad input found after parsing (an unreadable file, no specs given):
    reported as ``error: ...`` with exit code 2."""


def _number(convert: Callable[[str], float], minimum: float):
    """An argparse ``type=`` that rejects values below ``minimum``, so a
    bad value is a usage error at parse time."""

    def parse(text: str):
        value = convert(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value

    parse.__name__ = convert.__name__  # "invalid int value: 'x'"
    return parse


_COUNT = _number(int, 0)


def make_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser; each subcommand names its ``handler``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet",
        action="store_true",
        help="suppress informational stderr output (lint warnings, "
        "digests); `repro lint --quiet` prints nothing and its exit "
        "status is the verdict",
    )
    common.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )

    parser = _ReproParser(
        prog="repro",
        description="Derive protocol entity specifications from LOTOS "
        "service specifications (Kant/Higashino/Bochmann algorithm).",
    )
    parser.add_argument(
        "-V", "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(
        title="commands", dest="command", parser_class=argparse.ArgumentParser
    )
    _add_lint(commands, common)
    _add_derive(commands, common)
    _add_profile(commands, common)
    _add_batch(commands, common)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``lotos-pg``: the original name of ``repro derive``."""
    return repro_main(["derive", *(sys.argv[1:] if argv is None else argv)])


def repro_main(argv: Optional[Sequence[str]] = None) -> int:
    arguments: List[str] = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    try:
        command = arguments[0] if arguments else "-"
        if command not in COMMANDS and not command.startswith("-"):
            print(f"error: unknown command {command!r}", file=sys.stderr)
            parser.print_usage(sys.stderr)
            return 2
        try:
            args = parser.parse_args(arguments)
        except _RootExit as exc:
            return exc.code
        if args.command is None:
            parser.print_help()
            return 2
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # A downstream reader (`repro lint ... | head`) closed stdout
        # early.  Swallow the write error and keep the interpreter's
        # shutdown flush from raising again, instead of a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _read_spec(path: str) -> Tuple[str, str]:
    """The text of a specification file (stdin for ``-``) and its display name."""
    try:
        if path == "-":
            return sys.stdin.read(), "<stdin>"
        with open(path, encoding="utf-8") as handle:
            return handle.read(), path
    except OSError as exc:
        raise _UsageError(exc) from exc


# ----------------------------------------------------------------------
# ``repro lint``
# ----------------------------------------------------------------------
def _add_lint(commands, common: argparse.ArgumentParser) -> None:
    parser = commands.add_parser(
        "lint",
        parents=[common],
        help="static analysis of a service specification",
        description="Static analysis of LOTOS service specifications: "
        "admissibility (R1-R3, grammar) plus lint rules for legal-but-"
        "suspect constructs.  See docs/lint.md for the rule catalogue.",
    )
    parser.add_argument(
        "specs",
        nargs="*",
        help="specification files, or '-' for stdin",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json follows the stable schema in docs/lint.md)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings, not only on errors",
    )
    parser.add_argument(
        "--mixed-choice",
        action="store_true",
        help="lint for a --mixed-choice derivation (arbiter-resolvable "
        "R1 violations and L009 are not reported)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.set_defaults(handler=_lint)


def _lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import RULES, lint_text

    if args.list_rules:
        for rule in sorted(RULES.values(), key=lambda r: r.id):
            print(f"{rule.id}  {rule.name:<26} {rule.severity:<8} {rule.summary}")
        return 0
    if not args.specs:
        raise _UsageError("no specification files given")

    results = []
    for path in args.specs:
        text, source = _read_spec(path)
        results.append(
            lint_text(text, source=source, mixed_choice=args.mixed_choice)
        )

    if args.quiet:
        pass  # exit status only, grep -q style
    elif args.format == "json":
        if len(results) == 1:
            print(results[0].render_json())
        else:
            document = {
                "version": results[0].to_dict()["version"],
                "results": [result.to_dict() for result in results],
            }
            print(json.dumps(document, indent=2))
    else:
        for result in results:
            print(result.render_text())

    failed = any(
        not result.ok or (args.strict and result.warnings) for result in results
    )
    return 1 if failed else 0


# ----------------------------------------------------------------------
# ``repro derive`` (``lotos-pg``)
# ----------------------------------------------------------------------
def _add_derive(commands, common: argparse.ArgumentParser) -> None:
    parser = commands.add_parser(
        "derive",
        parents=[common],
        help="derive protocol entities (also installed as lotos-pg)",
        description="Derive protocol entity specifications from a LOTOS "
        "service specification (Kant/Higashino/Bochmann algorithm).",
    )
    parser.add_argument(
        "service",
        help="path to the service specification, or '-' for stdin",
    )
    parser.add_argument(
        "--place", type=int, default=None, help="derive only this place"
    )
    parser.add_argument(
        "--raw",
        action="store_true",
        help="print the derivation before empty-elimination",
    )
    parser.add_argument(
        "--full-messages",
        action="store_true",
        help="render occurrence parameters on messages (s2(s,8) style)",
    )
    parser.add_argument(
        "--lenient",
        action="store_true",
        help="derive even when restrictions R1-R3 are violated",
    )
    parser.add_argument(
        "--naive",
        action="store_true",
        help="naive projection baseline (no synchronization messages)",
    )
    parser.add_argument(
        "--mixed-choice",
        action="store_true",
        help="lift restriction R1 for two-starter choices via the arbiter "
        "protocol (trace-equivalent extension, see docs/algorithm.md)",
    )
    parser.add_argument(
        "--attributes",
        action="store_true",
        help="print the SP/EP/AP attribute table (paper Fig. 4)",
    )
    parser.add_argument(
        "--complexity",
        action="store_true",
        help="print per-construct message counts (paper Section 4.3)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="check the Section 5 theorem against the composed system",
    )
    parser.add_argument(
        "--run",
        type=_COUNT,
        default=0,
        metavar="N",
        help="execute N random schedules through the FIFO medium",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--max-steps", type=int, default=10_000, help="step budget per run"
    )
    parser.add_argument(
        "--msc",
        action="store_true",
        help="render one schedule as a message sequence chart",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="reachability analysis: deadlocks, blocked receptions, dead code",
    )
    parser.add_argument(
        "--parameters",
        action="store_true",
        help="interaction-parameter data flow: which messages piggyback "
        "which values ([Gotz 90] extension)",
    )
    parser.add_argument(
        "--dot",
        choices=["tree", "lts"],
        default=None,
        help="emit Graphviz DOT: the attributed derivation tree (Fig. 4) "
        "or the service LTS",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree of the work done to stderr",
    )
    parser.add_argument(
        "--stats",
        nargs="?",
        const="text",
        choices=["text", "json"],
        default=None,
        metavar="FORMAT",
        help="print a metrics snapshot to stderr (text, or --stats=json)",
    )
    parser.set_defaults(handler=_derive)


def _derive(args: argparse.Namespace) -> int:
    text, source = _read_spec(args.service)
    if not (args.trace or args.stats):
        return _derive_body(args, text, source)
    # Observe the whole derivation (and whatever --verify/--run add) and
    # report on stderr afterwards, even when the body exits early.
    from repro.obs import observe

    with observe() as obs:
        code = _derive_body(args, text, source)
    if args.trace:
        print(obs.tracer.render(), file=sys.stderr)
    if args.stats == "json":
        print(obs.metrics.render_json(), file=sys.stderr)
    elif args.stats:
        print(obs.metrics.render(), file=sys.stderr)
    return code


def _derive_body(args: argparse.Namespace, text: str, source: str) -> int:
    if not args.quiet:
        _surface_lint_warnings(text, source, mixed_choice=args.mixed_choice)

    try:
        result = derive_protocol(
            text,
            strict=not args.lenient,
            emit_sync=not args.naive,
            mixed_choice=args.mixed_choice,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    compact = not args.full_messages
    if result.violations and not args.quiet:
        for violation in result.violations:
            print(f"warning: {violation}", file=sys.stderr)

    if args.attributes:
        _print_attributes(result)

    places = [args.place] if args.place is not None else result.places
    raw_deriver = None
    if args.raw:
        from repro.core.derivation import Deriver
        from repro.lotos.unparse import unparse

        raw_deriver = Deriver(
            result.prepared, result.attrs, emit_sync=not args.naive
        )
    for place in places:
        if place not in result.entities:
            print(f"error: place {place} not in {result.places}", file=sys.stderr)
            return 1
        print(f"-- Protocol entity for place {place} " + "-" * 24)
        if raw_deriver is not None:
            print(unparse(raw_deriver.derive_raw(place), compact=compact).rstrip())
        else:
            print(result.entity_text(place, compact=compact).rstrip())
        print()

    if args.complexity:
        report = analyze(result)
        print("-- Message complexity (Section 4.3) " + "-" * 12)
        print(report.table())
        print()

    if args.run:
        system = build_system(result.entities)
        print(f"-- {args.run} random schedule(s) " + "-" * 24)
        for offset in range(args.run):
            run = random_run(
                system, seed=args.seed + offset, max_steps=args.max_steps
            )
            verdict = check_run(result.service, run)
            print(f"seed {args.seed + offset}: {run}  messages={run.messages_sent}  "
                  f"conformance={'ok' if verdict.ok else 'VIOLATION'}")
        print()

    if args.msc:
        from repro.runtime.msc import record_schedule

        system = build_system(
            result.entities,
            hide=False,
            discipline="selective",
            require_empty_at_exit=False,
        )
        print("-- Message sequence chart " + "-" * 24)
        print(record_schedule(system, seed=args.seed, max_steps=args.max_steps).render())
        print()

    if args.analyze:
        from repro.analysis import analyze_protocol

        print("-- Reachability analysis " + "-" * 24)
        print(
            analyze_protocol(
                result.entities,
                discipline="selective",
                use_occurrences=False,
            ).render()
        )
        print()

    if args.parameters:
        from repro.core.dataflow import analyze_parameters

        print("-- Interaction parameters ([Gotz 90]) " + "-" * 12)
        print(analyze_parameters(result).render())
        print()

    if args.dot == "tree":
        from repro.lotos.dot import syntax_tree_to_dot

        print(syntax_tree_to_dot(result.prepared, result.attrs))
    elif args.dot == "lts":
        from repro.lotos.dot import lts_to_dot
        from repro.lotos.lts import build_lts
        from repro.lotos.semantics import Semantics

        semantics, root = Semantics.of_specification(
            result.prepared, bind_occurrences=False
        )
        lts = build_lts(root, semantics, max_states=2_000, on_limit="truncate")
        print(lts_to_dot(lts))

    if args.verify:
        from repro.verification import verify_derivation

        print("-- Theorem check (Section 5) " + "-" * 20)
        print(verify_derivation(result))
    return 0


def _print_attributes(result) -> None:
    print("-- Attributes (Section 4.1) " + "-" * 20)
    print(f"ALL = {sorted(result.attrs.all_places)}")
    for name, attrs in sorted(result.attrs.by_process.items()):
        print(
            f"process {name}: SP={sorted(attrs.sp)} EP={sorted(attrs.ep)} "
            f"AP={sorted(attrs.ap)}"
        )
    shown = 0
    for node in result.prepared.walk_behaviours():
        if node.nid is None:
            continue
        attrs = result.attrs.by_node.get(node.nid)
        if attrs is None:
            continue
        rendering = unparse_behaviour(node)
        if len(rendering) > 48:
            rendering = rendering[:45] + "..."
        print(
            f"  N={node.nid:<3} SP={sorted(attrs.sp)!s:<10} "
            f"EP={sorted(attrs.ep)!s:<10} AP={sorted(attrs.ap)!s:<12} {rendering}"
        )
        shown += 1
        if shown > 200:
            print("  ... (truncated)")
            break
    print()


def _surface_lint_warnings(
    text: str, source: str, mixed_choice: bool = False
) -> None:
    """Print lint warnings/infos to stderr before deriving.

    Errors are left to the generator itself (strict mode refuses with its
    own message); a crash inside lint must never block a derivation.
    """
    try:
        from repro.analysis.lint import ERROR, lint_text

        result = lint_text(text, source=source, mixed_choice=mixed_choice)
        for diagnostic in result.diagnostics:
            if diagnostic.severity != ERROR:
                print(f"lint: {diagnostic.format(source)}", file=sys.stderr)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"lint: internal error: {exc}", file=sys.stderr)


# ----------------------------------------------------------------------
# ``repro profile``
# ----------------------------------------------------------------------
def _add_profile(commands, common: argparse.ArgumentParser) -> None:
    parser = commands.add_parser(
        "profile",
        parents=[common],
        help="derive + verify + run; one JSON report",
        description="Profile the full life of one service specification — "
        "derivation, Section 5 verification, N seeded executor runs — and "
        "emit one consolidated JSON report (schema repro.obs.profile/v1) "
        "on stdout.  A human-readable digest goes to stderr unless "
        "--quiet.  See docs/observability.md.",
    )
    parser.add_argument(
        "service",
        help="path to the service specification, or '-' for stdin",
    )
    parser.add_argument(
        "--runs", type=_COUNT, default=3, metavar="N",
        help="seeded schedules to execute (default 3)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--max-steps", type=int, default=5_000, help="step budget per run"
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the Section 5 theorem check",
    )
    parser.add_argument(
        "--trace-depth",
        type=int,
        default=6,
        help="depth bound for the trace-equivalence fallback (default 6)",
    )
    parser.add_argument(
        "--mixed-choice",
        action="store_true",
        help="derive with the arbiter-protocol R1 extension",
    )
    parser.add_argument(
        "--indent",
        type=int,
        default=2,
        metavar="N",
        help="JSON indentation; 0 emits the compact one-line form",
    )
    parser.set_defaults(handler=_profile)


def _profile(args: argparse.Namespace) -> int:
    from repro.obs import (
        profile_spec,
        render_report,
        render_report_json,
        spec_display_name,
    )

    text, source = _read_spec(args.service)
    try:
        report = profile_spec(
            text,
            # Spec-relative: an absolute (temp) path would make reports
            # and CI artifacts machine-dependent.
            source=spec_display_name(source),
            runs=args.runs,
            seed=args.seed,
            max_steps=args.max_steps,
            verify=not args.no_verify,
            mixed_choice=args.mixed_choice,
            trace_depth=args.trace_depth,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    indent = args.indent if args.indent > 0 else None
    print(render_report_json(report, indent=indent))
    if not args.quiet:
        print(render_report(report), file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# ``repro batch``
# ----------------------------------------------------------------------
def _add_batch(commands, common: argparse.ArgumentParser) -> None:
    parser = commands.add_parser(
        "batch",
        parents=[common],
        help="cached derivation of a corpus",
        description="Derive protocol entities for a whole corpus of "
        "service specifications, with a content-addressed on-disk cache "
        "so repeat runs never recompute.  Emits one repro.obs.batch/v2 "
        "summary on stdout; one failing spec never aborts the corpus.  "
        "See docs/batch.md.",
    )
    parser.add_argument(
        "corpus",
        help="corpus directory of *.lotos files (a manifest.json of "
        "{name: options} is honored when present)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="manifest file to use instead of <corpus>/manifest.json",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        metavar="DIR",
        help="entity cache directory (default ./.repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="derive everything; neither read nor write the cache",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write each derived corpus member to "
        "DIR/<name>.entities.txt",
    )
    parser.add_argument(
        "--indent",
        type=int,
        default=2,
        metavar="N",
        help="JSON indentation; 0 emits the compact one-line form",
    )
    parser.set_defaults(handler=_batch)


def _batch(args: argparse.Namespace) -> int:
    from repro.batch import EntityCache, load_corpus, run_batch

    try:
        corpus = load_corpus(args.corpus, manifest=args.manifest)
    except (OSError, ValueError) as exc:
        raise _UsageError(exc) from exc
    cache = None if args.no_cache else EntityCache(args.cache_dir)
    outcome = run_batch(corpus, cache=cache)
    if args.out:
        out_dir = os.path.abspath(args.out)
        os.makedirs(out_dir, exist_ok=True)
        for name, entities in sorted(outcome.entities.items()):
            parts = []
            for place in sorted(entities):
                parts.append(
                    f"-- Protocol entity for place {place} " + "-" * 20
                )
                parts.append(entities[place].rstrip())
            with open(
                os.path.join(out_dir, f"{name}.entities.txt"),
                "w",
                encoding="utf-8",
            ) as handle:
                handle.write("\n".join(parts) + "\n")
    indent = args.indent if args.indent > 0 else None
    print(json.dumps(outcome.summary, indent=indent, sort_keys=True))
    if not args.quiet:
        _print_batch_digest(outcome.summary)
    return 0 if outcome.ok else 1


def _print_batch_digest(summary: dict) -> None:
    totals = summary["totals"]
    for row in summary["specs"]:
        status = row["status"]
        if status == "failed":
            error = row["error"] or {}
            detail = f"{error.get('type', '?')}: {error.get('message', '')}"
        else:
            detail = f"{len(row['places'])} places"
        print(
            f"batch: {row['name']}: {status} [{row['cache']}] "
            f"{detail} ({row['duration_s'] * 1000:.1f} ms)",
            file=sys.stderr,
        )
    print(
        f"batch: {totals['ok']}/{totals['specs']} ok, "
        f"{totals['cache_hits']} cached, {totals['derivations']} derived, "
        f"{totals['duration_s']:.2f}s",
        file=sys.stderr,
    )


if __name__ == "__main__":
    # The subcommand tree, NOT the bare `derive` parser: running this
    # file directly must behave exactly like the `repro` script.
    raise SystemExit(repro_main())
