"""Command-line front ends: ``repro`` and the legacy ``lotos-pg``.

``repro`` is the subcommand interface::

    repro lint service.lotos                    # static analysis only
    repro lint service.lotos --format json      # machine-readable output
    repro lint --list-rules                     # the rule catalogue
    repro derive service.lotos [flags]          # lint warnings + derivation
    repro derive service.lotos --trace          # span tree on stderr
    repro derive service.lotos --stats=json     # metrics snapshot on stderr
    repro profile service.lotos                 # consolidated JSON report
    repro batch corpus/ --workers 4             # parallel, cached corpus run
    repro --version

Diagnostic output (lint warnings, traces, stats, profile digests) goes
to stderr so stdout stays pipeable; ``--quiet`` silences the
informational stderr chatter of every subcommand.

``lotos-pg`` is the original flag-style Protocol Generator (kept as an
alias of ``repro derive``): reads a service specification (file or
stdin), checks it, derives the protocol entity specification of every
place, and optionally verifies the correctness theorem, reports message
complexity, or executes random schedules::

    lotos-pg service.lotos                      # derive all entities
    lotos-pg service.lotos --place 2            # one entity
    lotos-pg service.lotos --verify             # Section 5 check
    lotos-pg service.lotos --complexity         # Section 4.3 counts
    lotos-pg service.lotos --run 5              # execute 5 schedules
    lotos-pg service.lotos --attributes         # SP/EP/AP table (Fig. 4)
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.core.complexity import analyze
from repro.core.generator import derive_protocol
from repro.errors import ReproError
from repro.lotos.unparse import unparse_behaviour
from repro.runtime import build_system, check_run, random_run


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotos-pg",
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
        type=int,
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
    _add_observability_flags(parser)
    return parser


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
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
    _add_common_flags(parser)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress informational stderr output (lint warnings, digests)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )


def _package_version() -> str:
    """The installed distribution version, or the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        import repro

        return getattr(repro, "__version__", "unknown")


def _broken_pipe_exit() -> int:
    # A downstream reader (`repro lint ... | head`) closed stdout early.
    # Swallow the write error and keep the interpreter's shutdown flush
    # from raising again, instead of dumping a traceback.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _derive_main(argv)
    except BrokenPipeError:
        return _broken_pipe_exit()


def _derive_main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        text = (
            sys.stdin.read()
            if args.service == "-"
            else open(args.service, encoding="utf-8").read()
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not (args.trace or args.stats):
        return _derive_body(args, text)
    # Observe the whole derivation (and whatever --verify/--run add) and
    # report on stderr afterwards, even when the body exits early.
    from repro.obs import observe

    with observe() as obs:
        code = _derive_body(args, text)
    if args.trace:
        print(obs.tracer.render(), file=sys.stderr)
    if args.stats == "json":
        print(obs.metrics.render_json(), file=sys.stderr)
    elif args.stats:
        print(obs.metrics.render(), file=sys.stderr)
    return code


def _derive_body(args: argparse.Namespace, text: str) -> int:
    if not args.quiet:
        _surface_lint_warnings(
            text, args.service, mixed_choice=args.mixed_choice
        )

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
def make_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile",
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
        "--runs", type=int, default=3, metavar="N",
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
    _add_common_flags(parser)
    return parser


def profile_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _profile_main(argv)
    except BrokenPipeError:
        return _broken_pipe_exit()


def _profile_main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.obs import (
        profile_spec,
        render_report,
        render_report_json,
        spec_display_name,
    )

    args = make_profile_parser().parse_args(argv)
    try:
        text = (
            sys.stdin.read()
            if args.service == "-"
            else open(args.service, encoding="utf-8").read()
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = profile_spec(
            text,
            # Spec-relative: an absolute (temp) path would make reports
            # and CI artifacts machine-dependent.
            source=spec_display_name(args.service),
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
def make_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Derive protocol entities for a whole corpus of "
        "service specifications — in parallel, with a content-addressed "
        "on-disk cache so repeat runs never recompute.  Emits one "
        "repro.obs.batch/v1 summary on stdout; one failing spec never "
        "aborts the corpus.  See docs/batch.md.",
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
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="worker processes; 0 (default) derives serially in-process",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget (pool mode only); an overdue "
        "task becomes a failure row, not a hung run",
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
        "--max-cache-entries",
        type=int,
        default=None,
        metavar="N",
        help="evict least-recently-written entries beyond N",
    )
    parser.add_argument(
        "--split-bytes",
        type=int,
        default=None,
        metavar="N",
        help="fan out one task per place for specs whose canonical text "
        "is at least N bytes (default %(default)s)",
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
    _add_common_flags(parser)
    return parser


def batch_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _batch_main(argv)
    except BrokenPipeError:
        return _broken_pipe_exit()


def _batch_main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.batch import EntityCache, load_corpus, run_batch
    from repro.batch.scheduler import DEFAULT_SPLIT_BYTES

    args = make_batch_parser().parse_args(argv)
    try:
        corpus = load_corpus(args.corpus, manifest=args.manifest)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = (
        None
        if args.no_cache
        else EntityCache(args.cache_dir, max_entries=args.max_cache_entries)
    )
    split = (
        DEFAULT_SPLIT_BYTES if args.split_bytes is None else args.split_bytes
    )
    outcome = run_batch(
        corpus,
        workers=args.workers,
        timeout=args.timeout,
        cache=cache,
        split_bytes=split,
    )
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
    line = (
        f"batch: {totals['ok']}/{totals['specs']} ok, "
        f"{totals['cache_hits']} cached, {totals['derivations']} derived, "
        f"{totals['duration_s']:.2f}s with {summary['workers']} worker(s)"
    )
    if summary["degraded"]:
        line += " [DEGRADED to serial]"
    print(line, file=sys.stderr)


# ----------------------------------------------------------------------
# ``repro serve``
# ----------------------------------------------------------------------
def make_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the derivation pipeline as a long-running asyncio "
        "HTTP service: POST /v1/derive, /v1/lint, /v1/profile (JSON bodies, "
        "schema repro.serve.request/v1), GET /healthz and /metrics.  "
        "Bounded admission sheds overload with fast 503s, a warm worker "
        "pool keeps derivations off the event loop, and repeated specs are "
        "served from the shared entity cache.  SIGTERM/SIGINT drain "
        "gracefully.  See docs/serving.md.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    parser.add_argument(
        "--port", type=int, default=8437,
        help="TCP port; 0 picks a free one (default %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker pool size (default %(default)s)",
    )
    parser.add_argument(
        "--worker-kind", choices=["process", "thread"], default="process",
        help="process pool (production) or thread pool (tests, benchmarks)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="admitted requests before shedding 503s (default %(default)s)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request worker budget; overdue answers 504 "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--max-body", type=int, default=1_000_000, metavar="BYTES",
        help="largest accepted request body (default %(default)s)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="how long shutdown waits for in-flight requests "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="entity cache directory shared with `repro batch` "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="derive every request; neither read nor write the cache",
    )
    parser.add_argument(
        "--max-cache-entries", type=int, default=None, metavar="N",
        help="evict least-recently-written cache entries beyond N",
    )
    _add_common_flags(parser)
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_serve_parser().parse_args(argv)
    from repro.serve.server import ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        worker_kind=args.worker_kind,
        queue_limit=args.queue_limit,
        request_timeout=args.timeout,
        max_body_bytes=args.max_body,
        drain_timeout=args.drain_timeout,
        cache_dir=None if args.no_cache else args.cache_dir,
        max_cache_entries=args.max_cache_entries,
        access_log=not args.quiet,
    )
    try:
        return asyncio.run(_serve_until_signalled(config, quiet=args.quiet))
    except KeyboardInterrupt:
        return 0


async def _serve_until_signalled(config, quiet: bool) -> int:
    import signal

    from repro.serve.server import DerivationServer

    server = DerivationServer(config)
    await server.start()
    host, port = server.address
    if not quiet:
        print(
            f"serve: listening on http://{host}:{port} "
            f"(workers={config.workers}/{config.worker_kind}, "
            f"queue-limit={config.queue_limit}, "
            f"cache={'off' if config.cache_dir is None else config.cache_dir})",
            file=sys.stderr,
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # non-Unix event loops
            pass
    await stop.wait()
    if not quiet:
        print("serve: draining ...", file=sys.stderr)
    await server.shutdown()
    if not quiet:
        print(server.digest(), file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# ``repro loadgen``
# ----------------------------------------------------------------------
def make_loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Closed-loop load generator against a running "
        "`repro serve`: N connections each send one request at a time "
        "from a shared budget, and the run emits one repro.obs.loadgen/v3 "
        "report on stdout (exact latency percentiles, throughput, "
        "ok/shed/failed counts).  Exit status is 1 when any request "
        "failed (503 sheds are counted separately and do not fail the "
        "run).  See docs/serving.md.",
    )
    parser.add_argument(
        "service",
        help="path to the service specification to request, or '-' for stdin",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="server address (default %(default)s)"
    )
    parser.add_argument(
        "--port", type=int, default=8437, help="server port (default %(default)s)"
    )
    parser.add_argument(
        "--op", choices=["derive", "lint", "profile"], default="derive",
        help="operation to request (default %(default)s)",
    )
    parser.add_argument(
        "--connections", type=int, default=16, metavar="N",
        help="concurrent closed-loop connections (default %(default)s)",
    )
    parser.add_argument(
        "--requests", type=int, default=100, metavar="N",
        help="total requests across all connections (default %(default)s)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-request client timeout (default %(default)s)",
    )
    parser.add_argument(
        "--mixed-choice", action="store_true",
        help="request derivation with the arbiter-protocol R1 extension",
    )
    parser.add_argument(
        "--indent", type=int, default=2, metavar="N",
        help="JSON indentation; 0 emits the compact one-line form",
    )
    _add_common_flags(parser)
    return parser


def loadgen_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _loadgen_main(argv)
    except BrokenPipeError:
        return _broken_pipe_exit()


def _loadgen_main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.serve.loadgen import render_digest, run_loadgen

    args = make_loadgen_parser().parse_args(argv)
    try:
        text = (
            sys.stdin.read()
            if args.service == "-"
            else open(args.service, encoding="utf-8").read()
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    options = {"mixed_choice": True} if args.mixed_choice else None
    report = asyncio.run(
        run_loadgen(
            args.host,
            args.port,
            text,
            op=args.op,
            options=options,
            connections=args.connections,
            requests=args.requests,
            timeout=args.timeout,
        )
    )
    indent = args.indent if args.indent > 0 else None
    print(json.dumps(report, indent=indent, sort_keys=True))
    if not args.quiet:
        print(render_digest(report), file=sys.stderr)
    return 1 if report["failed"] else 0


# ----------------------------------------------------------------------
# ``repro lint``
# ----------------------------------------------------------------------
def make_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
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
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the report; the exit status is the verdict",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    return parser


def lint_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _lint_main(argv)
    except BrokenPipeError:
        return _broken_pipe_exit()


def _lint_main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.analysis.lint import RULES, lint_text

    args = make_lint_parser().parse_args(argv)
    if args.list_rules:
        for rule in sorted(RULES.values(), key=lambda r: r.id):
            print(f"{rule.id}  {rule.name:<26} {rule.severity:<8} {rule.summary}")
        return 0
    if not args.specs:
        make_lint_parser().error("no specification files given")

    results = []
    for path in args.specs:
        try:
            text = (
                sys.stdin.read()
                if path == "-"
                else open(path, encoding="utf-8").read()
            )
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results.append(
            lint_text(
                text,
                source="<stdin>" if path == "-" else path,
                mixed_choice=args.mixed_choice,
            )
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
# ``repro`` subcommand dispatcher
# ----------------------------------------------------------------------
_USAGE = """usage: repro <command> [options]

commands:
  lint      static analysis of a service specification (repro lint --help)
  derive    derive protocol entities, lotos-pg style (repro derive --help)
  profile   derive + verify + run; one JSON report (repro profile --help)
  batch     parallel, cached derivation of a corpus (repro batch --help)
  serve     long-running asyncio derivation server (repro serve --help)
  loadgen   closed-loop load generator for serve (repro loadgen --help)

options:
  --version print the package version and exit
"""


def repro_main(argv: Optional[Sequence[str]] = None) -> int:
    arguments: List[str] = list(sys.argv[1:] if argv is None else argv)
    if not arguments or arguments[0] in ("-h", "--help"):
        try:
            print(_USAGE, end="")
        except BrokenPipeError:
            return _broken_pipe_exit()
        return 0 if arguments else 2
    if arguments[0] in ("--version", "-V"):
        print(f"repro {_package_version()}")
        return 0
    command, rest = arguments[0], arguments[1:]
    if command == "lint":
        return lint_main(rest)
    if command == "derive":
        return main(rest)
    if command == "profile":
        return profile_main(rest)
    if command == "batch":
        return batch_main(rest)
    if command == "serve":
        return serve_main(rest)
    if command == "loadgen":
        return loadgen_main(rest)
    print(f"error: unknown command {command!r}\n{_USAGE}", file=sys.stderr, end="")
    return 2


if __name__ == "__main__":
    # The subcommand dispatcher, NOT the bare `derive` parser: running
    # this file directly must behave exactly like the `repro` script
    # (`python src/repro/cli.py lint ...` used to hit the wrong parser).
    raise SystemExit(repro_main())
