"""CLI entry point: ``python -m repro.experiments [ids…] [options]``.

Five invocation shapes:

* **run** (default, no subcommand) — run the requested reproduction
  experiments (all by default), print each result table, exit non-zero if
  any paper claim failed to hold;
* **sweep** — execute a declarative parameter grid
  (``sweep --grid grid.toml --out results/``), persisting every completed
  point to a resumable result store (re-runs are cache hits, interrupted
  sweeps resume where they stopped); with ``--via-service URL`` the grid
  points fan out through a running simulation server instead of local
  processes;
* **aggregate** — join a result store back into comparison tables
  (``aggregate --store results/ [--experiment id]``);
* **mutate** — run a sandboxed mutation campaign against a bundled
  corpus target, the package's own code, or an arbitrary program
  (``mutate --target stats --store campaigns/``), persisting per-mutant
  kill outcomes resumably and optionally gating on ``--min-score``
  (design and walkthrough: ``docs/mutation.md``);
* **serve** — host the long-lived simulation service
  (``serve --host 127.0.0.1 --port 8752 --procs 4 --store results/``):
  an asyncio JSON/HTTP API with request coalescing, a two-tier result
  cache over the store, per-job priorities and adaptive-run progress
  streaming (API reference: ``docs/service.md``).  SIGINT/SIGTERM drain
  cleanly — in-flight jobs complete and persist, queued jobs cancel.

The catalog of experiment ids, the paper claim each one reproduces, its
knobs and expected runtimes live in ``docs/experiments.md``; the grid file
format, cache-key definition and resume semantics in ``docs/sweeps.md``.

Experiments with a ``precision`` knob (e.g. ``e01``, ``e11``, ``x3``) can
run under the adaptive precision engine instead of a fixed replication
count: ``--target-rel-hw 0.05`` (and/or ``--target-abs-hw``) sets the
confidence-interval half-width each metric must reach, ``--budget`` caps
the replications, ``--vr`` picks the variance-reduction technique.  See
``docs/adaptive.md``.

Exit codes: 0 — success, every claim held; 1 — experiments ran but some
claim failed; 2 — usage error (unknown id, bad grid file, missing store).
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys
from typing import List

from ..adaptive.targets import VR_MODES
from ..errors import ModelError
from .base import set_engine_config
from .registry import all_experiment_ids, run_experiment
from .report import format_result, format_summary

EXIT_OK = 0
EXIT_CLAIM_FAILURES = 1
EXIT_USAGE = 2


def validate_ids(ids: List[str]) -> None:
    """Reject unknown experiment ids up front, with suggestions.

    Raises a single :class:`~repro.errors.ModelError` covering *all*
    unknown ids before any experiment runs, instead of letting the registry
    fail mid-run after earlier experiments already burned their replication
    budget.  Close matches are suggested ("did you mean ...?").
    """
    known = all_experiment_ids()
    unknown = [requested for requested in ids if requested not in known]
    if not unknown:
        return
    fragments = []
    for requested in unknown:
        matches = difflib.get_close_matches(requested, known, n=3, cutoff=0.4)
        if matches:
            fragments.append(
                f"{requested!r} (did you mean {', '.join(matches)}?)"
            )
        else:
            fragments.append(repr(requested))
    raise ModelError(
        f"unknown experiment id(s): {'; '.join(fragments)}.  "
        f"Known ids: {', '.join(known)} — see docs/experiments.md"
    )


def _add_n_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for Monte-Carlo chunk sharding (default 1; "
        "results are bit-identical for any value)",
    )


def _add_logging_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="structured-log threshold (default warning; debug also "
        "emits every tracing span — see docs/observability.md)",
    )
    parser.add_argument(
        "--log-format",
        choices=("human", "json"),
        default="human",
        help="log line format: 'human' (default) or 'json' "
        "(JSON-lines; machine-parseable, feeds tools/trace_tree.py)",
    )
    parser.add_argument(
        "--log-file",
        metavar="FILE",
        help="append logs to FILE instead of stderr (what sharded "
        "deployments use so each instance keeps its own trace log)",
    )


def _configure_logging(args) -> None:
    from ..obs import configure_logging

    configure_logging(
        level=args.log_level, format=args.log_format, file=args.log_file
    )


def _add_precision_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target-rel-hw",
        type=float,
        metavar="R",
        help="adaptive precision: stop each metric when its CI half-width "
        "is at most R times its scale (replaces the fixed replication "
        "count on experiments with a 'precision' knob; see "
        "docs/adaptive.md)",
    )
    parser.add_argument(
        "--target-abs-hw",
        type=float,
        metavar="W",
        help="adaptive precision: stop each metric when its CI half-width "
        "is at most W (combinable with --target-rel-hw; meeting either "
        "stops)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        metavar="N",
        help="adaptive precision: hard replication cap per metric "
        "(default: the experiment's full-mode count)",
    )
    parser.add_argument(
        "--vr",
        choices=VR_MODES,
        default="auto",
        help="variance-reduction technique for adaptive runs (default "
        "'auto': the strongest the model supports)",
    )


def _precision_params(args) -> dict | None:
    """The CLI's precision flags as a runner-knob mapping (or None)."""
    if args.target_rel_hw is None and args.target_abs_hw is None:
        if args.budget is not None:
            raise ModelError(
                "--budget needs --target-rel-hw and/or --target-abs-hw"
            )
        if args.vr != "auto":
            raise ModelError(
                "--vr needs --target-rel-hw and/or --target-abs-hw "
                "(variance reduction only applies to adaptive runs)"
            )
        return None
    precision: dict = {}
    if args.target_rel_hw is not None:
        precision["rel_hw"] = args.target_rel_hw
    if args.target_abs_hw is not None:
        precision["abs_hw"] = args.target_abs_hw
    if args.budget is not None:
        precision["budget"] = args.budget
    precision["vr"] = args.vr
    return precision


def run_main(argv: List[str]) -> int:
    """The default (no-subcommand) experiment runner."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the results of Popov & Littlewood (DSN 2004).",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        help="experiment ids to run (default: all); e.g. e07 a2 "
        "(catalog: docs/experiments.md)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="root seed (default 0)"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the large replication counts (slower, tighter CIs)",
    )
    parser.add_argument(
        "--summary-only",
        action="store_true",
        help="print only the one-line-per-experiment summary",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase wall-clock timings (setup/sampling/"
        "scoring) into each result's provenance and print a profile "
        "line per experiment",
    )
    _add_n_jobs_argument(parser)
    _add_precision_arguments(parser)
    _add_logging_arguments(parser)
    args = parser.parse_args(argv)
    _configure_logging(args)

    validate_ids(args.ids)
    ids = args.ids or all_experiment_ids()
    precision = _precision_params(args)
    adaptive_ids: set = set()
    if precision is not None:
        from .registry import runner_params

        adaptive_ids = {
            eid for eid in ids if "precision" in runner_params(eid)
        }
        skipped = [eid for eid in ids if eid not in adaptive_ids]
        if skipped:
            print(
                f"note: no 'precision' knob on {', '.join(skipped)}; "
                "running those fixed-n",
                file=sys.stderr,
            )
    previous = set_engine_config(n_jobs=args.n_jobs)
    try:
        results = []
        for experiment_id in ids:
            params = (
                {"precision": precision}
                if experiment_id in adaptive_ids
                else None
            )
            if args.profile:
                from ..obs import collect_timings, span

                with collect_timings() as timer, span(
                    "experiment.run", experiment_id=experiment_id
                ):
                    result = run_experiment(
                        experiment_id, seed=args.seed, fast=not args.full,
                        params=params,
                    )
                # provenance rides the result only when asked for:
                # golden outputs stay byte-identical on unprofiled runs
                result.extra["timings"] = timer.payload(n_jobs=args.n_jobs)
            else:
                result = run_experiment(
                    experiment_id, seed=args.seed, fast=not args.full,
                    params=params,
                )
            results.append(result)
            if not args.summary_only:
                print(format_result(result))
                print()
        print(format_summary(results))
        return (
            EXIT_OK
            if all(result.passed for result in results)
            else EXIT_CLAIM_FAILURES
        )
    finally:
        set_engine_config(n_jobs=previous.n_jobs)


def sweep_main(argv: List[str]) -> int:
    """``sweep --grid grid.toml --out results/``: run a resumable grid."""
    from ..store import ResultStore
    from ..sweeps import Sweep, load_grid

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments sweep",
        description="Run a declarative experiment grid against a resumable "
        "result store (grid format: docs/sweeps.md).",
    )
    parser.add_argument(
        "--grid",
        required=True,
        metavar="FILE",
        help="sweep grid file (.toml or .json)",
    )
    parser.add_argument(
        "--out",
        default="results",
        metavar="DIR",
        help="result store location (default: results/); completed points "
        "found there are served as cache hits",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes across sweep points (default 1)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="list every grid point and its cache status without running",
    )
    parser.add_argument(
        "--via-service",
        metavar="URL",
        help="fan grid points through a running simulation server "
        "(e.g. http://127.0.0.1:8752) instead of local worker processes; "
        "--procs becomes the number of concurrent requests and records "
        "are mirrored into --out",
    )
    _add_n_jobs_argument(parser)
    _add_logging_arguments(parser)
    args = parser.parse_args(argv)
    _configure_logging(args)

    spec = load_grid(args.grid)
    store = ResultStore(args.out)
    sweep = Sweep(spec, store, n_jobs=args.n_jobs)
    if args.dry_run:
        cached, pending = sweep.partition()
        cached_keys = {point.cache_key() for point in cached}
        for point in sweep.effective_points():
            key = point.cache_key()
            status = "cached" if key in cached_keys else "pending"
            print(f"{status:<8} {point.label()}")
        if spec.precision is not None and spec.precision.budget_total:
            print(
                "(Neyman allocation: listed points are the pilot pass; "
                "final budgets depend on its results)"
            )
        print(
            f"sweep: {len(cached) + len(pending)} points, 0 executed, "
            f"{len(cached)} cached (dry run; {len(pending)} pending)"
        )
        return EXIT_OK

    def progress(point, status):
        print(f"{status:<9} {point.label()}", flush=True)

    if args.via_service:
        report = sweep.run_via_service(
            args.via_service, n_procs=args.procs, progress=progress
        )
    else:
        report = sweep.run(n_procs=args.procs, progress=progress)
    print(report.summary())
    print(f"store: {store.path}")
    return EXIT_OK if report.passed else EXIT_CLAIM_FAILURES


def serve_main(argv: List[str]) -> int:
    """``serve --port 8752 --procs 4 --store results/``: host the service."""
    import asyncio
    import signal

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description="Host the long-lived simulation service: JSON/HTTP API "
        "with request coalescing, a two-tier result cache and a bounded "
        "priority job queue (API reference: docs/service.md).",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1; bind 0.0.0.0 only behind "
        "a trusted network — the API is unauthenticated)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8752,
        help="bind port (default 8752; 0 picks a free port, printed on "
        "startup)",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes computing jobs (default 1; 0 runs jobs on "
        "a single in-process thread — no subprocesses, for debugging)",
    )
    parser.add_argument(
        "--store",
        default="results",
        metavar="DIR",
        help="result store backing the cache (default: results/); records "
        "computed by the server persist there and records already there "
        "are served warm",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="run without a persistent store (memory cache only; results "
        "are lost on shutdown)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="in-memory LRU capacity in records (default 1024)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="bounded job queue depth; submissions beyond it get HTTP 429 "
        "(default 64)",
    )
    parser.add_argument(
        "--name",
        default=None,
        metavar="NAME",
        help="instance name for sharded deployments: job ids become "
        "<name>-job-NNNNNN so a router can route job lookups back here "
        "(default: unnamed)",
    )
    parser.add_argument(
        "--slow-job-seconds",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="log a warning for any job whose computation exceeds this "
        "(default 30)",
    )
    # accepted, and unused, only because perfbench's service workload passes it
    parser.add_argument(
        "--store-backend", choices=("jsonl",), help=argparse.SUPPRESS
    )
    _add_logging_arguments(parser)
    args = parser.parse_args(argv)
    _configure_logging(args)

    from ..service import JobScheduler, ServiceServer, TwoTierCache
    from ..store import ResultStore

    async def _serve() -> None:
        store = None if args.no_store else ResultStore(args.store)
        cache = TwoTierCache(store, capacity=args.cache_size)
        scheduler = JobScheduler(
            cache,
            procs=args.procs,
            queue_limit=args.queue_limit,
            name=args.name,
            slow_job_seconds=args.slow_job_seconds,
        )
        await scheduler.start()
        server = ServiceServer(scheduler, host=args.host, port=args.port)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        store_label = str(store.path) if store is not None else "none"
        name_label = f", name={args.name}" if args.name else ""
        print(
            f"serving {server.url} (procs={args.procs}, "
            f"store={store_label}{name_label})",
            flush=True,
        )
        await stop.wait()
        print(
            "shutting down: queued jobs cancelled, in-flight jobs "
            "draining ...",
            flush=True,
        )
        await server.close()
        await scheduler.close()
        print("shutdown complete", flush=True)

    asyncio.run(_serve())
    return EXIT_OK


def router_main(argv: List[str]) -> int:
    """``router --shard s0=http://... --shard s1=http://...``: cluster front-end."""
    import asyncio
    import signal

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments router",
        description="Host the cluster router: forwards each POST /run to "
        "the shard instance owning its cache key on a consistent-hash "
        "ring, so coalescing and caching work cluster-wide "
        "(topology: docs/service.md).",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8750,
        help="bind port (default 8750; 0 picks a free port, printed on "
        "startup)",
    )
    parser.add_argument(
        "--shard",
        action="append",
        default=[],
        metavar="NAME=URL",
        help="one shard instance, e.g. s0=http://127.0.0.1:8752 (repeat "
        "per shard; names must match each shard's serve --name)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="transport retries per shard before failing over along the "
        "ring (default 1)",
    )
    parser.add_argument(
        "--health-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="background /healthz probe period (default 1.0)",
    )
    _add_logging_arguments(parser)
    args = parser.parse_args(argv)
    _configure_logging(args)

    shards = {}
    for entry in args.shard:
        name, separator, url = entry.partition("=")
        if not separator or not name or not url:
            raise ModelError(
                f"--shard must look like NAME=URL, got {entry!r}"
            )
        if name in shards:
            raise ModelError(f"duplicate shard name {name!r}")
        shards[name] = url
    if not shards:
        raise ModelError(
            "router needs at least one --shard NAME=URL "
            "(e.g. --shard s0=http://127.0.0.1:8752)"
        )

    from ..service.router import Router, RouterServer

    async def _serve() -> None:
        router = Router(
            shards,
            retries=args.retries,
            health_interval=args.health_interval,
        )
        await router.start()
        server = RouterServer(router, host=args.host, port=args.port)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        print(
            f"routing {server.url} across {len(shards)} shard(s): "
            + ", ".join(f"{name}={url}" for name, url in sorted(shards.items())),
            flush=True,
        )
        await stop.wait()
        print("router shutting down ...", flush=True)
        await server.close()
        await router.close()
        print("router shutdown complete", flush=True)

    asyncio.run(_serve())
    return EXIT_OK


def mutate_main(argv: List[str]) -> int:
    """``mutate --target stats --store campaigns/``: run a mutation campaign."""
    from ..mutation import (
        DetectionData,
        MutationCampaign,
        bundled_targets,
        fit_size_biased_multinomial,
        self_target,
    )
    from ..mutation.targets import TargetProgram
    from ..store import ResultStore

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments mutate",
        description="Run a sandboxed mutation campaign: generate mutants of "
        "a target program, execute its test suite against each one in a "
        "subprocess, and persist per-mutant kill outcomes to a resumable "
        "result store (design: docs/mutation.md).",
    )
    parser.add_argument(
        "--target",
        metavar="NAME",
        help="a bundled corpus target (see --list-targets) or 'self' for "
        "the self-mutation target (repro.rng judged by its own tests)",
    )
    parser.add_argument(
        "--program",
        metavar="FILE",
        help="mutate an arbitrary single-file program instead of a bundled "
        "target (requires --tests)",
    )
    parser.add_argument(
        "--tests",
        nargs="+",
        metavar="FILE",
        help="pytest files judging the mutants of --program",
    )
    parser.add_argument(
        "--support",
        nargs="*",
        default=[],
        metavar="FILE",
        help="extra files the tests import (copied into the sandbox)",
    )
    parser.add_argument(
        "--list-targets",
        action="store_true",
        help="list the bundled corpus targets and exit",
    )
    parser.add_argument(
        "--store",
        default="campaigns",
        metavar="DIR",
        help="campaign result store (default: campaigns/); stored mutants "
        "are served as cache hits, so interrupted campaigns resume",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=20.0,
        metavar="SECONDS",
        help="per-mutant suite timeout (default 20; a timed-out mutant "
        "counts as detected by the whole suite)",
    )
    parser.add_argument(
        "--max-mutants",
        type=int,
        metavar="N",
        help="cap the campaign to a deterministic subsample of N mutants",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="subsampling seed (default 0)"
    )
    parser.add_argument(
        "--min-score",
        type=float,
        metavar="S",
        help="fail (exit 1) when the mutation score ends below S — the "
        "CI mutation-score gate",
    )
    args = parser.parse_args(argv)

    if args.list_targets:
        for name, target in sorted(bundled_targets().items()):
            print(
                f"{name:<12} {target.source_path.name} "
                f"({len(target.test_paths)} test file(s), "
                f"sha {target.source_sha})"
            )
        print("self         src/repro/rng.py (tier-1 rng tests)")
        return EXIT_OK

    if args.program is not None:
        if not args.tests:
            raise ModelError("--program requires --tests")
        if args.target is not None:
            raise ModelError("--program and --target are mutually exclusive")
        from pathlib import Path

        program = Path(args.program)
        target = TargetProgram(
            name=program.stem,
            module=program.stem,
            source_path=program,
            test_paths=tuple(Path(p) for p in args.tests),
            support_paths=tuple(Path(p) for p in args.support),
        )
    elif args.target == "self":
        target = self_target()
    elif args.target is not None:
        targets = bundled_targets()
        if args.target not in targets:
            raise ModelError(
                f"unknown bundled target {args.target!r} "
                f"(known: {', '.join(sorted(targets))}, self)"
            )
        target = targets[args.target]
    else:
        raise ModelError(
            "pick a target: --target NAME, --target self, or "
            "--program FILE --tests FILE... (--list-targets to browse)"
        )

    store = ResultStore(args.store)
    campaign = MutationCampaign(
        target,
        store,
        timeout=args.timeout,
        max_mutants=args.max_mutants,
        seed=args.seed,
    )

    def progress(outcome, was_cached):
        origin = "cached " if was_cached else "ran    "
        print(
            f"{origin} {outcome.mutant_id}  {outcome.status:<9} "
            f"detected {outcome.detected}/{outcome.n_tests}  "
            f"{outcome.description}",
            flush=True,
        )

    try:
        report = campaign.run(on_mutant=progress)
    except KeyboardInterrupt:
        print(
            "\ninterrupted — completed mutants are stored; re-run the same "
            "command to resume",
            file=sys.stderr,
        )
        return 130
    data = DetectionData.from_outcomes(report.outcomes)
    fit = fit_size_biased_multinomial(data)
    print(
        f"campaign {campaign.experiment_id}: {report.total} mutants "
        f"({report.executed} executed, {report.cached} cached) in "
        f"{report.elapsed_seconds:.1f}s"
    )
    print(
        f"  killed {report.killed}, survived {report.survived}, "
        f"timeouts {report.timeouts}, errors {report.errors} "
        f"({report.n_tests} tests)"
    )
    print(
        f"  mutation score {report.mutation_score:.3f}, "
        f"alpha {fit.alpha:.3f}, "
        f"mean detection prob {fit.mean_detection_prob:.3f}"
    )
    print(f"store: {store.path}")
    if args.min_score is not None and report.mutation_score < args.min_score:
        print(
            f"mutation score {report.mutation_score:.3f} below the "
            f"--min-score gate {args.min_score}",
            file=sys.stderr,
        )
        return EXIT_CLAIM_FAILURES
    return EXIT_OK


def aggregate_main(argv: List[str]) -> int:
    """``aggregate --store results/``: join stored records into tables."""
    from ..store import ResultStore
    from ..sweeps import comparison_table, render_table, summary_table

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments aggregate",
        description="Join stored sweep records into comparison tables "
        "(bit-for-bit in csv/json formats).",
    )
    parser.add_argument(
        "--store",
        default="results",
        metavar="DIR",
        help="result store location (default: results/)",
    )
    parser.add_argument(
        "--experiment",
        metavar="ID",
        help="emit the long-form comparison table for one experiment id "
        "(default: the one-line-per-point summary table)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default="text",
        help="output format (default text; csv/json preserve stored floats "
        "bit-for-bit)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the table to FILE instead of stdout",
    )
    args = parser.parse_args(argv)

    store = ResultStore(args.store)
    if not store.path.exists():
        raise ModelError(f"no result store at {store.path}")
    if args.experiment is not None:
        table = comparison_table(store, args.experiment)
    else:
        table = summary_table(store)
    rendered = render_table(table, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {len(table[1])} rows to {args.out}")
    else:
        print(rendered)
    return EXIT_OK


def main(argv: List[str] | None = None) -> int:
    """Dispatch to run (default), sweep or aggregate; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "sweep":
            return sweep_main(argv[1:])
        if argv and argv[0] == "aggregate":
            return aggregate_main(argv[1:])
        if argv and argv[0] == "serve":
            return serve_main(argv[1:])
        if argv and argv[0] == "router":
            return router_main(argv[1:])
        if argv and argv[0] == "mutate":
            return mutate_main(argv[1:])
        return run_main(argv)
    except ModelError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # downstream closed the pipe (e.g. `... | head`); exit quietly,
        # pointing stdout at devnull so interpreter shutdown can flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
