"""The ``python -m repro`` command line.

Reproduce any exhibit of the paper from a terminal::

    python -m repro figure8              # one exhibit
    python -m repro all --jobs 4         # everything, 4 worker processes
    python -m repro figure10 --no-cache  # force recomputation
    python -m repro table2 -o table2.txt # write the report to a file
    python -m repro scaling --dry-run    # show the jobs, compute nothing

and drive the workload subsystem::

    python -m repro scenario --list                   # registered scenarios
    python -m repro scenario bursty-trains            # run one scenario
    python -m repro scenario zipf-hotspot --slots 50000
    python -m repro scenario zipf-hotspot --engine reference # the oracle
    python -m repro scenario bursty-trains --record t.rtrc   # capture trace
    python -m repro scenario zipf-hotspot --replay t.rtrc    # replay it

and sustain long-horizon streaming runs (bounded memory, steady-state
measurement, crash-resumable)::

    python -m repro scenario uniform-bernoulli --slots 10000000 --stream \
        --warmup 100000 --checkpoint-every 1000000
    python -m repro scenario uniform-bernoulli --slots 10000000 \
        --resume .repro_cache/<version>/checkpoints/uniform-bernoulli.ckpt.json

and compose per-port buffers into a multi-port switch::

    python -m repro switch --list                     # registered switches
    python -m repro switch hotspot-egress --ports 8 --jobs 4
    python -m repro switch uniform --fabric priority  # swap the crossbar

and compile declarative YAML sweep documents into job grids::

    python -m repro scenario --from-spec sweep.yaml --jobs 4
    python -m repro switch --from-spec switch_sweep.yaml --dry-run

and differentially fuzz random specs across every engine::

    python -m repro fuzz --seeds 25                   # the PR-path budget
    python -m repro fuzz --seeds 200 --stream \
        --artifact-dir fuzz-artifacts                 # the nightly soak
    python -m repro fuzz --replay fuzz-artifacts/fuzz-<seed>-0007.json

and track the performance trajectory::

    python -m repro bench                 # fixed suite -> BENCH_9.json
    python -m repro bench --quick         # reduced slots (CI perf-smoke)
    python -m repro bench --filter wide   # a subset of the suite
    python -m repro bench --compare BENCH_9.json --fail-on-regression 25
    python -m repro bench --profile       # cProfile hot frames per benchmark

and observe what any run did::

    python -m repro scenario zipf-hotspot --metrics      # counters to stderr
    python -m repro fuzz --seeds 25 --trace-out t.ndjson # NDJSON run trace
    python -m repro trace summarize t.ndjson             # inspect a trace
    python -m repro scenario uniform-bernoulli --slots 10000000 --stream \
        --progress --progress-every 4                    # heartbeat to stderr

Results are cached as JSON under ``.repro_cache/<version>/`` keyed by the
job's configuration and the package version, so a second invocation of the
same exhibit is served from disk without re-simulating (``--verbose`` notes
every cache hit on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import List, Optional, Sequence

import repro
from repro.errors import ConfigurationError, ReproError
from repro.runner.cache import ResultCache
from repro.runner.experiments import EXPERIMENTS, get_experiment
from repro.runner.sweep import SweepRunner

#: Subcommand that runs every registered experiment.
ALL = "all"
#: Subcommand that runs a single named workload scenario.
SCENARIO = "scenario"
#: Subcommand that runs a single named multi-port switch scenario.
SWITCH = "switch"
#: Subcommand that runs the fixed perf-trajectory benchmark suite.
BENCH = "bench"
#: Subcommand that differentially fuzzes random specs across every engine.
FUZZ = "fuzz"
#: Subcommand that inspects NDJSON run traces written with --trace-out.
TRACE = "trace"
#: Subcommand that runs the AST-based invariant checker over the tree.
LINT = "lint"


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=("Reproduce the tables and figures of 'Design and "
                     "Implementation of High-Performance Memory Systems for "
                     "Future Packet Buffers' (Garcia et al., MICRO-36, 2003)."))
    parser.add_argument("--version", action="version",
                        version=f"repro {repro.__version__}")

    # Observability flags shared by every execution subcommand: a metrics
    # registry rendered to stderr on exit, an NDJSON run trace, and verbose
    # cache-hit notes.  Enabling any of them never changes a report.
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument("--metrics", action="store_true",
                     help="collect run metrics (counters/gauges/timings) "
                          "and print them to stderr on exit; never changes "
                          "any report")
    obs.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write a timestamped NDJSON run trace to FILE "
                          "(inspect with 'repro trace summarize FILE')")
    obs.add_argument("--verbose", action="store_true",
                     help="log a one-line stderr note for every result "
                          "served from the cache")

    # Failure-handling flags shared by every sweep-running subcommand.  The
    # CLI defaults to graceful degradation (a permanently failing job becomes
    # a FAILED row with provenance, siblings still complete); --strict
    # restores fail-fast.
    robust = argparse.ArgumentParser(add_help=False)
    robust.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job wall-clock timeout in seconds (a "
                             "switch run is one job); a job exceeding it is "
                             "retried, then quarantined (enforcement runs "
                             "every job in a worker process it can kill)")
    robust.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retries for transiently failed jobs (worker "
                             "death, timeout, TransientJobError) with "
                             "exponential backoff (default: 2)")
    robust.add_argument("--strict", action="store_true",
                        help="fail fast: abort the whole sweep on the first "
                             "permanently failed job instead of reporting "
                             "partial results with failure provenance")

    common = argparse.ArgumentParser(add_help=False, parents=[obs, robust])
    common.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the sweep (0 = one per "
                             "CPU; default: 1, serial)")
    common.add_argument("--no-cache", action="store_true",
                        help="recompute everything; neither read nor write "
                             "the on-disk result cache")
    common.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache root directory (default: .repro_cache)")
    common.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="write the report to FILE instead of stdout")
    common.add_argument("--dry-run", action="store_true",
                        help="print the jobs the experiment would run, "
                             "without computing anything")

    subparsers = parser.add_subparsers(dest="experiment", metavar="EXPERIMENT")
    for name, spec in EXPERIMENTS.items():
        subparsers.add_parser(name, parents=[common], help=spec.description,
                              description=f"{spec.title}. {spec.description}")
    subparsers.add_parser(
        ALL, parents=[common], help="run every experiment",
        description="Reproduce every registered exhibit in one run.")

    scenario = subparsers.add_parser(
        SCENARIO, parents=[obs, robust],
        help="run one named workload scenario",
        description=("Run a single scenario from the workload registry "
                     "(see --list), optionally recording or replaying its "
                     "traffic trace."))
    scenario.add_argument("name", nargs="?", metavar="NAME",
                          help="scenario name (see --list)")
    scenario.add_argument("--list", action="store_true", dest="list_scenarios",
                          help="list the registered scenarios and exit")
    scenario.add_argument("--slots", type=int, default=None, metavar="N",
                          help="override the scenario's slot count")
    scenario.add_argument("--engine", default=None, metavar="NAME",
                          help="simulation core to use: array (the default, "
                               "with the compiled span kernel when it "
                               "builds) or reference (the object-model "
                               "oracle); both produce bit-identical "
                               "reports, and an unknown name is a one-line "
                               "error, not a traceback")
    scenario.add_argument("--stream", action="store_true",
                          help="run through the bounded-memory streaming "
                               "path (chunked arrival plans; implied by the "
                               "other streaming flags)")
    scenario.add_argument("--chunk-slots", type=int, default=None,
                          metavar="N",
                          help="streaming chunk size in slots "
                               "(default: 65536)")
    scenario.add_argument("--warmup", type=int, default=0, metavar="N",
                          help="discard the first N slots from the report's "
                               "statistics (steady-state measurement; "
                               "implies --stream)")
    scenario.add_argument("--checkpoint-every", type=int, default=None,
                          metavar="K",
                          help="write a resumable snapshot every K slots "
                               "(implies --stream)")
    scenario.add_argument("--checkpoint", default=None, metavar="FILE",
                          help="snapshot file for --checkpoint-every "
                               "(default: .repro_cache/<version>/checkpoints/"
                               "<name>.ckpt.json)")
    scenario.add_argument("--resume", default=None, metavar="FILE",
                          help="resume a checkpointed streaming run from "
                               "FILE and continue it to completion "
                               "(bit-identical to the uninterrupted run)")
    scenario.add_argument("--progress", action="store_true",
                          help="print a heartbeat line to stderr while a "
                               "streaming run executes (slots done, "
                               "slots/sec, ETA; implies --stream)")
    scenario.add_argument("--progress-every", type=int, default=1,
                          metavar="N",
                          help="chunks between --progress heartbeats "
                               "(default: 1, every chunk)")
    scenario.add_argument("--record", default=None, metavar="FILE",
                          help="save the run's (arrival, request) trace to FILE")
    scenario.add_argument("--trace-format", choices=["binary", "ndjson"],
                          default="binary",
                          help="on-disk format for --record (default: binary)")
    scenario.add_argument("--replay", default=None, metavar="FILE",
                          help="drive the scenario's buffer with a trace "
                               "previously saved with --record, instead of "
                               "its own generators")
    scenario.add_argument("--from-spec", default=None, metavar="FILE",
                          help="compile a YAML sweep document (kind: "
                               "scenario) with grid expansion and run every "
                               "job through the sweep runner; replaces NAME")
    scenario.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                          help="worker processes for --from-spec sweeps "
                               "(0 = one per CPU; default: 1, serial)")
    scenario.add_argument("--dry-run", action="store_true",
                          help="with --from-spec: print the expanded jobs, "
                               "compute nothing")
    scenario.add_argument("-o", "--output", default=None, metavar="FILE",
                          help="write the report to FILE instead of stdout")

    switch = subparsers.add_parser(
        SWITCH, parents=[obs, robust],
        help="run one named multi-port switch scenario",
        description=("Run a switch scenario from the switch registry (see "
                     "--list): N per-port buffers behind a crossbar fabric, "
                     "whose stage streams straight into the ports in one "
                     "job.  The report is identical for every "
                     "--chunk-slots."))
    switch.add_argument("name", nargs="?", metavar="NAME",
                        help="switch scenario name (see --list)")
    switch.add_argument("--list", action="store_true", dest="list_switches",
                        help="list the registered switch scenarios and exit")
    switch.add_argument("--ports", type=int, default=None, metavar="N",
                        help="override the scenario's port count")
    switch.add_argument("--slots", type=int, default=None, metavar="N",
                        help="override the scenario's arrival-slot count")
    switch.add_argument("--engine", default=None, metavar="NAME",
                        help="simulation core for the port stage: array "
                             "(the default) or reference; both are "
                             "bit-identical")
    switch.add_argument("--fabric", choices=["islip", "random", "priority"],
                        default=None,
                        help="override the scenario's fabric arbiter "
                             "(default parameters)")
    switch.add_argument("--chunk-slots", type=int, default=None, metavar="N",
                        help="the fabric stage's window in slots (default: "
                             "65536); memory is bounded by it")
    switch.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help="worker processes for a --from-spec sweep (0 = "
                             "one per CPU; default: 1); one switch run is one "
                             "in-process job whatever N is")
    switch.add_argument("--from-spec", default=None, metavar="FILE",
                        help="compile a YAML sweep document (kind: switch) "
                             "with grid expansion and run every job through "
                             "the sweep runner; replaces NAME")
    switch.add_argument("--dry-run", action="store_true",
                        help="with --from-spec: print the expanded jobs, "
                             "compute nothing")
    switch.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="write the report to FILE instead of stdout")

    fuzz = subparsers.add_parser(
        FUZZ, parents=[obs],
        help="differentially fuzz random specs across every engine",
        description=("Draw seeded random scenario/switch specs "
                     "(repro.workloads.fuzz) and run each on both "
                     "engines, monolithic and streamed, asserting "
                     "bit-identical reports.  Diverging specs are dumped as "
                     "replayable JSON artifacts."))
    fuzz.add_argument("--seeds", type=int, default=25, metavar="N",
                      help="number of fuzz cases to draw (default: 25, the "
                           "PR-path budget; the nightly job runs 200)")
    fuzz.add_argument("--master-seed", type=int, default=None, metavar="S",
                      help="master seed the whole run derives from "
                           "(default: the frozen CI seed)")
    fuzz.add_argument("--stream", action="store_true",
                      help="add the expensive streamed legs: warmup offsets, "
                           "checkpoint/resume, and the switch's per-port "
                           "oracle and drawn windows on both engines")
    fuzz.add_argument("--faults", action="store_true",
                      help="add the chaos legs: re-run each case under "
                           "seeded fault injection (worker kills, transient "
                           "errors, corrupt cache entries, torn "
                           "checkpoints) and assert the reports stay "
                           "bit-identical to the fault-free run")
    fuzz.add_argument("--artifact-dir", default=None, metavar="DIR",
                      help="write each diverging case as a replayable JSON "
                           "artifact under DIR")
    fuzz.add_argument("--replay", default=None, metavar="FILE",
                      help="re-run one dumped divergence artifact instead "
                           "of drawing new cases")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress the per-case progress lines on stderr")
    fuzz.add_argument("-o", "--output", default=None, metavar="FILE",
                      help="write the closing summary to FILE instead of "
                           "stdout")

    bench = subparsers.add_parser(
        BENCH, parents=[obs],
        help="run the perf-trajectory benchmark suite",
        description=("Time the fixed benchmark suite (scenario loops on "
                     "both engines, the wide-queue stressor, the MMA "
                     "ablation) and write per-benchmark medians to a JSON "
                     "snapshot for cross-PR comparison.  --compare diffs "
                     "against a committed baseline; --fail-on-regression "
                     "turns the diff into an exit-1 gate on the derived "
                     "ratios."))
    bench.add_argument("--quick", action="store_true",
                       help="reduced slot counts (the CI perf-smoke mode)")
    bench.add_argument("--repeats", type=int, default=None, metavar="N",
                       help="timing repetitions per benchmark "
                            "(default: 5, or 3 with --quick)")
    bench.add_argument("--filter", default=None, metavar="SUBSTR",
                       dest="name_filter",
                       help="only run benchmarks whose name contains SUBSTR")
    bench.add_argument("--list", action="store_true", dest="list_benchmarks",
                       help="list the suite's benchmarks and exit")
    bench.add_argument("--profile", action="store_true",
                       help="run every benchmark once more under cProfile "
                            "(after the timed repeats) and record the "
                            "hottest frames in the snapshot")
    bench.add_argument("--profile-top", type=int, default=None, metavar="N",
                       help="frames recorded per profiled benchmark "
                            "(default: 10)")
    bench.add_argument("--compare", default=None, metavar="BASELINE.json",
                       help="diff the fresh results (or --against CURRENT) "
                            "against this committed snapshot")
    bench.add_argument("--against", default=None, metavar="CURRENT.json",
                       help="with --compare: diff two existing snapshots "
                            "without running the suite")
    bench.add_argument("--fail-on-regression", type=float, default=None,
                       metavar="PCT", dest="fail_on_regression",
                       help="exit 1 when any gated derived ratio regressed "
                            "by more than PCT percent (requires --compare)")
    bench.add_argument("--ratios", default=None, metavar="NAME[,NAME...]",
                       help="restrict the regression gate to these derived "
                            "ratios (default: every ratio both snapshots "
                            "share)")
    bench.add_argument("--compare-json", default=None, metavar="FILE",
                       help="also write the compare report as JSON to FILE "
                            "(the CI artifact)")
    bench.add_argument("-o", "--output", default=None, metavar="FILE",
                       help="JSON snapshot path (default: BENCH_9.json; "
                            "'-' to skip writing the file)")

    trace = subparsers.add_parser(
        TRACE, help="inspect an NDJSON run trace written with --trace-out",
        description=("Summarize a structured run trace: event histogram, "
                     "chunk throughput, checkpoint latencies, cache "
                     "hit/miss counts, fuzz divergences."))
    trace.add_argument("action", choices=["summarize"],
                       help="what to do with the trace file")
    trace.add_argument("file", metavar="TRACE.ndjson",
                       help="the NDJSON trace file to read")
    trace.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the summary as JSON instead of text")
    trace.add_argument("-o", "--output", default=None, metavar="FILE",
                       help="write the summary to FILE instead of stdout")

    from repro.lint.cli import add_lint_arguments

    lint = subparsers.add_parser(
        LINT, help="check the tree against the project's written invariants",
        description=("AST-based static analysis enforcing the contracts "
                     "ordinary linters cannot see: determinism, checkpoint "
                     "purity of the span cores, the repro.errors taxonomy, "
                     "and span-granular observability.  Exit 0 when clean, "
                     "1 on findings."))
    add_lint_arguments(lint)
    return parser


def _runner_options(args: argparse.Namespace) -> dict:
    """The failure-handling knobs every CLI-built runner shares."""
    return {
        "timeout": getattr(args, "timeout", None),
        "retries": getattr(args, "retries", 2),
        "strict": getattr(args, "strict", False),
    }


def _run_from_spec(parser: argparse.ArgumentParser, args: argparse.Namespace,
                   kind: str) -> int:
    """Handle ``--from-spec sweep.yaml`` for either subcommand."""
    from repro.workloads.spec_yaml import (
        compile_jobs,
        load_yaml_document,
        render_sweep_results,
    )

    try:
        document = load_yaml_document(args.from_spec)
        if document.kind != kind:
            print(f"error: {args.from_spec}: document kind "
                  f"{document.kind!r} does not match the {kind!r} "
                  "subcommand", file=sys.stderr)
            return 1
        points, spec_jobs = compile_jobs(document)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.dry_run:
        lines = [f"{document.name}: {len(points)} jobs"]
        lines.extend(f"  {point.describe()}" for point in points)
        return _emit("\n".join(lines), args.output)
    try:
        runner = SweepRunner(jobs=args.jobs, **_runner_options(args))
        results = runner.run(spec_jobs)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    title = f"{document.name} ({len(points)} jobs)"
    return _emit(render_sweep_results(points, results, title=title),
                 args.output)


def _progress_printer():
    """The ``--progress`` heartbeat: one stderr line per report interval."""
    def emit(info) -> None:
        total = info["num_slots"]
        if total:
            done_text = (f"slot {info['slot']}/{total} "
                         f"({info['slot'] / total * 100:5.1f}%)")
        else:
            done_text = f"slot {info['slot']}"
        rate = info["slots_per_s"]
        eta = info["eta_s"]
        eta_text = f", eta {eta:.0f}s" if eta is not None else ""
        print(f"[stream] {done_text}, {rate / 1e3:.1f} kslots/s"
              f"{eta_text}", file=sys.stderr)

    return emit


def _run_scenario_command(parser: argparse.ArgumentParser,
                          args: argparse.Namespace) -> int:
    """Handle ``python -m repro scenario ...``."""
    from repro.analysis.report import format_table, render_scenario_run
    from repro.sim import DEFAULT_ENGINE
    from repro.sim.engine import ClosedLoopSimulation
    from repro.traffic.arbiters import TraceArbiter
    from repro.traffic.arrivals import TraceArrivals
    from repro.workloads.registry import all_scenarios, get_scenario
    from repro.workloads.traceio import load_trace, save_trace

    if args.from_spec is not None:
        if args.name is not None:
            parser.error("--from-spec replaces NAME; give one or the other")
        return _run_from_spec(parser, args, kind=SCENARIO)
    if args.list_scenarios:
        table = format_table(
            ["name", "scheme", "slots", "tags", "description"],
            [[s.name, s.scheme, s.num_slots, ",".join(s.tags), s.description]
             for s in all_scenarios()],
            title="Registered workload scenarios")
        return _emit(table, args.output)
    if args.name is None:
        parser.error("scenario: a NAME is required (or use --list)")

    streaming = (args.stream or args.warmup > 0
                 or args.checkpoint_every is not None
                 or args.checkpoint is not None
                 or args.chunk_slots is not None
                 or args.resume is not None
                 or args.progress)
    if args.warmup < 0:
        parser.error("--warmup must be non-negative")
    if args.progress_every < 1:
        parser.error("--progress-every must be at least 1")
    progress = _progress_printer() if args.progress else None
    if (args.checkpoint is not None and args.checkpoint_every is None
            and args.resume is None):
        # Without a cadence no snapshot would ever be written; failing loudly
        # beats a user believing their long run is crash-resumable.
        parser.error("--checkpoint needs --checkpoint-every K to set the "
                     "snapshot cadence (or --resume to override where a "
                     "resumed run keeps checkpointing)")
    if streaming and args.replay is not None:
        parser.error("streaming flags do not combine with --replay")
    if streaming and args.record is not None:
        parser.error("streaming flags do not combine with --record (trace "
                     "recording is O(slots) memory)")
    try:
        scenario = get_scenario(args.name)
        engine = args.engine if args.engine is not None else DEFAULT_ENGINE
        if args.resume is not None:
            from repro.sim.streaming import read_checkpoint, resume_stream

            # The snapshot carries the complete run configuration, so flags
            # that would conflict with it are rejected rather than silently
            # ignored (--checkpoint-every/--checkpoint remain overridable).
            if (args.slots is not None or args.engine is not None
                    or args.warmup or args.chunk_slots is not None
                    or args.stream):
                parser.error("--resume restores the run's own configuration; "
                             "it conflicts with --slots/--engine/"
                             "--warmup/--chunk-slots/--stream")
            meta = read_checkpoint(args.resume)
            if meta.get("label") is not None and meta["label"] != args.name:
                print(f"error: {args.resume} is a checkpoint of scenario "
                      f"{meta['label']!r}, not {args.name!r}",
                      file=sys.stderr)
                return 1
            report = resume_stream(args.resume,
                                   checkpoint_every=args.checkpoint_every,
                                   checkpoint_path=args.checkpoint,
                                   progress=progress,
                                   progress_every=args.progress_every)
            text = render_scenario_run(scenario.name, scenario.scheme, report)
            text += (f"\nresumed from {args.resume} at slot {meta['slot']} "
                     f"of {meta['num_slots']} ({meta['engine']} engine)")
            return _emit(text, args.output)
        if streaming:
            checkpoint_path = args.checkpoint
            if args.checkpoint_every is not None and checkpoint_path is None:
                cache = ResultCache()
                checkpoint_path = str(cache.artifact_dir("checkpoints")
                                      / f"{scenario.name}.ckpt.json")
            report = scenario.run_stream(
                num_slots=args.slots, engine=engine,
                chunk_slots=args.chunk_slots, warmup_slots=args.warmup,
                checkpoint_every=args.checkpoint_every,
                checkpoint_path=checkpoint_path,
                progress=progress,
                progress_every=args.progress_every)
            text = render_scenario_run(scenario.name, scenario.scheme, report)
            if args.warmup:
                text += f"\nwarmup: first {args.warmup} slots discarded"
            if args.checkpoint_every is not None:
                text += (f"\ncheckpoints every {args.checkpoint_every} slots "
                         f"-> {checkpoint_path}")
            return _emit(text, args.output)
        record = args.record is not None
        if args.replay is not None:
            trace, _metadata = load_trace(args.replay)
            buffer = scenario.build_buffer()
            num_queues = buffer.config.num_queues
            top = max((q for event in trace.events for q in event
                       if q is not None), default=-1)
            if top >= num_queues:
                raise ConfigurationError(
                    f"trace {args.replay} uses queue {top} but scenario "
                    f"{scenario.name!r} has only {num_queues} queues")
            sim = ClosedLoopSimulation(buffer,
                                       TraceArrivals(trace.arrivals()),
                                       TraceArbiter(trace.requests()),
                                       record_trace=record)
            num_slots = len(trace) if args.slots is None else args.slots
            report = sim.run(num_slots, engine=engine)
        else:
            report = scenario.run(num_slots=args.slots, engine=engine,
                                  record_trace=record)
        if record:
            save_trace(report.trace, args.record, format=args.trace_format,
                       metadata={"scenario": scenario.name,
                                 "scheme": scenario.scheme,
                                 "num_queues": scenario.buffer["num_queues"],
                                 "seed": scenario.seed,
                                 "replayed_from": args.replay})
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot access trace file: {exc}", file=sys.stderr)
        return 1
    text = render_scenario_run(scenario.name, scenario.scheme, report)
    if record:
        text += f"\ntrace saved to {args.record} ({args.trace_format})"
    return _emit(text, args.output)


def _run_switch_command(parser: argparse.ArgumentParser,
                        args: argparse.Namespace) -> int:
    """Handle ``python -m repro switch ...``."""
    from repro.analysis.report import format_table, render_switch_run
    from repro.switch.model import DEFAULT_ENGINE, SwitchModel
    from repro.switch.registry import all_switch_scenarios, get_switch_scenario

    if args.from_spec is not None:
        if args.name is not None:
            parser.error("--from-spec replaces NAME; give one or the other")
        return _run_from_spec(parser, args, kind=SWITCH)
    if args.list_switches:
        table = format_table(
            ["name", "ports", "slots", "fabric", "tags", "description"],
            [[s.name, s.num_ports, s.num_slots, s.fabric["type"],
              ",".join(s.tags), s.description]
             for s in all_switch_scenarios()],
            title="Registered switch scenarios")
        return _emit(table, args.output)
    if args.name is None:
        parser.error("switch: a NAME is required (or use --list)")
    if args.ports is not None and args.ports <= 0:
        parser.error("--ports must be positive")

    try:
        scenario = get_switch_scenario(args.name).with_overrides(
            num_ports=args.ports, num_slots=args.slots)
        if args.fabric is not None:
            import dataclasses

            scenario = dataclasses.replace(
                scenario, fabric={"type": args.fabric, "params": {}})
        engine = args.engine if args.engine is not None else DEFAULT_ENGINE
        runner = SweepRunner(jobs=args.jobs, **_runner_options(args))
        report = SwitchModel(scenario).run(engine=engine, runner=runner,
                                           chunk_slots=args.chunk_slots)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _emit(render_switch_run(report), args.output)


def _run_fuzz_command(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> int:
    """Handle ``python -m repro fuzz ...``."""
    from repro.workloads.fuzz import (
        DEFAULT_MASTER_SEED,
        FuzzSummary,
        dump_artifact,
        fuzz_many,
        load_artifact,
        render_summary,
        run_case,
    )

    master_seed = (DEFAULT_MASTER_SEED if args.master_seed is None
                   else args.master_seed)
    try:
        if args.replay is not None:
            case = load_artifact(args.replay)
            divergences = run_case(case, stream=args.stream,
                                   faults=args.faults)
            summary = FuzzSummary(
                cases=1, switch_cases=int(case.kind == "switch"))
            if divergences:
                summary.failures.append((case, divergences))
                if args.artifact_dir is not None:
                    summary.artifacts.append(
                        dump_artifact(case, divergences, args.artifact_dir,
                                      args.stream, faults=args.faults))
        else:
            if args.seeds < 1:
                parser.error("--seeds must be at least 1")
            progress = (None if args.quiet
                        else lambda line: print(line, file=sys.stderr))
            summary = fuzz_many(args.seeds, master_seed=master_seed,
                                stream=args.stream, faults=args.faults,
                                artifact_dir=args.artifact_dir,
                                progress=progress)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    code = _emit(render_summary(summary, stream=args.stream,
                                faults=args.faults), args.output)
    if code != 0:
        return code
    return 0 if summary.ok else 1


def _run_bench_command(parser: argparse.ArgumentParser,
                       args: argparse.Namespace) -> int:
    """Handle ``python -m repro bench ...``."""
    import json

    from repro.analysis.report import format_table
    from repro.bench import (
        DEFAULT_OUTPUT,
        SUITE,
        render_results,
        run_suite,
        write_results,
    )
    from repro.obs.compare import (
        compare_documents,
        load_bench_document,
        ratio_regressions,
        render_compare,
    )

    if args.list_benchmarks:
        table = format_table(
            ["name", "description"],
            [[case.name, case.description] for case in SUITE],
            title="Perf-trajectory benchmark suite")
        print(table)
        return 0
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.profile_top is not None and args.profile_top < 1:
        parser.error("--profile-top must be at least 1")
    if args.against is not None and args.compare is None:
        parser.error("--against needs --compare BASELINE.json to diff "
                     "against")
    if args.fail_on_regression is not None and args.compare is None:
        parser.error("--fail-on-regression needs --compare BASELINE.json")
    if args.ratios is not None and args.compare is None:
        parser.error("--ratios needs --compare BASELINE.json")
    ratio_names = ([name.strip() for name in args.ratios.split(",")
                    if name.strip()] if args.ratios is not None else None)
    if args.ratios is not None and not ratio_names:
        parser.error("--ratios got an empty list")

    try:
        baseline = (load_bench_document(args.compare)
                    if args.compare is not None else None)
        if args.against is not None:
            # Pure snapshot diff: nothing is run.
            document = load_bench_document(args.against)
        else:
            document = run_suite(quick=args.quick, repeats=args.repeats,
                                 name_filter=args.name_filter,
                                 profile=args.profile,
                                 profile_top=args.profile_top)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not document["benchmarks"]:
        print(f"error: no benchmark matches --filter {args.name_filter!r}",
              file=sys.stderr)
        return 1

    blocks: List[str] = []
    if args.against is None:
        blocks.append(render_results(document))
        output = args.output if args.output is not None else DEFAULT_OUTPUT
        if output != "-":
            try:
                write_results(document, output)
            except OSError as exc:
                print(f"error: cannot write {output}: {exc}",
                      file=sys.stderr)
                return 1
            blocks.append(f"results written to {output}")

    failed = False
    if baseline is not None:
        try:
            report = compare_documents(baseline, document)
            threshold = args.fail_on_regression
            failures = (ratio_regressions(report, threshold, ratio_names)
                        if threshold is not None else None)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        failed = bool(failures)
        blocks.append(render_compare(report, threshold_pct=threshold,
                                     ratio_names=ratio_names,
                                     failures=failures))
        if args.compare_json is not None:
            try:
                with open(args.compare_json, "w",
                          encoding="utf-8") as handle:
                    json.dump(report, handle, indent=2, sort_keys=False)
                    handle.write("\n")
            except OSError as exc:
                print(f"error: cannot write {args.compare_json}: {exc}",
                      file=sys.stderr)
                return 1
            blocks.append(f"compare report written to {args.compare_json}")
    print("\n\n".join(blocks))
    return 1 if failed else 0


def _run_trace_command(parser: argparse.ArgumentParser,
                       args: argparse.Namespace) -> int:
    """Handle ``python -m repro trace summarize ...``."""
    import json

    from repro.obs.trace import render_trace_summary, summarize_trace

    try:
        summary = summarize_trace(args.file)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        return _emit(json.dumps(summary, indent=2, sort_keys=False),
                     args.output)
    return _emit(render_trace_summary(summary), args.output)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is None:
        parser.print_help()
        return 2
    if args.experiment == TRACE:
        # The inspector only reads a trace; no observability setup needed.
        return _run_trace_command(parser, args)
    if args.experiment == LINT:
        # Static analysis never simulates; skip observability setup too.
        from repro.lint.cli import run_lint_command

        return run_lint_command(parser, args)

    # --metrics / --trace-out: install the observability layer around the
    # whole command.  Recording is after-the-fact only, so the report of an
    # instrumented run is bit-identical to an unobserved one.
    from repro.obs.metrics import render_metrics, using_metrics
    from repro.obs.trace import TraceWriter, using_trace

    trace_out = getattr(args, "trace_out", None)
    registry = None
    with contextlib.ExitStack() as stack:
        if getattr(args, "metrics", False):
            registry = stack.enter_context(using_metrics())
        if trace_out:
            try:
                writer = stack.enter_context(TraceWriter(trace_out))
            except OSError as exc:
                print(f"error: cannot open trace file {trace_out!r}: {exc}",
                      file=sys.stderr)
                return 1
            stack.enter_context(using_trace(writer))
        try:
            code = _dispatch(parser, args)
        except KeyboardInterrupt:
            # The sweep runner has already torn its workers down and swept
            # partial temp files (see SweepRunner.run); exit the way shells
            # expect an interrupted process to — one line, code 128+SIGINT,
            # no multiprocessing traceback spew.
            print("interrupted", file=sys.stderr)
            return 130
    if registry is not None:
        print(render_metrics(registry.snapshot(), "run metrics"),
              file=sys.stderr)
    if trace_out:
        print(f"trace written to {trace_out}", file=sys.stderr)
    return code


def _dispatch(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> int:
    """Route to the subcommand handler (observability already installed)."""
    if args.experiment == SCENARIO:
        return _run_scenario_command(parser, args)
    if args.experiment == SWITCH:
        return _run_switch_command(parser, args)
    if args.experiment == BENCH:
        return _run_bench_command(parser, args)
    if args.experiment == FUZZ:
        return _run_fuzz_command(parser, args)

    names = list(EXPERIMENTS) if args.experiment == ALL else [args.experiment]
    specs = [get_experiment(name) for name in names]

    if args.dry_run:
        lines: List[str] = []
        for spec in specs:
            jobs = spec.build_jobs()
            lines.append(f"{spec.name}: {len(jobs)} jobs")
            lines.extend(f"  {job.describe()}" for job in jobs)
        return _emit("\n".join(lines), args.output)

    cache = (None if args.no_cache
             else ResultCache(root=args.cache_dir, verbose=args.verbose))
    try:
        runner = SweepRunner(jobs=args.jobs, cache=cache,
                             **_runner_options(args))
    except ReproError as exc:
        parser.error(str(exc))

    from repro.runner.sweep import JobFailure
    from repro.workloads.spec_yaml import render_job_failures

    blocks: List[str] = []
    started = time.perf_counter()
    total_failed = 0
    for spec in specs:
        jobs = spec.build_jobs()
        try:
            results = runner.run(jobs)
        except ReproError as exc:
            print(f"error while running {spec.name}: {exc}", file=sys.stderr)
            return 1
        # A non-strict runner quarantines poisoned jobs as JobFailure
        # entries.  Renderers consume (result, job) pairs, so both lists are
        # filtered in lockstep and the failures reported below the exhibit.
        failures = [r for r in results if isinstance(r, JobFailure)]
        if failures:
            total_failed += len(failures)
            survivors = [(r, j) for r, j in zip(results, jobs)
                         if not isinstance(r, JobFailure)]
            results = [r for r, _ in survivors]
            jobs = [j for _, j in survivors]
        block = f"== {spec.title} ==\n\n{spec.render(results, jobs)}"
        if failures:
            block += "\n\n" + render_job_failures(failures)
        blocks.append(block)
    elapsed = time.perf_counter() - started

    hits = cache.hits if cache is not None else 0
    failed_note = f", {total_failed} job(s) FAILED" if total_failed else ""
    blocks.append(f"[runner] {runner.executed} jobs executed, {hits} cache "
                  f"hits, {runner.jobs} worker(s), {elapsed:.2f} s"
                  f"{failed_note}")
    return _emit("\n\n".join(blocks), args.output)


def _emit(text: str, output: Optional[str]) -> int:
    if output is None:
        try:
            print(text)
        except BrokenPipeError:
            # Downstream pipe (e.g. `| head`) closed early; not an error.
            sys.stderr.close()
        return 0
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        print(f"error: cannot write {output}: {exc}", file=sys.stderr)
        return 1
    return 0
