"""One benchmark run in a fresh interpreter; prints one JSON line.

Usage: ``child.py MODE WORKLOAD SEED SPAWNED_AT WORK_DIR`` where
``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system wide on Linux), so ``setup_s``
counts interpreter start, imports, the span kernel's load (oc768-stream
only) and building the workload.

Every timed mode also reports ``calibration_s``: the mean time of a fixed
pure-python loop run right before and right after the timed run, in as
many processes at once as the run uses (one, or the switch's port
workers).  ``run.py`` divides it out of the run's timings, so the speed
the shared host happens to give this vCPU at that moment cancels.

Modes:

* ``plain``: set up, run once untraced, gate the report.
* ``metrics``: the same with a ``repro.obs`` registry installed; sends back
  its counters.
* ``traced``: the same with the tracer's wrappers and the registry; sends
  back per-layer numbers and writes the spans to ``WORK_DIR``.
* ``reference``: the plain run on the workload's second engine.
* ``kernel``: time ``load_kernel()``, compiling the span kernel into the
  cache under ``XDG_CACHE_HOME`` if it is not there: the parent's own
  cache to warm it, an empty throwaway directory to time a compile.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import struct
import sys
import time

#: Iterations of one calibration pass: about 0.12 s on a 2.1 GHz Xeon vCPU.
CALIBRATION_LOOPS = 1_000_000


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest waited-for
    child (the switch's port workers; the calibration copies forked before
    the run are no larger than the workers forked later), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def calibration_pass() -> float:
    """Seconds a fixed pure-python loop takes on this CPU just now."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def calibrate(processes: int) -> float:
    """Mean seconds of a calibration pass with ``processes`` passes running
    at once: this process's own and ``processes - 1`` forked copies."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        # A hook that slows every python frame would slow the loop as much
        # as the program, and so cancel out of the rescaled timings.
        raise SystemExit("a trace or profile hook is set; refusing to "
                         "calibrate under it")
    forked = []
    for _ in range(processes - 1):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read)
                os.write(write, struct.pack("d", calibration_pass()))
            finally:
                os._exit(0)
        os.close(write)
        forked.append((pid, read))
    passes = [calibration_pass()]
    for pid, read in forked:
        with os.fdopen(read, "rb") as pipe:
            passes.append(struct.unpack("d", pipe.read(8))[0])
        os.waitpid(pid, 0)
    return sum(passes) / len(passes)


def kernel_mode() -> dict:
    from repro.sim.kernel import load_kernel

    started = time.perf_counter()
    loaded = load_kernel() is not None
    return {"kernel": loaded, "load_s": time.perf_counter() - started}


def timed_run(mode: str, name: str, seed: int, spawned_at: float,
              work_dir: str, checkpoint: str) -> dict:
    from workloads import (Prepared, digest, load_inputs, modelled_counts,
                           violations, workers)

    inputs = load_inputs()[name]
    tracer = None
    out: dict = {}
    import_started = time.perf_counter()
    import repro  # noqa: F401  (the import is part of set-up)

    out["import_s"] = time.perf_counter() - import_started
    if mode == "traced":
        import layers

        tracer = layers.install()
        out["identity_problems"] = tracer.check_identities()
        setup = tracer.open("setup")
    engine = inputs["reference_engine"] if mode == "reference" \
        else inputs["engine"]
    # Only the streamed workload (Q <= 254) reaches the span kernel; the
    # others never load it, so neither does their set-up here.
    if engine == "numpy" and inputs["kind"] == "stream":
        from repro.sim.kernel import load_kernel

        load_started = time.perf_counter()
        load_kernel()
        out["kernel_load_s"] = time.perf_counter() - load_started
    prepared = Prepared(name, inputs, seed, engine, checkpoint)
    if tracer is not None:
        tracer.close(setup)
    out["setup_s"] = time.monotonic() - spawned_at

    registry = None
    observed = contextlib.nullcontext()
    if mode in ("metrics", "traced"):
        from repro.obs.metrics import MetricsRegistry, using_metrics

        registry = MetricsRegistry()
        observed = using_metrics(registry)
    processes = workers(inputs) if inputs["kind"] == "switch" else 1
    calibrated_before = calibrate(processes)
    with observed, (tracer.span("run") if tracer is not None
                    else contextlib.nullcontext()):
        started = time.perf_counter()
        report = prepared.run()
        out["run_s"] = time.perf_counter() - started
    # Read before the second calibration forks: only the port workers
    # count among the children.
    out["peak_rss_mib"] = peak_rss_mib()
    out["calibration_s"] = (calibrated_before + calibrate(processes)) / 2
    if registry is not None:
        out["counters"] = registry.snapshot()["counters"]
    out["digest"] = digest(report)
    out["violations"] = violations(prepared, report)
    out["counts"] = modelled_counts(prepared, report)
    if tracer is not None:
        out.update(layers.after_run(tracer, prepared, report, checkpoint))
        spans_path = os.path.join(work_dir, f"spans-{name}-seed{seed}.json")
        tracer.write(spans_path)
        out["spans_path"] = spans_path
        out["layers"] = layers.summarize(tracer, prepared, out)
    return out


def main(argv) -> int:
    mode, name, seed, spawned_at, work_dir = argv[1:6]
    if mode == "kernel":
        out = kernel_mode()
    else:
        checkpoint = os.path.join(work_dir, f"checkpoint-{os.getpid()}.json")
        try:
            out = timed_run(mode, name, int(seed), float(spawned_at),
                            work_dir, checkpoint)
        finally:
            if os.path.exists(checkpoint):
                os.unlink(checkpoint)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
