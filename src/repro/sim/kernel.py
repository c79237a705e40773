"""Compiled span kernel for the array engine's RADS core and the switch's
fabric stage.

The RADS core of ``engine="array"`` (:mod:`repro.sim.array_engine`) hands
every span it can to this kernel, and the switch's
:class:`~repro.switch.model.FabricStream` every window of a stock fabric
policy (:func:`run_fabric_window`); the python loops' ceiling is CPython's
bytecode dispatch.  The bundled C99 source ``_spankernel.c`` is
compiled on first use with the system compiler (``cc -O2 -march=native
-shared -fPIC``, falling back to plain ``-O2``), cached under the user's
private cache directory (``$XDG_CACHE_HOME`` or ``~/.cache``, created
``0o700`` and ownership-verified before every load) keyed by a hash of the
source and the interpreter/platform tags, and loaded through :mod:`ctypes`
— no ``Python.h``, no build backend, no wheels, no numpy.

The kernel executes whole spans natively: it resumes the arbiter's (and,
for a deferred Bernoulli plan, the arrival process's) Mersenne Twister from
the ``random.Random`` state and runs the exact RADS slot loop.  Python
hands it only fixed-shape :mod:`array` buffers — per-queue scalars, the
eligible list, the lookahead ring, RNG keys, the arrival plan — plus one
image of the core's variable-length state (:func:`_state_image`).  Every
buffer that grows during the span is the kernel's own; it returns one
exact-size result (the new state, the main window's delays already folded
into ``(delay, count)`` pairs, misses and drained slots), which
:func:`run_span_kernel` reads through a :class:`memoryview`, applies to the
python core and releases with the kernel's ``rads_free_result``.  It takes
any ``num_queues`` up to :data:`MAX_KERNEL_QUEUES`: its arbiter draws read
whole 32-bit words and its arrival plan is ``int32`` (``-1`` = no
arrival).  Failure at any stage — no compiler, compile error, load error,
strict-mode aborts inside the span, or the ``REPRO_SPAN_KERNEL=0`` kill
switch — falls back to the core's scalar loop on the untouched state, so
the kernel is a pure accelerator: every result it produces is
bit-identical to the reference loop (asserted by
``tests/sim/test_span_kernel.py``, which runs the suite with the kernel
and with it switched off).

The fabric entry follows the same rules.  Python hands it the window's
``int32`` arrival plan, iSLIP's pointers or the random policy's MT state,
and one read-only image of the VOQ contents; the kernel runs the window's
arrivals and request/grant/accept matches and returns one exact-size
result (trace rows, the new VOQ image, per-ingress backlog, per-egress
counts, folded waits), released with the same ``rads_free_result``.  A
plan entry that names no egress, or any kernel error, leaves everything
untouched and the python loop replays the window, raising exactly where
the reference does.

Sanitizer-hardened builds
-------------------------
Setting ``REPRO_SPAN_KERNEL_SANITIZE=1`` switches the build to
``-g -O1 -fsanitize=address,undefined -fno-sanitize-recover=all`` so any
out-of-bounds access or undefined behaviour in the C source aborts the
process instead of silently corrupting state.  The sanitized ``.so`` is
cached under its own tag, never mixed with production builds.  Loading it
into a stock CPython requires the sanitizer runtimes to be preloaded and
real ``malloc`` in use::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) \\
                $(gcc -print-file-name=libubsan.so)" \\
    PYTHONMALLOC=malloc ASAN_OPTIONS=detect_leaks=0 \\
    REPRO_SPAN_KERNEL_SANITIZE=1 python -m pytest tests/sim/

(``PYTHONMALLOC=malloc`` matters: pymalloc arenas carry no ASan redzones,
so overflows on Python-allocated buffers would go unseen.)  The
``benchmarks/kernel_sanitize_check.py`` harness sets all of this up and
replays its stressors; CI runs it in the ``kernel-sanitize`` job.  Without
the preload, ``CDLL`` fails and the core falls back to its scalar loop as
usual.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import sys
import sysconfig
import tempfile
import threading
from array import array
from collections import deque
from itertools import chain, islice
from pathlib import Path
from time import perf_counter
from typing import List, NamedTuple, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.metrics import get_metrics
from repro.types import MissRecord

#: Environment kill switch: set to ``0``/``off``/``false`` to disable the
#: compiled kernel (the scalar python loop runs instead; results identical).
KERNEL_ENV = "REPRO_SPAN_KERNEL"

#: Set to ``1``/``on`` to compile the kernel with ASan+UBSan (abort on any
#: memory error or UB).  See the module docstring for the required runtime
#: environment; results remain bit-identical to the production build.
SANITIZE_ENV = "REPRO_SPAN_KERNEL_SANITIZE"

#: Spans shorter than this stay on the python loop — the per-span state
#: marshalling is O(state), so tiny chunks would pay more moving state
#: than simulating it.
MIN_KERNEL_SLOTS = 192

#: Largest ``num_queues`` the kernel takes: its critical-heap keys pack the
#: queue id into 16 bits (``CRIT_KEY`` in ``_spankernel.c``).
MAX_KERNEL_QUEUES = 1 << 16

#: Largest ``num_ports`` the fabric entry takes: its VOQ table holds
#: ``num_ports ** 2`` FIFOs (``MAX_PORTS`` in ``_spankernel.c``).
MAX_FABRIC_PORTS = 1024

#: The fabric entry's policies, in ``POLICY_*`` code order.
FABRIC_POLICIES = ("islip", "random", "priority")

_SOURCE = Path(__file__).with_name("_spankernel.c")

_ERR_OK = 0

#: The kernel's error codes (``ERR_*`` in ``_spankernel.c``), as named in
#: the ``engine.array.kernel_aborts.<code>`` counters.
_ABORT_CODES = {1: "oom", 2: "strict", 3: "arg"}

#: ``ERR_PLAN`` in ``_spankernel.c``: a fabric plan entry naming no egress.
_ERR_PLAN = 4

_CRIT_INF = (1 << 63) - 1  # INT64_MAX, the C marker for "no critical entry"

#: 2**53 — ``Random.random()`` returns ``comb / 2**53``.
_F53 = 9007199254740992

_lock = threading.Lock()
_kernel = None
_kernel_tried = False
#: The kernel's ``rads_free_result``, which releases each result either
#: entry returns.
_release = None
#: The kernel's ``fabric_run_window``.
_fabric = None


class KCfg(ctypes.Structure):
    """Mirror of ``kcfg`` in ``_spankernel.c`` (field order is the ABI)."""

    _fields_ = [(n, ctypes.c_int64) for n in (
        "num_queues", "granularity", "strict", "tail_cap",
        "dram_cap", "sram_cap", "la_len", "num_slots", "start_slot",
        "is_main", "arb_tint", "plan_mode", "bern_tint")] + [
        ("bern_total", ctypes.c_double)] + [
        (n, ctypes.c_int64) for n in (
            "ecqf_fallback", "state_len",
            "tail_total", "dram_total", "sram_total", "la_pos", "negatives",
            "cells_in", "cells_out", "dram_reads", "dram_writes", "dropped",
            "max_tail", "max_head", "crit_len", "pending_len",
            "eligible_len",
            "n_delays", "n_delay_pairs", "n_head_miss", "n_tail_miss",
            "n_drained", "arrivals_seen", "grants", "result_len")]


_U32P = ctypes.POINTER(ctypes.c_uint32)
_I32P = ctypes.POINTER(ctypes.c_int32)
_I64P = ctypes.POINTER(ctypes.c_int64)
_F64P = ctypes.POINTER(ctypes.c_double)

#: The per-queue ``int`` lists the kernel updates in place, in ``kptrs``
#: order (``crit_cache`` follows them; it marks "none" with ``math.inf``).
_QUEUE_FIELDS = ("backlog", "next_seqno", "delivered", "counters",
                 "req_count", "tail_occ", "dram_occ")


class KPtrs(ctypes.Structure):
    """Mirror of ``kptrs`` in ``_spankernel.c`` (field order is the ABI)."""

    _fields_ = [
        ("arb_key", _U32P), ("arb_meta", _I64P),
        ("bern_key", _U32P), ("bern_meta", _I64P),
        ("cum_weights", _F64P), ("plan", _I32P)] + [
        (name, _I64P) for name in _QUEUE_FIELDS] + [
        ("crit_cache", _I64P), ("eligible", _I64P), ("la_ring", _I64P),
        ("state", _I64P), ("result", _I64P),
    ]


class FCfg(ctypes.Structure):
    """Mirror of ``fcfg`` in ``_spankernel.c`` (field order is the ABI)."""

    _fields_ = [(n, ctypes.c_int64) for n in (
        "num_ports", "policy", "num_slots", "start_slot", "flush",
        "state_len", "peak", "slots_run", "offered", "transferred",
        "n_wait_pairs", "result_len")]


class FPtrs(ctypes.Structure):
    """Mirror of ``fptrs`` in ``_spankernel.c`` (field order is the ABI)."""

    _fields_ = [("rng_key", _U32P), ("rng_meta", _I64P),
                ("grant", _I64P), ("accept", _I64P), ("plan", _I32P),
                ("state", _I64P), ("result", _I64P)]


def kernel_enabled() -> bool:
    """False when the ``REPRO_SPAN_KERNEL`` kill switch is set."""
    return os.environ.get(KERNEL_ENV, "").strip().lower() not in (
        "0", "off", "false", "no")


def sanitize_enabled() -> bool:
    """True when ``REPRO_SPAN_KERNEL_SANITIZE`` asks for an ASan/UBSan
    build."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in (
        "1", "on", "true", "yes")


def sanitizer_preload() -> Optional[str]:
    """The ``LD_PRELOAD`` value a sanitized kernel needs, or ``None``.

    ``CDLL`` on an ASan-instrumented ``.so`` only works when the sanitizer
    runtimes are already in the process image; the harness spawns a child
    with this preload set.  Returns ``None`` when no compiler is available
    or it cannot name the runtime libraries (non-GNU toolchains).
    """
    cc = _compiler()
    if cc is None:
        return None
    libs = []
    for lib in ("libasan.so", "libubsan.so"):
        try:
            proc = subprocess.run([cc, f"-print-file-name={lib}"],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        name = proc.stdout.strip()
        # An unresolved name is echoed back verbatim; a resolved one is an
        # absolute path.
        if proc.returncode != 0 or not name or not os.path.isabs(name):
            return None
        libs.append(name)
    return " ".join(libs)


def gate_threshold(load: float) -> int:
    """The kernel's integer form of the ``random() < load`` gate.

    ``random()`` returns ``comb / 2**53`` with ``comb`` a 53-bit integer,
    and ``load * 2**53`` is exact for any float in [0, 1] (the mantissa is
    only shifted), so ``u < load  <=>  comb < ceil(load * 2**53)``.
    """
    return math.ceil(load * float(_F53))


def _cache_dir() -> Path:
    """User-private cache directory for the compiled kernel.

    Never a world-shared location: on a multi-user host a shared temp
    directory would let another local user pre-plant a ``.so`` under a
    predictable name (the tag is computable from public data) that we
    would then ``CDLL`` — arbitrary code execution.  XDG_CACHE_HOME (or
    ``~/.cache``) is user-owned; the sticky-bit tempdir fallback for
    homeless environments is defused by :func:`_trusted`, which refuses
    anything we do not exclusively own.
    """
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    if xdg:
        return Path(xdg) / "repro" / "spankernel"
    try:
        home = Path.home()
    except (RuntimeError, OSError):
        home = None
    if home is not None and str(home) not in ("", "/"):
        return home / ".cache" / "repro" / "spankernel"
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"repro-spankernel-{uid}"


def _trusted(path: Path, want_dir: bool = False) -> bool:
    """True when ``path`` is exclusively ours: owned by the current uid,
    not writable by group/other, and of the expected type (``lstat`` — a
    planted symlink is never followed).  Non-POSIX platforms have no
    shared-tempdir exposure and no ``getuid``; trust the path there."""
    if not hasattr(os, "getuid"):  # pragma: no cover - POSIX-only repo CI
        return True
    import stat

    try:
        st = os.lstat(path)
    except OSError:
        return False
    if st.st_uid != os.getuid() or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        return False
    return stat.S_ISDIR(st.st_mode) if want_dir else stat.S_ISREG(st.st_mode)


def _cache_path() -> Path:
    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    digest.update(sys.implementation.cache_tag.encode())
    digest.update(sysconfig.get_platform().encode())
    if sanitize_enabled():
        # A sanitized .so must never be picked up by a production run (it
        # would fail to load without the preload) nor vice versa.
        digest.update(b"asan-ubsan")
        suffix = "-sanitize"
    else:
        suffix = ""
    tag = digest.hexdigest()[:20]
    return _cache_dir() / f"spankernel-{tag}{suffix}.so"


def _compiler() -> Optional[str]:
    from shutil import which

    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and which(cand):
            return cand
    return None


def _compile(path: Path) -> bool:
    cc = _compiler()
    if cc is None:
        return False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if hasattr(os, "getuid"):
            os.chmod(path.parent, 0o700)  # mkdir mode is umask-clipped
    except OSError:
        return False
    if not _trusted(path.parent, want_dir=True):
        return False
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    # Never -ffast-math: the kernel reproduces CPython's exact IEEE-754
    # double expressions for random() and choices().  -march=native is safe
    # (the cache directory is per-machine and the kernel's floating point is
    # isolated multiplies, nothing contraction-sensitive) but not guaranteed
    # to be supported, so fall back to plain -O2.  Sanitized builds trade
    # speed for checking: -O1 keeps line info honest and -fno-sanitize-
    # recover turns every finding into an abort.
    if sanitize_enabled():
        flag_sets = (
            ["-g", "-O1", "-fsanitize=address,undefined",
             "-fno-sanitize-recover=all"],
        )
    else:
        flag_sets = (["-O2", "-march=native"], ["-O2"])
    for extra in flag_sets:
        cmd = [cc, *extra, "-shared", "-fPIC", "-o", str(tmp), str(_SOURCE)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=120)
            if proc.returncode == 0:
                if hasattr(os, "getuid"):
                    os.chmod(tmp, 0o700)
                os.replace(tmp, path)
                return True
        except (OSError, subprocess.SubprocessError):
            return False
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
    return False


def load_kernel():
    """The loaded kernel's ``rads_run_span`` or ``None`` (cached; a failed
    attempt is not retried within the process)."""
    if not _kernel_tried:
        _load()
    return _kernel


def load_fabric_kernel():
    """The loaded kernel's ``fabric_run_window``, or ``None`` whenever
    :func:`load_kernel` has no kernel: both entries live in one ``.so``."""
    return _fabric if load_kernel() is not None else None


def _load() -> None:
    global _kernel, _kernel_tried, _release, _fabric
    with _lock:
        if _kernel_tried:
            return
        fn = None
        try:
            # The kernel reads RNG keys and the plan as 32-bit words.
            if (kernel_enabled() and _SOURCE.is_file()
                    and array("I").itemsize == array("i").itemsize == 4):
                path = _cache_path()
                # Load nothing we do not exclusively own: a pre-planted
                # cache dir or .so (wrong owner, group/other-writable, or
                # a symlink) is skipped, not trusted — the core falls back
                # to its scalar loop.
                if ((path.is_file() or _compile(path))
                        and _trusted(path.parent, want_dir=True)
                        and _trusted(path)):
                    lib = ctypes.CDLL(str(path))
                    fn = lib.rads_run_span
                    fn.restype = ctypes.c_int64
                    fn.argtypes = [ctypes.POINTER(KCfg),
                                   ctypes.POINTER(KPtrs)]
                    release = lib.rads_free_result
                    release.restype = None
                    release.argtypes = [_I64P]
                    fabric = lib.fabric_run_window
                    fabric.restype = ctypes.c_int64
                    fabric.argtypes = [ctypes.POINTER(FCfg),
                                       ctypes.POINTER(FPtrs)]
        except (OSError, AttributeError):
            fn = None
        if fn is not None:
            _release = release
            _fabric = fabric
        _kernel = fn
        _kernel_tried = True
        obs = get_metrics()
        if obs is not None:
            obs.inc("engine.array.kernel_loaded" if fn is not None
                    else "engine.array.kernel_unavailable")


def _addr(arr: array, ptype):
    """A ctypes pointer to ``arr``'s storage (the caller keeps ``arr``
    alive, and never resizes it, across the kernel call)."""
    return ctypes.cast(arr.buffer_info()[0], ptype)


def _state_image(core) -> array:
    """The core's variable-length state in the kernel's image layout (see
    ``kptrs`` in ``_spankernel.c``): per-queue SRAM and arrival-window
    counts, then the tail, DRAM, SRAM, request and arrival contents queue
    by queue, the critical heap, and the pending blocks."""
    nq = core.num_queues
    arr_windows = [core.arr_slots[q][core.delivered[q] - core.arr_base[q]:]
                   for q in range(nq)]
    req_windows = [core.req_slots[q][core.req_head[q]:] for q in range(nq)]
    image = [len(heap) for heap in core.sram_heap]
    image += [len(window) for window in arr_windows]
    for part in (core.tail_fifo, core.dram_fifo, core.sram_heap,
                 req_windows, arr_windows):
        image += chain.from_iterable(part)
    image += [(entered << 16) | queue for entered, queue in core.crit_heap]
    for finish, queue, seqs in core.pending:
        image += (finish, queue, len(seqs))
        image += seqs
    return array("q", image)


def _apply_result(core, cfg: KCfg, values) -> None:
    """Read the kernel's result (the state image's layout, then delay
    pairs, misses and drained slots) and its scalars in ``cfg`` into the
    python core, whose per-queue scalars already hold the span's final
    values."""
    nq = core.num_queues
    it = iter(values)
    sram_counts = list(islice(it, nq))
    arr_counts = list(islice(it, nq))
    for fifos, counts in ((core.tail_fifo, core.tail_occ),
                          (core.dram_fifo, core.dram_occ)):
        for fifo, count in zip(fifos, counts):
            if count or fifo:
                fifo.clear()
                fifo.extend(islice(it, count))
    for heap, count in zip(core.sram_heap, sram_counts):
        heap[:] = islice(it, count)        # valid heap, identical pops
    for pipeline, count in zip(core.req_slots, core.req_count):
        pipeline[:] = islice(it, count)
    core.req_head[:] = [0] * nq
    for store, count in zip(core.arr_slots, arr_counts):
        store[:] = islice(it, count)
    core.arr_base[:] = core.delivered
    core.crit_heap[:] = [(key >> 16, key & 0xFFFF)
                         for key in islice(it, cfg.crit_len)]
    pending = deque()
    for _ in range(cfg.pending_len):
        finish, queue, count = islice(it, 3)
        pending.append((finish, queue, list(islice(it, count))))
    core.pending = pending
    hist = core.hist
    pairs = list(islice(it, 2 * cfg.n_delay_pairs))
    for delay, count in zip(pairs[::2], pairs[1::2]):
        hist[delay] = hist.get(delay, 0) + count
    misses = list(islice(it, 2 * cfg.n_head_miss))
    core.head_misses.extend(MissRecord(queue=queue, slot=slot)
                            for queue, slot in zip(misses[::2], misses[1::2]))
    core.tail_misses.extend([None] * cfg.n_tail_miss)
    core.drained.extend(it)
    for name in ("tail_total", "dram_total", "sram_total", "la_pos",
                 "negatives", "cells_in", "cells_out", "dram_reads",
                 "dram_writes", "dropped", "max_tail", "max_head"):
        setattr(core, name, getattr(cfg, name))


def run_span_kernel(core, aplan, num_slots: int, main: bool = True,
                    bern=None, drain_slots: int = 0) -> bool:
    """Run one span on the compiled kernel; ``True`` on success.

    ``aplan`` is the arrival plan — an ``Optional[int]`` list at least
    ``num_slots`` long — or ``None`` for a span without arrivals;
    ``bern = (rng, tint, cum_weights, total)`` makes the kernel draw the
    Bernoulli arrival plan natively instead.  On any failure (kernel
    unavailable, strict-mode abort inside the span, allocation failure, a
    plan entry naming no queue) the python core is left untouched and the
    caller falls back to a python loop, which reproduces the exact outcome
    — including the exception and the post-raise state.

    ``drain_slots`` must be 0: a drain window is a span of its own
    (``main=False``).  The parameter stays only because the benchmark's
    traced run (``perfbench/layers.py``) reads it from every call.

    With metrics on, every kernel call records two timers:
    ``engine.array.kernel_native_s`` (the C call) and
    ``engine.array.kernel_handoff_s`` (the rest of the call: marshal,
    read-back and apply).
    """
    if drain_slots:
        raise ConfigurationError(
            "the span kernel runs a drain window as its own span "
            "(main=False), not appended to a main one")
    fn = load_kernel()
    if fn is None:
        return False
    obs = get_metrics()
    started = perf_counter()
    nq = core.num_queues

    # -- RNG states -----------------------------------------------------
    rng = core.sim.arbiter._rng if main else None
    if main:
        arb_state = rng.getstate()
        arb_key = array("I", arb_state[1][:624])
        arb_meta = array("q", (arb_state[1][624], 0))
        arb_tint = gate_threshold(core.sim.arbiter.load)
    else:
        arb_state = None
        arb_key = array("I", bytes(4 * 624))
        arb_meta = array("q", (0, 0))
        arb_tint = 0
    # Every array below stays bound to a local, so alive across the C call.
    ptr = KPtrs(arb_key=_addr(arb_key, _U32P),
                arb_meta=_addr(arb_meta, _I64P))

    if bern is not None:
        bern_rng, bern_tint, cum_weights, total = bern
        bern_state = bern_rng.getstate()
        bern_key = array("I", bern_state[1][:624])
        bern_meta = array("q", (bern_state[1][624], 0))
        weights = array("d", cum_weights)
        plan_mode = 1
        ptr.bern_key = _addr(bern_key, _U32P)
        ptr.bern_meta = _addr(bern_meta, _I64P)
        ptr.cum_weights = _addr(weights, _F64P)
    else:
        bern_rng = bern_state = None
        bern_tint, total = 0, 0.0
        plan_mode = 0 if (main and aplan is not None) else 2
        if plan_mode == 0:
            if len(aplan) < num_slots:
                return False  # the kernel reads num_slots entries
            # The kernel's plan encoding: int32 queue ids, -1 = no arrival.
            try:
                plan = array("i", [-1 if a is None else a for a in aplan])
            except (OverflowError, TypeError):
                return False  # no int32 queue id: python raises for it
            if plan.count(-1) != aplan.count(None):
                # An entry naming queue -1 would read as no arrival; the
                # python loop raises for it, as the reference does.
                return False
            ptr.plan = _addr(plan, _I32P)

    # -- fixed-shape per-queue state, updated in place ------------------
    queues = {name: array("q", getattr(core, name))
              for name in _QUEUE_FIELDS}
    crit_cache = array("q", [_CRIT_INF if v == math.inf else v
                             for v in core.crit_cache])
    eligible = array("q", core.eligible)
    eligible.frombytes(bytes(8 * (nq - len(eligible))))  # capacity nq
    la_ring = array("q", [-1 if v is None else v for v in core.lookahead])
    state = _state_image(core)
    for name, values in queues.items():
        setattr(ptr, name, _addr(values, _I64P))
    ptr.crit_cache = _addr(crit_cache, _I64P)
    ptr.eligible = _addr(eligible, _I64P)
    ptr.la_ring = _addr(la_ring, _I64P)
    ptr.state = _addr(state, _I64P)

    cfg = KCfg(
        num_queues=nq, granularity=core.granularity,
        strict=1 if core.strict else 0, tail_cap=core.tail_cap,
        dram_cap=-1 if core.dram_cap is None else core.dram_cap,
        sram_cap=-1 if core.sram_cap is None else core.sram_cap,
        la_len=core.la_len, num_slots=num_slots, start_slot=core.slot,
        is_main=1 if main else 0, arb_tint=arb_tint, plan_mode=plan_mode,
        bern_tint=bern_tint, bern_total=total,
        ecqf_fallback=1 if core.ecqf_fallback else 0,
        state_len=len(state), tail_total=core.tail_total,
        dram_total=core.dram_total, sram_total=core.sram_total,
        la_pos=core.la_pos, negatives=core.negatives,
        cells_in=core.cells_in, cells_out=core.cells_out,
        dram_reads=core.dram_reads, dram_writes=core.dram_writes,
        dropped=core.dropped, max_tail=core.max_tail,
        max_head=core.max_head, crit_len=len(core.crit_heap),
        pending_len=len(core.pending), eligible_len=len(core.eligible))

    native_started = perf_counter()
    rc = fn(ctypes.byref(cfg), ctypes.byref(ptr))
    native_s = perf_counter() - native_started
    if rc == _ERR_OK:
        # -- apply the kernel's state to the python core -----------------
        try:
            result = (ctypes.c_int64 * cfg.result_len).from_address(
                ctypes.addressof(ptr.result.contents))
            values = memoryview(result).cast("B").cast("q").tolist()
        finally:
            _release(ptr.result)
        for name, after in queues.items():
            getattr(core, name)[:] = after.tolist()
        core.crit_cache[:] = [math.inf if v == _CRIT_INF else v
                              for v in crit_cache]
        core.eligible[:] = eligible.tolist()[:cfg.eligible_len]
        core.lookahead[:] = [None if v < 0 else v for v in la_ring]
        _apply_result(core, cfg, values)
        core.slot += num_slots
        if main:
            core.main_slots += num_slots
            core.arrivals_count += cfg.arrivals_seen
            core.departures += cfg.n_delays
            core.idle_requests += num_slots - cfg.grants
            rng.setstate((3, tuple(arb_key) + (arb_meta[0],),
                          arb_state[2]))
        if bern_rng is not None:
            bern_rng.setstate((3, tuple(bern_key) + (bern_meta[0],),
                               bern_state[2]))
    # Otherwise nothing was written back: the arrays above are copies, the
    # python core is untouched — the caller's python loop replays the span
    # and raises (or recovers) with the exact reference state.
    if obs is not None:
        if rc == _ERR_OK:
            obs.inc("engine.array.kernel_spans")
            obs.inc("engine.array.kernel_slots", num_slots)
            if bern is not None:
                obs.inc("engine.array.kernel_plan_slots", num_slots)
        else:
            obs.inc("engine.array.kernel_aborts")
            obs.inc("engine.array.kernel_aborts."
                    + _ABORT_CODES.get(rc, "unknown"))
            obs.inc("engine.array.fallback.abort", num_slots)
        obs.observe("engine.array.kernel_native_s", native_s)
        obs.observe("engine.array.kernel_handoff_s",
                    perf_counter() - started - native_s)
    return rc == _ERR_OK


class FabricWindow(NamedTuple):
    """One crossbar window as the fabric kernel ran it."""

    #: Slots the window ran (a flush window stops once the VOQs drain).
    slots: int
    #: Per egress, per slot: the ingress whose cell entered, or ``None``.
    traces: List[List[Optional[int]]]
    #: Cells moved into each egress during the window.
    per_egress: array
    #: Per-ingress backlog after the window.
    backlog: array
    #: ``(wait, count)`` pairs, flattened, in ascending wait order.
    waits: array
    #: The VOQ image after the window (layout above ``fptrs``).
    voqs: array
    offered: int
    transferred: int
    peak: int


def run_fabric_window(num_ports: int, policy: str, start_slot: int,
                      num_slots: int, plans, voqs: array, peak: int,
                      pointers=None, rng=None) -> Union[FabricWindow, str]:
    """Run one crossbar window on the compiled kernel.

    ``plans`` holds each ingress's destinations (``Optional[int]`` lists)
    for an arrival window of ``num_slots`` slots; ``plans=None`` makes it a
    flush window, which runs until the VOQs drain, at most ``num_slots``
    slots.  ``voqs`` is the VOQ image (see ``fptrs`` in ``_spankernel.c``)
    and ``peak`` the peak ingress backlog so far.  ``policy`` names one of
    :data:`FABRIC_POLICIES`; ``pointers`` are iSLIP's ``(grant, accept)``
    lists and ``rng`` the random policy's ``random.Random``, both advanced
    in place when the window succeeds.

    Returns a :class:`FabricWindow`, or the reason the window must run on
    the python loop instead, with nothing written back: ``unavailable``
    (no kernel), ``plan`` (an entry that is not ``None`` or an egress port:
    the python loop raises for it) or ``abort`` (any other kernel error).
    """
    fn = load_fabric_kernel()
    if fn is None:
        return "unavailable"
    n = num_ports
    # Every array below stays bound to a local, so alive across the C call.
    ptr = FPtrs(state=_addr(voqs, _I64P))
    if plans is not None:
        if len(plans) != n:
            return "plan"  # the kernel reads num_ports plans
        plan = array("i")
        idle = 0
        try:
            for entries in plans:
                if len(entries) < num_slots:
                    return "plan"  # the python loop runs off its end
                entries = entries[:num_slots]
                idle += entries.count(None)
                plan.extend(array("i", [-1 if destination is None
                                        else destination
                                        for destination in entries]))
        except (OverflowError, TypeError):
            return "plan"  # no int32 port id: python raises for it
        if plan.count(-1) != idle:
            # An entry naming port -1 would read as no arrival; the python
            # loop raises for it.
            return "plan"
        ptr.plan = _addr(plan, _I32P)
    if pointers is not None:
        grant = array("q", pointers[0])
        accept = array("q", pointers[1])
        if len(grant) != n or len(accept) != n:
            return "abort"  # the kernel reads num_ports of each
        ptr.grant = _addr(grant, _I64P)
        ptr.accept = _addr(accept, _I64P)
    if rng is not None:
        rng_state = rng.getstate()
        rng_key = array("I", rng_state[1][:624])
        rng_meta = array("q", (rng_state[1][624], 0))
        ptr.rng_key = _addr(rng_key, _U32P)
        ptr.rng_meta = _addr(rng_meta, _I64P)
    cfg = FCfg(num_ports=n, policy=FABRIC_POLICIES.index(policy),
               num_slots=num_slots, start_slot=start_slot,
               flush=1 if plans is None else 0, state_len=len(voqs),
               peak=peak)
    rc = fn(ctypes.byref(cfg), ctypes.byref(ptr))
    plan = None  # read; freed before the read-back grows the traces
    if rc != _ERR_OK:
        return "plan" if rc == _ERR_PLAN else "abort"
    slots = cfg.slots_run
    try:
        values = memoryview((ctypes.c_int64 * cfg.result_len).from_address(
            ctypes.addressof(ptr.result.contents))).cast("B").cast("q")
        traces = [[None if ingress < 0 else ingress
                   for ingress in values[e * slots:(e + 1) * slots]]
                  for e in range(n)]
        tail = array("q", values[n * slots:])
    finally:
        _release(ptr.result)
    if pointers is not None:
        pointers[0][:] = grant.tolist()
        pointers[1][:] = accept.tolist()
    if rng is not None:
        rng.setstate((3, tuple(rng_key) + (rng_meta[0],), rng_state[2]))
    waits_end = 2 * n + 2 * cfg.n_wait_pairs
    return FabricWindow(
        slots=slots, traces=traces, per_egress=tail[:n],
        backlog=tail[n:2 * n], waits=tail[2 * n:waits_end],
        voqs=tail[waits_end:], offered=cfg.offered,
        transferred=cfg.transferred, peak=cfg.peak)
