"""Compiled span kernel for the array engine's RADS and CFDS cores and the
switch's fabric stage.

The kernel has three entries.  The RADS and CFDS cores of
``engine="array"`` (:mod:`repro.sim.array_engine`) hand every span they can
to ``rads_run_span`` (:func:`run_span_kernel`) and ``cfds_run_span``
(:func:`run_cfds_span_kernel`), and the switch's
:class:`~repro.switch.model.FabricStream` every window of a stock fabric
policy to ``fabric_run_window`` (:func:`run_fabric_window`); the python
loops' ceiling is CPython's bytecode dispatch.  The bundled C99 source ``_spankernel.c`` is
compiled on first use with the system compiler (``cc -O2 -march=native
-shared -fPIC``, falling back to plain ``-O2``), cached under the user's
private cache directory (``$XDG_CACHE_HOME`` or ``~/.cache``, created
``0o700`` and ownership-verified before every load) keyed by a hash of the
source and the interpreter/platform tags, and loaded through :mod:`ctypes`
— no ``Python.h``, no build backend, no wheels, no numpy.

The kernel executes whole spans natively: it resumes the arbiter's (and,
for a deferred Bernoulli plan, the arrival process's) Mersenne Twister from
the ``random.Random`` state and runs the core's exact slot loop.  The two
span entries share the SRAM/MMA half of that loop (arrival with
cut-through, the threshold tail MMA, the lookahead, ECQF, service), and
so the arbiters and plans: each runs no arbiter, ``RandomArbiter`` or
``LongestQueueArbiter`` (:func:`span_arbiter`), on an explicit plan, a
Bernoulli plan it draws itself, or none, marshalled once for both by
``_Handoff``.  Python hands it only fixed-shape :mod:`array` buffers —
per-queue scalars, the eligible list, the lookahead ring, RNG keys, the
arrival plan — plus one image of the core's variable-length state
(:func:`_state_image`).  Every
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

The CFDS entry follows the same rules.  Python also hands it the latency
ring, the per-bank ORR lock counts and busy-until slots, the group
occupancy, in-use flags and write counts (all updated in place), and
appends the Requests Register, the transfers in flight, the ORR ring, the
renaming registers, free names and block locations to the shared state
image (:func:`_state_image`); the result comes back in the same layout and
:func:`_apply_result` reads the part both cores share.  Every raise site
of the python CFDS loop aborts the span with nothing written back, and
the python loop replays it.

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
from repro.traffic.arbiters import LongestQueueArbiter, RandomArbiter
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
_NO_SLOT = -(1 << 63)      # INT64_MIN, the C marker for "no issue yet"

#: The span entries' arbiter codes (``ARB_*`` in ``_spankernel.c``).
_ARB_NONE, _ARB_RANDOM, _ARB_LONGEST = 0, 1, 2

#: The span entries' arrival-plan modes (``PLAN_*`` in ``_spankernel.c``).
_PLAN_EXPLICIT, _PLAN_BERNOULLI, _PLAN_NONE = 0, 1, 2

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
#: The kernel's ``cfds_run_span``.
_cfds = None


class KCfg(ctypes.Structure):
    """Mirror of ``kcfg`` in ``_spankernel.c`` (field order is the ABI)."""

    _fields_ = [(n, ctypes.c_int64) for n in (
        "num_queues", "granularity", "strict", "tail_cap",
        "dram_cap", "sram_cap", "la_len", "num_slots", "start_slot",
        "is_main", "arb_mode", "arb_tint", "plan_mode", "bern_tint")] + [
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


class CCfg(ctypes.Structure):
    """Mirror of ``ccfg`` in ``_spankernel.c`` (field order is the ABI)."""

    _fields_ = [("k", KCfg)] + [(n, ctypes.c_int64) for n in (
        "lat_len", "rr_cap", "issues", "ras", "bus_slots",
        "dram_strict", "num_banks", "num_groups", "banks_per_group",
        "num_physical", "renaming", "group_cap", "orr_len",
        "lat_pos", "orr_pos", "rr_peak", "conflicts", "last_issue",
        "flight_next", "max_delay")]


class CPtrs(ctypes.Structure):
    """Mirror of ``cptrs`` in ``_spankernel.c`` (field order is the ABI)."""

    _fields_ = [("k", KPtrs)] + [(name, _I64P) for name in (
        "lat_ring", "locks", "busy_until", "group_occ", "in_use",
        "write_count")]


class FCfg(ctypes.Structure):
    """Mirror of ``fcfg`` in ``_spankernel.c`` (field order is the ABI)."""

    _fields_ = [(n, ctypes.c_int64) for n in (
        "num_ports", "policy", "num_slots", "start_slot", "flush",
        "plan_mode", "state_len", "peak", "slots_run", "offered",
        "transferred", "n_wait_pairs", "result_len")]


class FPtrs(ctypes.Structure):
    """Mirror of ``fptrs`` in ``_spankernel.c`` (field order is the ABI)."""

    _fields_ = [("rng_key", _U32P), ("rng_meta", _I64P),
                ("grant", _I64P), ("accept", _I64P), ("plan", _I32P),
                ("bern_key", _U32P), ("bern_meta", _I64P),
                ("bern_tint", _I64P), ("bern_total", _F64P),
                ("cum_weights", _F64P),
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
    global _kernel, _kernel_tried, _release, _fabric, _cfds
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
                    cfds = lib.cfds_run_span
                    cfds.restype = ctypes.c_int64
                    cfds.argtypes = [ctypes.POINTER(CCfg),
                                     ctypes.POINTER(CPtrs)]
        except (OSError, AttributeError):
            fn = None
        if fn is not None:
            _release = release
            _fabric = fabric
            _cfds = cfds
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


def _state_image(core) -> list:
    """The variable-length state both cores have, in the kernel's image
    layout (see ``kptrs`` in ``_spankernel.c``): per-queue SRAM and
    arrival-window counts, then the tail, DRAM, SRAM, request and arrival
    contents queue by queue, and the critical heap.  Each entry appends its
    core's own state and hands the kernel the whole as one ``array``
    (:func:`_rads_image`, :func:`_cfds_image`)."""
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
    return image


def _apply_result(core, cfg: KCfg, it) -> None:
    """Read the kernel's result for the state both cores have (the head of
    ``_state_image``'s layout) from the iterator ``it`` into the python
    core, whose per-queue scalars already hold the span's final values."""
    nq = core.num_queues
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


def _rads_image(core) -> array:
    """The RADS entry's state image: :func:`_state_image`, then the pending
    blocks (finish slot, queue, cell count, cells)."""
    image = _state_image(core)
    for finish, queue, seqs in core.pending:
        image += (finish, queue, len(seqs))
        image += seqs
    return array("q", image)


def _apply_outcome(core, cfg: KCfg, it) -> None:
    """Read the result's tail (the main window's delay pairs, head misses
    and drained slots) and the shared machine scalars in ``cfg``."""
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


def _rng_image(rng):
    """``rng``'s state and the kernel's copy of it: the 624-word key and
    ``[pos, consumed]``, which the kernel advances in place."""
    state = rng.getstate()
    return state, array("I", state[1][:624]), array("q", (state[1][624], 0))


def _plan_array(aplan, num_slots: int) -> Optional[array]:
    """The kernel's ``int32`` encoding of an explicit plan (``-1`` = no
    arrival), or ``None`` when the kernel must leave the plan to python.

    An ``int32`` row (a switch port's egress row) is that encoding
    already and goes as it is.  In a list, a negative entry is encoded one
    lower, so an entry naming queue -1 does not read as no arrival: the
    kernel aborts on it, as on any entry naming no queue, and the python
    loop raises the reference's error."""
    if len(aplan) < num_slots:
        return None  # the kernel reads num_slots entries
    if isinstance(aplan, array) and aplan.typecode == "i":
        return aplan
    try:
        return array("i", [-1 if a is None else a if a >= 0 else a - 1
                           for a in aplan])
    except (OverflowError, TypeError):
        return None  # no int32 queue id: python raises for it


def span_arbiter(arbiter, num_queues: int) -> Optional[int]:
    """The span entries' code for ``arbiter`` (``ARB_*`` in
    ``_spankernel.c``), or ``None`` when the kernel cannot run it: no
    arbiter, a ``RandomArbiter``, or a ``LongestQueueArbiter`` over exactly
    the buffer's ``num_queues`` (exact types: a subclass may override
    ``next_request``)."""
    if arbiter is None:
        return _ARB_NONE
    if type(arbiter) is RandomArbiter:
        return _ARB_RANDOM
    if (type(arbiter) is LongestQueueArbiter
            and arbiter.num_queues == num_queues):
        return _ARB_LONGEST
    return None


class _Handoff:
    """What both span entries take, bound into their ``kptrs``: the
    arbiter (its code, and ``RandomArbiter``'s MT state), the arrival plan
    (its mode, and the explicit ``int32`` plan or a deferred Bernoulli
    plan's MT state and cumulative weights), the fixed-shape per-queue
    arrays and the state image.  The arrays stay alive (and are never
    resized) across the C call.  ``fields`` is ``None`` when the kernel
    cannot run the span's arbiter or plan."""

    def __init__(self, core, ptr: KPtrs, aplan, num_slots: int, main: bool,
                 bern, image) -> None:
        self.core = core
        self.num_slots = num_slots
        self.main = main
        self.rngs = []
        self.fields = None
        arbiter = core.sim.arbiter if main else None
        arb_mode = span_arbiter(arbiter, core.num_queues)
        if arb_mode is None:
            return
        fields = dict(arb_mode=arb_mode, plan_mode=_PLAN_NONE)
        if arb_mode == _ARB_RANDOM:
            ptr.arb_key, ptr.arb_meta = self._rng(arbiter._rng)
            fields["arb_tint"] = gate_threshold(arbiter.load)
        if bern is not None:
            rng, tint, cum_weights, total = bern
            ptr.bern_key, ptr.bern_meta = self._rng(rng)
            self.weights = array("d", cum_weights)
            ptr.cum_weights = _addr(self.weights, _F64P)
            fields.update(plan_mode=_PLAN_BERNOULLI, bern_tint=tint,
                          bern_total=total)
        elif main and aplan is not None:
            self.plan = _plan_array(aplan, num_slots)
            if self.plan is None:
                return
            ptr.plan = _addr(self.plan, _I32P)
            fields["plan_mode"] = _PLAN_EXPLICIT
        self.fields = fields

        nq = core.num_queues
        self.state = image(core)
        self.queues = {name: array("q", getattr(core, name))
                       for name in _QUEUE_FIELDS}
        self.crit_cache = array("q", [_CRIT_INF if v == math.inf else v
                                      for v in core.crit_cache])
        self.eligible = array("q", core.eligible)
        self.eligible.frombytes(bytes(8 * (nq - len(self.eligible))))
        self.la_ring = array("q", [-1 if v is None else v
                                   for v in core.lookahead])
        for name, values in self.queues.items():
            setattr(ptr, name, _addr(values, _I64P))
        ptr.crit_cache = _addr(self.crit_cache, _I64P)
        ptr.eligible = _addr(self.eligible, _I64P)
        ptr.la_ring = _addr(self.la_ring, _I64P)
        ptr.state = _addr(self.state, _I64P)

    def _rng(self, rng):
        """Pointers to ``rng``'s key and ``[pos, consumed]`` for the
        kernel, whose advanced state :meth:`apply` hands back."""
        state, key, meta = _rng_image(rng)
        self.rngs.append((rng, state, key, meta))
        return _addr(key, _U32P), _addr(meta, _I64P)

    def cfg(self, **fields) -> KCfg:
        core = self.core
        return KCfg(
            num_queues=core.num_queues, granularity=core.granularity,
            strict=1 if core.strict else 0, tail_cap=core.tail_cap,
            dram_cap=-1 if core.dram_cap is None else core.dram_cap,
            sram_cap=-1 if core.sram_cap is None else core.sram_cap,
            la_len=core.la_len, num_slots=self.num_slots,
            start_slot=core.slot, is_main=1 if self.main else 0,
            ecqf_fallback=1 if core.ecqf_fallback else 0,
            state_len=len(self.state), tail_total=core.tail_total,
            dram_total=core.dram_total, sram_total=core.sram_total,
            la_pos=core.la_pos, negatives=core.negatives,
            cells_in=core.cells_in, cells_out=core.cells_out,
            dram_reads=core.dram_reads, dram_writes=core.dram_writes,
            dropped=core.dropped, max_tail=core.max_tail,
            max_head=core.max_head, crit_len=len(core.crit_heap),
            eligible_len=len(core.eligible), **self.fields, **fields)

    def apply(self, cfg: KCfg, it) -> None:
        """Write the updated arrays, the span's counts, the generators'
        states and the state both cores have (the head of
        :func:`_state_image`'s layout, read from the iterator ``it``
        over the result) back."""
        core = self.core
        num_slots = self.num_slots
        for name, after in self.queues.items():
            getattr(core, name)[:] = after.tolist()
        core.crit_cache[:] = [math.inf if v == _CRIT_INF else v
                              for v in self.crit_cache]
        core.eligible[:] = self.eligible.tolist()[:cfg.eligible_len]
        core.lookahead[:] = [None if v < 0 else v for v in self.la_ring]
        core.slot += num_slots
        if self.main:
            core.main_slots += num_slots
            core.arrivals_count += cfg.arrivals_seen
            core.departures += cfg.n_delays
            core.idle_requests += num_slots - cfg.grants
        for rng, state, key, meta in self.rngs:
            rng.setstate((3, tuple(key) + (meta[0],), state[2]))
        _apply_result(core, cfg, it)


def _read_result(ptr: KPtrs, cfg: KCfg) -> List[int]:
    """The kernel-owned result as a list, released once read."""
    try:
        result = (ctypes.c_int64 * cfg.result_len).from_address(
            ctypes.addressof(ptr.result.contents))
        return memoryview(result).cast("B").cast("q").tolist()
    finally:
        _release(ptr.result)


def _observe(obs, ok: bool, rc: int, num_slots: int, plan_slots: int,
             started: float, native_s: float) -> None:
    """Count one kernel call and time it (see :func:`run_span_kernel`)."""
    if ok:
        obs.inc("engine.array.kernel_spans")
        obs.inc("engine.array.kernel_slots", num_slots)
        if plan_slots:
            obs.inc("engine.array.kernel_plan_slots", plan_slots)
    else:
        obs.inc("engine.array.kernel_aborts")
        obs.inc("engine.array.kernel_aborts."
                + _ABORT_CODES.get(rc, "unknown"))
        obs.inc("engine.array.fallback.abort", num_slots)
    obs.observe("engine.array.kernel_native_s", native_s)
    obs.observe("engine.array.kernel_handoff_s",
                perf_counter() - started - native_s)


def run_span_kernel(core, aplan, num_slots: int, main: bool = True,
                    bern=None, drain_slots: int = 0) -> bool:
    """Run one span of the RADS core on the compiled kernel; ``True`` on
    success.

    ``aplan`` is the arrival plan — an ``Optional[int]`` list at least
    ``num_slots`` long — or ``None`` for a span without arrivals;
    ``bern = (rng, tint, cum_weights, total)`` makes the kernel draw the
    Bernoulli arrival plan natively instead.  The arbiter is one
    :func:`span_arbiter` accepts.  On any failure (kernel unavailable,
    strict-mode abort inside the span, allocation failure, a plan entry
    naming no queue) the python core is left untouched and the caller
    falls back to a python loop, which reproduces the exact outcome —
    including the exception and the post-raise state.

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
    ptr = KPtrs()
    handoff = _Handoff(core, ptr, aplan, num_slots, main, bern, _rads_image)
    if handoff.fields is None:
        return False
    cfg = handoff.cfg(pending_len=len(core.pending))

    native_started = perf_counter()
    rc = fn(ctypes.byref(cfg), ctypes.byref(ptr))
    native_s = perf_counter() - native_started
    if rc == _ERR_OK:
        it = iter(_read_result(ptr, cfg))
        handoff.apply(cfg, it)
        pending = deque()
        for _ in range(cfg.pending_len):
            finish, queue, count = islice(it, 3)
            pending.append((finish, queue, list(islice(it, count))))
        core.pending = pending
        _apply_outcome(core, cfg, it)
    # Otherwise nothing was written back: the arrays handed over are
    # copies, the python core is untouched — the caller's python loop
    # replays the span and raises (or recovers) with the exact reference
    # state.
    if obs is not None:
        _observe(obs, rc == _ERR_OK, rc, num_slots,
                 num_slots if bern is not None else 0, started, native_s)
    return rc == _ERR_OK


def _cfds_image(core) -> array:
    """The CFDS entry's state image: :func:`_state_image`, then the CFDS
    core's own variable-length state (the layout above ``cptrs`` in
    ``_spankernel.c``): the Requests Register, the transfers in flight, the
    ORR ring, the renaming registers and free names (with renaming) and the
    block locations."""
    image = _state_image(core)

    def entry(bank, issued, queue, seqs):
        if seqs is None:
            image.extend((bank, issued, -1, -1))
        else:
            image.extend((bank, issued, queue, len(seqs)))
            image.extend(seqs)

    image.append(len(core.rr))
    for rr_entry in core.rr:
        entry(*rr_entry)
    image.append(len(core.in_flight))
    for finish, rr_entry in core.in_flight:
        image.append(finish)
        entry(*rr_entry)
    for banks in core.orr:
        image.append(len(banks))
        image.extend(banks)
    if core.names is not None:
        for entries in core.names:
            image.append(len(entries))
            image.extend(chain.from_iterable(entries))
        for names in core.free_names:
            image.append(len(names))
            image.extend(names)
    for locations in core.block_locations:
        image.append(len(locations))
        image.extend(chain.from_iterable(locations))
    return array("q", image)


def _apply_cfds(core, ccfg: CCfg, it, fixed) -> None:
    """Read the CFDS part of the result (``_cfds_image``'s layout) and the
    CFDS arrays and scalars back into the core."""
    def entry():
        bank, issued, queue, count = islice(it, 4)
        return (bank, issued, queue,
                None if count < 0 else list(islice(it, count)))

    core.rr[:] = [entry() for _ in range(next(it))]
    core.in_flight[:] = [(next(it), entry()) for _ in range(next(it))]
    core.orr[:] = [tuple(islice(it, next(it))) for _ in core.orr]
    if core.names is not None:
        for entries in core.names:
            pairs = list(islice(it, 2 * next(it)))
            entries.clear()
            entries.extend([name, cells] for name, cells
                           in zip(pairs[::2], pairs[1::2]))
        for names in core.free_names:
            names[:] = islice(it, next(it))
    for locations in core.block_locations:
        pairs = list(islice(it, 2 * next(it)))
        locations.clear()
        locations.extend(zip(pairs[::2], pairs[1::2]))
    lat_ring, locks, busy_until, group_occ, in_use, write_count = fixed
    core.latency_reg[:] = [None if v < 0 else v for v in lat_ring]
    core.locks[:] = locks.tolist()
    core.busy_until[:] = busy_until.tolist()
    core.group_occ[:] = group_occ.tolist()   # the list the buffer reads
    if core.in_use is not None:
        core.in_use[:] = [v != 0 for v in in_use]
    core.write_count[:] = write_count.tolist()
    core.lat_pos = ccfg.lat_pos
    core.orr_pos = ccfg.orr_pos
    core.rr_peak = ccfg.rr_peak
    core.conflicts = ccfg.conflicts
    core.last_issue = None if ccfg.last_issue == _NO_SLOT else ccfg.last_issue
    core.flight_next = (math.inf if ccfg.flight_next == _CRIT_INF
                        else ccfg.flight_next)
    core.max_delay = ccfg.max_delay


def run_cfds_span_kernel(core, aplan, num_slots: int, main: bool = True,
                         bern=None) -> bool:
    """Run one span of the CFDS core on the kernel's ``cfds_run_span``;
    ``True`` on success.

    The CFDS counterpart of :func:`run_span_kernel`, under the same rules
    and with the same arbiters and plans: any failure leaves the core
    untouched for the caller's python loop, which raises exactly where the
    reference does; the same counters and timers are recorded.
    """
    fn = _cfds if load_kernel() is not None else None
    if fn is None:
        return False
    obs = get_metrics()
    started = perf_counter()
    # Every array below stays bound to a local, so alive across the C call.
    ptr = CPtrs()
    handoff = _Handoff(core, ptr.k, aplan, num_slots, main, bern,
                       _cfds_image)
    if handoff.fields is None:
        return False
    renaming = core.names is not None
    fixed = (array("q", [-1 if v is None else v for v in core.latency_reg]),
             array("q", core.locks), array("q", core.busy_until),
             array("q", core.group_occ),
             array("q", core.in_use if renaming else ()),
             array("q", core.write_count))
    for name, values in zip(("lat_ring", "locks", "busy_until", "group_occ",
                             "in_use", "write_count"), fixed):
        setattr(ptr, name, _addr(values, _I64P))
    cfg = CCfg(
        k=handoff.cfg(), lat_len=core.lat_len,
        rr_cap=-1 if core.rr_cap is None else core.rr_cap,
        issues=core.issues, ras=core.ras, bus_slots=core.bus_slots,
        dram_strict=1 if core.dram_strict else 0,
        num_banks=len(core.locks), num_groups=core.num_groups,
        banks_per_group=core.banks_per_group,
        num_physical=len(core.write_count), renaming=1 if renaming else 0,
        group_cap=-1 if core.group_cap is None else core.group_cap,
        orr_len=len(core.orr), lat_pos=core.lat_pos, orr_pos=core.orr_pos,
        rr_peak=core.rr_peak, conflicts=core.conflicts,
        last_issue=_NO_SLOT if core.last_issue is None else core.last_issue,
        flight_next=(_CRIT_INF if core.flight_next == math.inf
                     else core.flight_next),
        max_delay=core.max_delay)

    native_started = perf_counter()
    rc = fn(ctypes.byref(cfg), ctypes.byref(ptr))
    native_s = perf_counter() - native_started
    if rc == _ERR_OK:
        it = iter(_read_result(ptr.k, cfg.k))
        handoff.apply(cfg.k, it)
        _apply_cfds(core, cfg, it, fixed)
        _apply_outcome(core, cfg.k, it)
    if obs is not None:
        _observe(obs, rc == _ERR_OK, rc, num_slots,
                 num_slots if bern is not None else 0, started, native_s)
    return rc == _ERR_OK


class FabricWindow(NamedTuple):
    """One crossbar window as the fabric kernel ran it."""

    #: Slots the window ran (a flush window stops once the VOQs drain).
    slots: int
    #: Per egress, an ``int32`` row: per slot, the ingress whose cell
    #: entered, or ``-1``.
    traces: List[array]
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
                      pointers=None, rng=None,
                      bern=None) -> Union[FabricWindow, str]:
    """Run one crossbar window on the compiled kernel.

    ``plans`` holds each ingress's destinations (``Optional[int]`` lists)
    for an arrival window of ``num_slots`` slots; ``bern`` instead makes
    the kernel draw every ingress's Bernoulli plan, one ``(rng, tint,
    cum_weights, total)`` per ingress (each its own ``random.Random``,
    ``num_ports`` weights each), advanced in place when the window
    succeeds.  With neither it is a flush window, which runs until the
    VOQs drain, at most ``num_slots`` slots.  ``voqs`` is the VOQ image
    (see ``fptrs`` in ``_spankernel.c``) and ``peak`` the peak ingress
    backlog so far.  ``policy`` names one of :data:`FABRIC_POLICIES`;
    ``pointers`` are iSLIP's ``(grant, accept)`` lists and ``rng`` the
    random policy's ``random.Random``, both advanced in place when the
    window succeeds.

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
    plan_mode = _PLAN_EXPLICIT
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
    elif bern is not None:
        if len(bern) != n:
            return "abort"  # the kernel reads num_ports of each
        generators = [(gen, gen.getstate()) for gen, _tint, _cum, _total
                      in bern]
        bern_key = array("I")
        bern_meta = array("q")
        for _gen, state in generators:
            bern_key.extend(state[1][:624])
            bern_meta.extend((state[1][624], 0))
        tints = array("q", [tint for _gen, tint, _cum, _total in bern])
        totals = array("d", [total for _gen, _tint, _cum, total in bern])
        weights = array("d")
        for _gen, _tint, cum_weights, _total in bern:
            weights.extend(cum_weights)
        if len(weights) != n * n:
            return "abort"
        ptr.bern_key = _addr(bern_key, _U32P)
        ptr.bern_meta = _addr(bern_meta, _I64P)
        ptr.bern_tint = _addr(tints, _I64P)
        ptr.bern_total = _addr(totals, _F64P)
        ptr.cum_weights = _addr(weights, _F64P)
        plan_mode = _PLAN_BERNOULLI
    if pointers is not None:
        grant = array("q", pointers[0])
        accept = array("q", pointers[1])
        if len(grant) != n or len(accept) != n:
            return "abort"  # the kernel reads num_ports of each
        ptr.grant = _addr(grant, _I64P)
        ptr.accept = _addr(accept, _I64P)
    if rng is not None:
        rng_state, rng_key, rng_meta = _rng_image(rng)
        ptr.rng_key = _addr(rng_key, _U32P)
        ptr.rng_meta = _addr(rng_meta, _I64P)
    cfg = FCfg(num_ports=n, policy=FABRIC_POLICIES.index(policy),
               num_slots=num_slots, start_slot=start_slot,
               flush=1 if plans is None and bern is None else 0,
               plan_mode=plan_mode, state_len=len(voqs), peak=peak)
    rc = fn(ctypes.byref(cfg), ctypes.byref(ptr))
    plan = weights = None  # read; freed before the read-back
    if rc != _ERR_OK:
        return "plan" if rc == _ERR_PLAN else "abort"
    slots = cfg.slots_run
    row_bytes = 4 * slots
    # The rows are int32, padded to a whole int64 word.
    tail_at = 8 * ((n * slots + 1) // 2)
    try:
        values = memoryview((ctypes.c_int64 * cfg.result_len).from_address(
            ctypes.addressof(ptr.result.contents))).cast("B")
        traces = []
        for egress in range(n):
            row = array("i")
            row.frombytes(values[egress * row_bytes:(egress + 1) * row_bytes])
            traces.append(row)
        tail = array("q")
        tail.frombytes(values[tail_at:])
    finally:
        _release(ptr.result)
    if pointers is not None:
        pointers[0][:] = grant.tolist()
        pointers[1][:] = accept.tolist()
    if rng is not None:
        rng.setstate((3, tuple(rng_key) + (rng_meta[0],), rng_state[2]))
    if bern is not None:
        for i, (gen, state) in enumerate(generators):
            gen.setstate((3, tuple(bern_key[i * 624:(i + 1) * 624])
                          + (bern_meta[2 * i],), state[2]))
    waits_end = 2 * n + 2 * cfg.n_wait_pairs
    return FabricWindow(
        slots=slots, traces=traces, per_egress=tail[:n],
        backlog=tail[n:2 * n], waits=tail[2 * n:waits_end],
        voqs=tail[waits_end:], offered=cfg.offered,
        transferred=cfg.transferred, peak=cfg.peak)
