"""Compiled span kernel for the array engine's RADS core.

The RADS core of ``engine="array"`` (:mod:`repro.sim.array_engine`) hands
every span it can to this kernel; its own scalar loop's ceiling is
CPython's bytecode dispatch.  The bundled C99 source ``_spankernel.c`` is
compiled on first use with the system compiler (``cc -O2 -march=native
-shared -fPIC``, falling back to plain ``-O2``), cached under the user's
private cache directory (``$XDG_CACHE_HOME`` or ``~/.cache``, created
``0o700`` and ownership-verified before every load) keyed by a hash of the
source and the interpreter/platform tags, and loaded through :mod:`ctypes`
— no ``Python.h``, no build backend, no wheels.  numpy only allocates the
marshal buffers.

The kernel executes whole spans natively: it resumes the arbiter's (and,
for a deferred Bernoulli plan, the arrival process's) Mersenne Twister from
the ``random.Random`` state, runs the exact RADS slot loop on flat copies
of the core's state, and hands back the mutated state plus the final RNG
words, which are applied to the python core only on success.  It takes
any ``num_queues`` up to :data:`MAX_KERNEL_QUEUES`: its arbiter draws read
whole 32-bit words and its arrival plan is ``int32`` (``-1`` = no
arrival).  Failure at any stage — no compiler, compile error, load error,
strict-mode aborts inside the span, or the ``REPRO_SPAN_KERNEL=0`` kill
switch — falls back to the core's scalar loop on the untouched state, so
the kernel is a pure accelerator: every result it produces is
bit-identical to the reference loop (asserted by
``tests/sim/test_numpy_engine.py``, which runs the suite with the kernel
and with it switched off).

Sanitizer-hardened builds
-------------------------
Setting ``REPRO_SPAN_KERNEL_SANITIZE=1`` switches the build to
``-g -O1 -fsanitize=address,undefined -fno-sanitize-recover=all`` so any
out-of-bounds write or undefined behaviour in the C source aborts the
process instead of silently corrupting state (the bug class PR 9's
bounds-checked writebacks defend against).  The sanitized ``.so`` is cached
under its own tag, never mixed with production builds.  Loading it into a
stock CPython requires the sanitizer runtimes to be preloaded and real
``malloc`` in use::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) \\
                $(gcc -print-file-name=libubsan.so)" \\
    PYTHONMALLOC=malloc ASAN_OPTIONS=detect_leaks=0 \\
    REPRO_SPAN_KERNEL_SANITIZE=1 python -m pytest tests/sim/

(``PYTHONMALLOC=malloc`` matters: pymalloc arenas carry no ASan redzones,
so overflows on Python-allocated buffers would go unseen.)  The
``benchmarks/kernel_sanitize_check.py`` harness sets all of this up and
replays the PR 9 backlog-migration overflow stressor; CI runs it in the
``kernel-sanitize`` job.  Without the preload, ``CDLL`` fails and the
core falls back to its scalar loop as usual.
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
from collections import deque
from itertools import chain
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.obs.metrics import get_metrics
from repro.sim.ring import IntRing
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

_SOURCE = Path(__file__).with_name("_spankernel.c")

_ERR_OK = 0

#: The kernel's error codes (``ERR_*`` in ``_spankernel.c``), as named in
#: the ``engine.array.kernel_aborts.<code>`` counters.
_ABORT_CODES = {1: "oom", 2: "strict", 3: "cap", 4: "arg"}

_CRIT_INF = (1 << 63) - 1  # INT64_MAX, the C marker for "no critical entry"

#: 2**53 — ``Random.random()`` returns ``comb / 2**53``.
_F53 = 9007199254740992

_lock = threading.Lock()
_kernel = None
_kernel_tried = False


class KCfg(ctypes.Structure):
    """Mirror of ``kcfg`` in ``_spankernel.c`` (field order is the ABI)."""

    _fields_ = [(n, ctypes.c_int64) for n in (
        "num_queues", "granularity", "strict", "tail_cap",
        "dram_cap", "sram_cap", "la_len", "num_slots", "start_slot",
        "is_main", "arb_tint", "plan_mode", "bern_tint")] + [
        ("bern_total", ctypes.c_double)] + [
        (n, ctypes.c_int64) for n in (
            "tail_total", "dram_total", "sram_total", "la_pos", "negatives",
            "cells_in", "cells_out", "dram_reads", "dram_writes", "dropped",
            "max_tail", "max_head", "crit_len", "pending_len",
            "eligible_len", "ecqf_fallback",
            "n_delays", "n_head_miss", "n_tail_miss", "n_drained",
            "arrivals_seen", "grants", "pend_head_out", "pend_flat_off_out",
            "drain_slots",
            "tail_ocap", "dram_ocap", "sram_ocap", "req_ocap", "arr_ocap",
            "pend_cap", "pend_flat_cap", "crit_cap")]


_U32P = ctypes.POINTER(ctypes.c_uint32)
_I32P = ctypes.POINTER(ctypes.c_int32)
_I64P = ctypes.POINTER(ctypes.c_int64)
_F64P = ctypes.POINTER(ctypes.c_double)


class KPtrs(ctypes.Structure):
    """Mirror of ``kptrs`` in ``_spankernel.c`` (field order is the ABI)."""

    _fields_ = [
        ("arb_key", _U32P), ("arb_meta", _I64P),
        ("bern_key", _U32P), ("bern_meta", _I64P),
        ("cum_weights", _F64P), ("plan", _I32P),
        ("backlog", _I64P), ("next_seqno", _I64P), ("delivered", _I64P),
        ("counters", _I64P), ("req_count", _I64P),
        ("tail_occ", _I64P), ("dram_occ", _I64P), ("crit_cache", _I64P),
        ("eligible", _I64P),
        ("sram_icnt", _I64P), ("arr_icnt", _I64P),
        ("tail_iflat", _I64P), ("dram_iflat", _I64P), ("sram_iflat", _I64P),
        ("req_iflat", _I64P), ("arr_iflat", _I64P),
        ("sram_ocnt", _I64P), ("arr_ocnt", _I64P),
        ("tail_oflat", _I64P), ("dram_oflat", _I64P), ("sram_oflat", _I64P),
        ("req_oflat", _I64P), ("arr_oflat", _I64P),
        ("la_ring", _I64P), ("crit_heap", _I64P),
        ("pending_fin", _I64P), ("pending_q", _I64P),
        ("pending_cnt", _I64P), ("pending_flat", _I64P),
        ("delays", _I64P),
        ("head_miss_q", _I64P), ("head_miss_slot", _I64P),
        ("drained", _I64P),
    ]


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
    global _kernel, _kernel_tried
    if _kernel_tried:
        return _kernel
    with _lock:
        if _kernel_tried:
            return _kernel
        fn = None
        try:
            if kernel_enabled() and _SOURCE.is_file():
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
        except OSError:
            fn = None
        _kernel = fn
        _kernel_tried = True
        obs = get_metrics()
        if obs is not None:
            obs.inc("engine.array.kernel_loaded" if fn is not None
                    else "engine.array.kernel_unavailable")
        return _kernel


def _ptr_i64(arr):
    return arr.ctypes.data_as(_I64P)


def run_span_kernel(core, aplan, num_slots: int, main: bool = True,
                    bern=None, drain_slots: int = 0) -> bool:
    """Run one span on the compiled kernel; ``True`` on success.

    ``aplan`` is the arrival plan — an ``Optional[int]`` list at least
    ``num_slots`` long — or ``None`` for a span without arrivals;
    ``bern = (rng, tint, cum_weights, total)`` makes the kernel draw the
    Bernoulli arrival plan natively instead.  ``drain_slots`` appends that
    many drain-mode slots after the main window in the *same* call (the
    monolithic fused path: one marshal instead of two).  On any failure
    (kernel unavailable, strict-mode abort inside the span, allocation
    failure, a plan entry naming no queue) the python core is left
    untouched and the caller falls back to a python loop, which
    reproduces the exact outcome — including the exception and the
    post-raise state.
    """
    fn = load_kernel()
    if fn is None:
        return False
    nq = core.num_queues
    g = core.granularity
    i64 = np.int64

    cfg = KCfg()
    cfg.num_queues = nq
    cfg.granularity = g
    cfg.strict = 1 if core.strict else 0
    cfg.tail_cap = core.tail_cap
    cfg.dram_cap = -1 if core.dram_cap is None else core.dram_cap
    cfg.sram_cap = -1 if core.sram_cap is None else core.sram_cap
    cfg.la_len = core.la_len
    cfg.num_slots = num_slots
    cfg.start_slot = core.slot
    cfg.is_main = 1 if main else 0
    cfg.ecqf_fallback = 1 if core.ecqf_fallback else 0
    cfg.drain_slots = drain_slots
    # Out buffers are sized for the whole call, drain window included.
    total_slots = num_slots + drain_slots

    ptr = KPtrs()
    keep = []  # keeps every backing array alive across the C call

    def i64arr(values, size=None):
        if size is None:
            arr = np.array(values, dtype=i64)
        else:
            # Only the live prefix is written: the kernel never reads past
            # it, so the worst-case slack stays untouched, unpaged memory.
            arr = np.empty(size, dtype=i64)
            arr[:len(values)] = values
        keep.append(arr)
        return arr

    def out_i64(size):
        arr = np.empty(max(size, 1), dtype=i64)
        keep.append(arr)
        return arr

    # -- RNG states -----------------------------------------------------
    rng = core.sim.arbiter._rng if main else None
    if main:
        arb_state = rng.getstate()
        arb_key = np.array(arb_state[1][:624], dtype=np.uint32)
        arb_meta = i64arr([arb_state[1][624], 0])
        cfg.arb_tint = gate_threshold(core.sim.arbiter.load)
    else:
        arb_state = None
        arb_key = np.zeros(624, dtype=np.uint32)
        arb_meta = i64arr([0, 0])
        cfg.arb_tint = 0
    keep.append(arb_key)
    ptr.arb_key = arb_key.ctypes.data_as(_U32P)
    ptr.arb_meta = _ptr_i64(arb_meta)

    if bern is not None:
        bern_rng, bern_tint, cum_weights, total = bern
        bern_state = bern_rng.getstate()
        bern_key = np.array(bern_state[1][:624], dtype=np.uint32)
        bern_meta = i64arr([bern_state[1][624], 0])
        cw = np.array(cum_weights, dtype=np.float64)
        keep.extend([bern_key, cw])
        cfg.plan_mode = 1
        cfg.bern_tint = bern_tint
        cfg.bern_total = total
        ptr.bern_key = bern_key.ctypes.data_as(_U32P)
        ptr.bern_meta = _ptr_i64(bern_meta)
        ptr.cum_weights = cw.ctypes.data_as(_F64P)
    else:
        bern_rng = bern_state = bern_key = bern_meta = None
        cfg.plan_mode = 0 if (main and aplan is not None) else 2
        cfg.bern_tint = 0
        cfg.bern_total = 0.0
        if cfg.plan_mode == 0:
            # The kernel's plan encoding: int32 queue ids, -1 = no arrival.
            try:
                plan_arr = np.array([-1 if a is None else a for a in aplan],
                                    dtype=np.int32)
            except OverflowError:
                return False  # a queue id past int32: python raises for it
            if len(plan_arr) < num_slots:
                return False  # the kernel reads num_slots entries
            if np.count_nonzero(plan_arr == -1) != aplan.count(None):
                # An entry naming queue -1 would read as no arrival; the
                # python loop raises for it, as the reference does.
                return False
            keep.append(plan_arr)
            ptr.plan = plan_arr.ctypes.data_as(_I32P)

    # -- per-queue scalars ----------------------------------------------
    backlog = i64arr(core.backlog)
    next_seqno = i64arr(core.next_seqno)
    delivered = i64arr(core.delivered)
    counters = i64arr(core.counters)
    req_count = i64arr(core.req_count)
    tail_occ = i64arr(core.tail_occ)
    dram_occ = i64arr(core.dram_occ)
    crit_cache = i64arr([_CRIT_INF if v == math.inf else v
                         for v in core.crit_cache])
    eligible = i64arr(core.eligible, size=nq)
    for name, arr in (("backlog", backlog), ("next_seqno", next_seqno),
                      ("delivered", delivered), ("counters", counters),
                      ("req_count", req_count), ("tail_occ", tail_occ),
                      ("dram_occ", dram_occ), ("crit_cache", crit_cache),
                      ("eligible", eligible)):
        setattr(ptr, name, _ptr_i64(arr))
    cfg.eligible_len = len(core.eligible)

    # -- per-queue contents (live windows, flattened) --------------------
    sram_icnt = i64arr([len(h) for h in core.sram_heap])
    arr_windows = [core.arr_slots[q][core.delivered[q] - core.arr_base[q]:]
                   for q in range(nq)]
    arr_icnt = i64arr([len(w) for w in arr_windows])
    tail_iflat = i64arr(list(chain.from_iterable(core.tail_fifo)))
    dram_iflat = i64arr(list(chain.from_iterable(core.dram_fifo)))
    sram_iflat = i64arr(list(chain.from_iterable(core.sram_heap)))
    req_iflat = i64arr(list(chain.from_iterable(
        core.req_slots[q][core.req_head[q]:] for q in range(nq))))
    arr_iflat = i64arr(list(chain.from_iterable(arr_windows)))
    ptr.sram_icnt = _ptr_i64(sram_icnt)
    ptr.arr_icnt = _ptr_i64(arr_icnt)
    ptr.tail_iflat = _ptr_i64(tail_iflat)
    ptr.dram_iflat = _ptr_i64(dram_iflat)
    ptr.sram_iflat = _ptr_i64(sram_iflat)
    ptr.req_iflat = _ptr_i64(req_iflat)
    ptr.arr_iflat = _ptr_i64(arr_iflat)

    sram_ocnt = out_i64(nq)
    arr_ocnt = out_i64(nq)
    # Worst-case out sizes: cells only enter the machine as arrivals (at
    # most one per main slot), but existing backlog migrates freely — the
    # tail MMA can push the whole tail backlog into DRAM, and replenish can
    # land tail+DRAM backlog (plus in-flight pending cells) in head SRAM.
    # The kernel additionally verifies every out capacity (cfg.*_ocap)
    # before writing and aborts with ERR_CAP, so a formula gap degrades to
    # the scalar-loop fallback, never an out-of-bounds write.
    backlog_cells = core.tail_total + core.dram_total
    tail_oflat = out_i64(core.tail_total + total_slots + 8)
    dram_oflat = out_i64(backlog_cells + total_slots + 8)
    pending_cells = sum(len(seqs) for _, _, seqs in core.pending)
    sram_oflat = out_i64(core.sram_total + pending_cells + backlog_cells
                         + total_slots + 8)
    req_oflat = out_i64(len(req_iflat) + total_slots + 8)
    arr_oflat = out_i64(len(arr_iflat) + total_slots + 8)
    ptr.sram_ocnt = _ptr_i64(sram_ocnt)
    ptr.arr_ocnt = _ptr_i64(arr_ocnt)
    ptr.tail_oflat = _ptr_i64(tail_oflat)
    ptr.dram_oflat = _ptr_i64(dram_oflat)
    ptr.sram_oflat = _ptr_i64(sram_oflat)
    ptr.req_oflat = _ptr_i64(req_oflat)
    ptr.arr_oflat = _ptr_i64(arr_oflat)
    cfg.tail_ocap = len(tail_oflat)
    cfg.dram_ocap = len(dram_oflat)
    cfg.sram_ocap = len(sram_oflat)
    cfg.req_ocap = len(req_oflat)
    cfg.arr_ocap = len(arr_oflat)

    la_ring = i64arr([-1 if v is None else v for v in core.lookahead])
    ptr.la_ring = _ptr_i64(la_ring)
    cfg.la_pos = core.la_pos

    crit_heap = i64arr([(entered << 16) | queue
                        for entered, queue in core.crit_heap],
                       size=len(core.crit_heap) + 3 * total_slots + 16)
    ptr.crit_heap = _ptr_i64(crit_heap)
    cfg.crit_len = len(core.crit_heap)
    cfg.crit_cap = len(crit_heap)

    pend_cap = len(core.pending) + total_slots // g + 4
    pending_fin = i64arr([fin for fin, _, _ in core.pending], size=pend_cap)
    pending_q = i64arr([q for _, q, _ in core.pending], size=pend_cap)
    pending_cnt = i64arr([len(seqs) for _, _, seqs in core.pending],
                         size=pend_cap)
    pending_flat = i64arr(list(chain.from_iterable(
        seqs for _, _, seqs in core.pending)),
        size=pending_cells + total_slots + g + 8)
    ptr.pending_fin = _ptr_i64(pending_fin)
    ptr.pending_q = _ptr_i64(pending_q)
    ptr.pending_cnt = _ptr_i64(pending_cnt)
    ptr.pending_flat = _ptr_i64(pending_flat)
    cfg.pending_len = len(core.pending)
    cfg.pend_cap = len(pending_fin)
    cfg.pend_flat_cap = len(pending_flat)

    delays = out_i64(num_slots)
    head_miss_q = out_i64(total_slots)
    head_miss_slot = out_i64(total_slots)
    drained = out_i64(total_slots)
    ptr.delays = _ptr_i64(delays)
    ptr.head_miss_q = _ptr_i64(head_miss_q)
    ptr.head_miss_slot = _ptr_i64(head_miss_slot)
    ptr.drained = _ptr_i64(drained)

    # -- remaining scalars ----------------------------------------------
    cfg.tail_total = core.tail_total
    cfg.dram_total = core.dram_total
    cfg.sram_total = core.sram_total
    cfg.negatives = core.negatives
    cfg.cells_in = core.cells_in
    cfg.cells_out = core.cells_out
    cfg.dram_reads = core.dram_reads
    cfg.dram_writes = core.dram_writes
    cfg.dropped = core.dropped
    cfg.max_tail = core.max_tail
    cfg.max_head = core.max_head

    rc = fn(ctypes.byref(cfg), ctypes.byref(ptr))
    obs = get_metrics()
    if rc != _ERR_OK:
        # Nothing was written back: the arrays above are copies, the python
        # core is untouched — the caller's python loop replays the span and
        # raises (or recovers) with the exact reference state.
        if obs is not None:
            obs.inc("engine.array.kernel_aborts")
            obs.inc("engine.array.kernel_aborts."
                    + _ABORT_CODES.get(rc, "unknown"))
            obs.inc("engine.array.fallback.abort", total_slots)
        return False

    # -- apply the kernel's state to the python core ---------------------
    if obs is not None:
        obs.inc("engine.array.kernel_spans")
        obs.inc("engine.array.kernel_slots", total_slots)
        if bern is not None:
            obs.inc("engine.array.kernel_plan_slots", num_slots)
    core.backlog[:] = backlog.tolist()
    core.next_seqno[:] = next_seqno.tolist()
    new_delivered = delivered.tolist()
    core.delivered[:] = new_delivered
    core.counters[:] = counters.tolist()
    core.req_count[:] = req_count.tolist()
    new_tail_occ = tail_occ.tolist()
    core.tail_occ[:] = new_tail_occ
    new_dram_occ = dram_occ.tolist()
    core.dram_occ[:] = new_dram_occ
    core.crit_cache[:] = [math.inf if v == _CRIT_INF else v
                          for v in crit_cache.tolist()]
    core.eligible[:] = eligible[:cfg.eligible_len].tolist()

    def split(flat, counts):
        # tolist only the used prefix — the out buffers are over-allocated
        # to worst case and converting the slack would dominate the apply.
        segs = []
        off = 0
        used = flat[:sum(counts)].tolist()
        for cnt in counts:
            segs.append(used[off:off + cnt])
            off += cnt
        return segs

    new_sram_cnt = sram_ocnt.tolist()
    new_arr_cnt = arr_ocnt.tolist()
    tail_segs = split(tail_oflat, new_tail_occ)
    dram_segs = split(dram_oflat, new_dram_occ)
    sram_segs = split(sram_oflat, new_sram_cnt)
    req_segs = split(req_oflat, req_count.tolist())
    arr_segs = split(arr_oflat, new_arr_cnt)

    def refill(ring: IntRing, values: List[int]) -> None:
        ring.clear()
        for value in values:
            ring.push(value)

    for q in range(nq):
        if new_tail_occ[q] or core.tail_fifo[q]:
            refill(core.tail_fifo[q], tail_segs[q])
        if new_dram_occ[q] or core.dram_fifo[q]:
            refill(core.dram_fifo[q], dram_segs[q])
        core.sram_heap[q][:] = sram_segs[q]   # valid heap, identical pops
        core.req_slots[q][:] = req_segs[q]
        core.req_head[q] = 0
        core.arr_slots[q][:] = arr_segs[q]
        core.arr_base[q] = new_delivered[q]

    core.lookahead[:] = [None if v < 0 else v for v in la_ring.tolist()]
    core.la_pos = cfg.la_pos
    core.crit_heap[:] = [(key >> 16, key & 0xFFFF)
                         for key in crit_heap[:cfg.crit_len].tolist()]
    pend_lo = cfg.pend_head_out
    pend_hi = pend_lo + cfg.pending_len
    pend_segs = split(pending_flat[cfg.pend_flat_off_out:],
                      pending_cnt[pend_lo:pend_hi].tolist())
    core.pending = deque(zip(pending_fin[pend_lo:pend_hi].tolist(),
                             pending_q[pend_lo:pend_hi].tolist(),
                             pend_segs))

    core.tail_total = cfg.tail_total
    core.dram_total = cfg.dram_total
    core.sram_total = cfg.sram_total
    core.negatives = cfg.negatives
    core.cells_in = cfg.cells_in
    core.cells_out = cfg.cells_out
    core.dram_reads = cfg.dram_reads
    core.dram_writes = cfg.dram_writes
    core.dropped = cfg.dropped
    core.max_tail = cfg.max_tail
    core.max_head = cfg.max_head

    if cfg.n_delays:
        hist = core.hist
        values, counts = np.unique(delays[:cfg.n_delays],
                                   return_counts=True)
        for delay, count in zip(values.tolist(), counts.tolist()):
            hist[delay] = hist.get(delay, 0) + count
    if cfg.n_drained:
        core.drained.extend(drained[:cfg.n_drained].tolist())
    if cfg.n_head_miss:
        core.head_misses.extend(
            MissRecord(queue=q, slot=s)
            for q, s in zip(head_miss_q[:cfg.n_head_miss].tolist(),
                            head_miss_slot[:cfg.n_head_miss].tolist()))
    if cfg.n_tail_miss:
        core.tail_misses.extend([None] * cfg.n_tail_miss)

    core.slot += total_slots
    if main:
        core.main_slots += num_slots
        core.arrivals_count += cfg.arrivals_seen
        core.departures += cfg.n_delays
        core.idle_requests += num_slots - cfg.grants
        rng.setstate((3, tuple(arb_key.tolist()) + (int(arb_meta[0]),),
                      arb_state[2]))
    if bern_rng is not None:
        bern_rng.setstate((3, tuple(bern_key.tolist())
                           + (int(bern_meta[0]),), bern_state[2]))
    del keep
    return True
