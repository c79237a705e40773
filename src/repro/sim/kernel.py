"""Compiled span kernel for the array engine's RADS and CFDS cores and the
switch's fabric stage.

The kernel has three entries.  The RADS and CFDS cores of
``engine="array"`` (:mod:`repro.sim.array_engine`) run every span on
``rads_run_span`` and ``cfds_run_span``, their only slot loops, through
:func:`run_span_kernel`, which picks the entry by the core's ``scheme``;
the switch's :class:`~repro.switch.model.FabricStream` runs every window of
a stock fabric policy on ``fabric_run_window`` (:func:`run_fabric_window`).
The bundled C99 source ``_spankernel.c`` is compiled on first use with the
system compiler (``cc -O3 -march=native -shared -fPIC``, falling back to
plain ``-O3``), cached under the user's private cache directory
(:func:`_cache_path`) and loaded through :mod:`ctypes` — no ``Python.h``,
no build backend, no wheels, no numpy.

The interface is written once, in C: each struct and code table the kernel
shares with python is one list in ``_spankernel.c``, which expands into its
C declaration and into the description ``kernel_interface`` returns (each
field's name, C type, role, offset and size; each code's and limit's
value).  At load, :func:`_describe` builds the ctypes structures from it,
checks every offset and size, and takes each span entry's fields by role
and the codes by name, so the marshal names no field of the core's.  A
kernel python cannot describe so is unavailable (``abi``), like one that
does not build or load: array runs go to the reference engine, counted as
``engine.array.kernel_unavailable.<reason>``.

A span resumes the arbiter's (and, for a deferred Bernoulli plan, the
arrival process's) Mersenne Twister from its ``random.Random`` state and
runs the core's slot loop; both span entries run every stock arbiter
(:func:`span_arbiter`), on an explicit plan, a Bernoulli plan they draw, or
none, marshalled by ``_Handoff``.  The kernel's encoding is the array
core's only copy of the machine: its fixed-shape state lives on the core
as ``array('q')``s, which the kernel updates in copies taken per call, and
its variable-length state (FIFO contents, head SRAMs, the critical heap,
pending blocks; for CFDS the Requests Register, transfers in flight, the
ORR ring, renaming registers, free names and block locations) is one image
python never walks: :func:`empty_image` builds a fresh core's, and every
span hands the kernel the core's image and keeps the one it returns, the
head of one exact-size result (then the main window's delays folded into
``(delay, count)`` pairs, misses, drained slots and, traced, each slot's
arrival and request), which :func:`_read_result` copies out and releases
with the kernel's ``rads_free_result``.  It takes any ``num_queues`` up to
:data:`MAX_KERNEL_QUEUES` and spans of any length; plans and trace
patterns are ``int32`` (``-1`` = none; an entry that names no queue is
encoded as one the kernel aborts on).

A span that stops early — every raise site of the reference engine, an
allocation failure, a rejected input — returns an abort record: the error
code, the slot and the integers the reference's exception carries.  The
core's arrays, image, scalars and the generators are written back only
after a span that succeeds, so an aborted one leaves them as they were,
and :func:`_raise_abort` raises the reference's exception, with the same
type and message; nothing is replayed.  Every result is bit-identical to
the reference engine's (asserted by ``tests/sim/test_span_kernel.py``,
``tests/sim/test_cfds_kernel.py`` and the differential fuzzer).

The fabric entry follows the same rules.  Python hands it the window's
``int32`` arrival plan (encoded as the span entries') or the ingress
generators, iSLIP's pointers or the random policy's MT state, and the VOQ
image the last window returned, the stream's only copy of the VOQs.  The
kernel returns one exact-size result (trace rows, per-egress counts,
per-ingress backlog, folded waits, the new VOQ image), released with the
same ``rads_free_result``.  A window it stops writes nothing back and
raises from its abort record (a plan entry naming no egress: the
reference's :func:`~repro.errors.destination_error`); nothing is replayed.

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
    REPRO_SPAN_KERNEL_SANITIZE=1 python -m pytest --capture=sys tests/sim/

(``PYTHONMALLOC=malloc`` matters: pymalloc arenas carry no ASan redzones,
so overflows on Python-allocated buffers would go unseen.  So does
``--capture=sys``: under pytest's default fd capture the report, written
to fd 2 as the process dies, is lost.)  The
``benchmarks/kernel_sanitize_check.py`` launcher sets all of this up, with
a throwaway cache, and runs the kernel's own test modules under it; a
sanitized kernel that does not load, a test that fails or skips, or an
empty selection fails it.  CI runs it in the ``kernel-sanitize`` job.
Without the preload, ``CDLL`` fails and the kernel is unavailable
(``load_failed``).
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
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import (
    ArbiterContractError,
    BankConflictError,
    BufferOverflowError,
    CacheMissError,
    ConfigurationError,
    arrival_error,
    destination_error,
)
from repro.mma.mdqf import MDQF
from repro.obs.metrics import get_metrics
from repro.traffic.arbiters import (
    IntermittentArbiter,
    LongestQueueArbiter,
    OldestCellArbiter,
    RandomArbiter,
    RoundRobinAdversary,
    StridedAdversary,
    TraceArbiter,
)
from repro.types import MissRecord

#: Set to ``1``/``on`` to compile the kernel with ASan+UBSan (abort on any
#: memory error or UB).  See the module docstring for the required runtime
#: environment; results remain bit-identical to the production build.
SANITIZE_ENV = "REPRO_SPAN_KERNEL_SANITIZE"

#: Largest ``num_queues`` the kernel takes: its critical-heap keys pack the
#: queue id into 16 bits (``CRIT_KEY`` in ``_spankernel.c``).  Routing reads
#: it before any kernel loads, so python keeps the description's
#: ``MAX_QUEUES`` here too (``tests/sim/test_kernel_abi.py`` pins it).
MAX_KERNEL_QUEUES = 1 << 16

#: Largest ``num_ports`` the fabric entry takes: its VOQ table holds
#: ``num_ports ** 2`` FIFOs (the description's ``MAX_PORTS``).
MAX_FABRIC_PORTS = 1024

_SOURCE = Path(__file__).with_name("_spankernel.c")

#: The production builds, tried in order.  -O3 vectorises the Mersenne
#: Twister's twist and temper loops, and -march=native lets them use the
#: widest vectors and lets the bitset select use pdep where it is fast;
#: -march=native is safe (the cache directory is per-machine) but not
#: supported everywhere, hence plain -O3 after it.  Never -ffast-math:
#: the kernel reproduces CPython's exact IEEE-754 double expressions for
#: random() and choices(), isolated multiplies and comparisons that an
#: optimisation level without such a licence leaves as written.
_FLAG_SETS = (("-O3", "-march=native"), ("-O3",))

#: The sanitized build trades speed for checking: -O1 keeps line info
#: honest and -fno-sanitize-recover turns every finding into an abort.
_SANITIZE_FLAGS = ("-g", "-O1", "-fsanitize=address,undefined",
                   "-fno-sanitize-recover=all")

#: The structures an ``ERR_OVERFLOW`` names, by their ``OV_*`` codes'
#: names, as the reference's :class:`~repro.errors.BufferOverflowError`
#: names them.
_STRUCTURES = {"OV_SRAM": "SRAM", "OV_TAIL": "tail SRAM", "OV_DRAM": "DRAM",
               "OV_RR": "Requests Register"}

#: INT64_MAX, the C marker for "no critical entry" (and "nothing in
#: flight"), and INT64_MIN, for "no issue yet": the description's
#: ``CRIT_INF`` and ``NO_SLOT``, which a fresh core needs before any kernel
#: loads.
CRIT_INF = (1 << 63) - 1
NO_SLOT = -(1 << 63)

#: An ``int32`` plan or pattern entry that names no queue; the kernel aborts
#: on it.
_NO_QUEUE = -2

#: A bound for python ints the kernel reads as ``int64`` (bursts, on/off
#: periods): past any slot, so clamping to it changes no decision.
_I62 = 1 << 62

#: The span entries' arbiters by exact type, as the kernel names them
#: (``ARB_*`` in ``_spankernel.c``), and the attributes of each arbiter's
#: own state the kernel reads and writes back (``arb_s0``, ``arb_s1``).
_ARB_NAMES = {RandomArbiter: "ARB_RANDOM", LongestQueueArbiter: "ARB_LONGEST",
              OldestCellArbiter: "ARB_OLDEST", TraceArbiter: "ARB_TRACE",
              RoundRobinAdversary: "ARB_ROUND_ROBIN",
              StridedAdversary: "ARB_STRIDED"}
_ARB_STATE = {OldestCellArbiter: ("_rotation",),
              RoundRobinAdversary: ("_next",),
              StridedAdversary: ("_current", "_issued_in_burst")}

#: 2**53 — ``Random.random()`` returns ``comb / 2**53``.
_F53 = 9007199254740992

#: The span entries by the core's ``scheme``: the kernel's function and
#: its config and pointer structs.
_SPAN_ENTRIES = {"rads": ("rads_run_span", "kcfg", "kptrs"),
                 "cfds": ("cfds_run_span", "ccfg", "cptrs")}

#: The ctypes of the description's C types; a pointer is a ``c_void_p``, set
#: from an array's ``buffer_info()[0]`` (kept alive across the call).
_CTYPES = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}

_lock = threading.Lock()
#: The loaded kernel (a :class:`_Kernel`), or ``None``.
_kernel = None
_kernel_tried = False
#: The kernel's ``rads_free_result``, which releases each result any entry
#: returns, and its ``fabric_run_window``.
_release = _fabric = None


class _Entry(NamedTuple):
    """A span entry: its function, its config and pointer structures, and
    the config's ``conf`` and ``core`` fields and the pointers' ``core``
    fields (the roles in ``_spankernel.c``)."""

    run: Callable
    cfg: type
    ptrs: type
    conf: Tuple[str, ...]
    scalars: Tuple[str, ...]
    arrays: Tuple[str, ...]


class _Kernel(NamedTuple):
    """The loaded kernel: the span entries by the core's ``scheme``, each
    struct, code and limit by its C name, the error codes' names by code and
    the fabric policies' codes by name (a name past its prefix, lower-cased,
    as in the ``engine.array.kernel_aborts.<code>`` counters)."""

    spans: Dict[str, _Entry]
    structs: Dict[str, type]
    consts: Dict[str, int]
    errors: Dict[int, str]
    policies: Dict[str, int]


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


def _flag_sets():
    """The compiler flag sets :func:`_compile` tries, in order."""
    return (_SANITIZE_FLAGS,) if sanitize_enabled() else _FLAG_SETS


def _cache_path() -> Path:
    """The cached kernel in :func:`_cache_dir`, keyed by a hash of the
    source, the flag sets the build tries and the interpreter's tags."""
    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    # The flags are part of the kernel: a changed flag set recompiles, and
    # a sanitized .so (which fails to load without its preload) is never
    # picked up by a production run, nor the other way round.
    digest.update(repr(_flag_sets()).encode())
    digest.update(sys.implementation.cache_tag.encode())
    digest.update(sysconfig.get_platform().encode())
    suffix = "-sanitize" if sanitize_enabled() else ""
    tag = digest.hexdigest()[:20]
    return _cache_dir() / f"spankernel-{tag}{suffix}.so"


def _compiler() -> Optional[str]:
    from shutil import which

    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and which(cand):
            return cand
    return None


def _compile(path: Path) -> Optional[str]:
    """Build the kernel at ``path``: ``None``, or why not (:func:`_open`)."""
    cc = _compiler()
    if cc is None:
        return "no_compiler"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if hasattr(os, "getuid"):
            os.chmod(path.parent, 0o700)  # mkdir mode is umask-clipped
    except OSError:
        return "compile_failed"
    if not _trusted(path.parent, want_dir=True):
        return "untrusted"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    # The first flag set the compiler takes is the build (see _FLAG_SETS:
    # -O3, with -march=native where supported, never -ffast-math);
    # _cache_path hashes them all, so a changed set recompiles.
    for extra in _flag_sets():
        cmd = [cc, *extra, "-shared", "-fPIC", "-o", str(tmp), str(_SOURCE)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=120)
            if proc.returncode == 0:
                if hasattr(os, "getuid"):
                    os.chmod(tmp, 0o700)
                os.replace(tmp, path)
                return None
        except (OSError, subprocess.SubprocessError):
            return "compile_failed"
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
    return "compile_failed"


def load_kernel() -> Optional[_Kernel]:
    """The loaded kernel, or ``None`` (cached; a failed attempt is not
    retried within the process)."""
    if not _kernel_tried:
        _load()
    return _kernel


def load_fabric_kernel():
    """The loaded kernel's ``fabric_run_window``, or ``None`` whenever
    :func:`load_kernel` has no kernel: every entry lives in one ``.so``."""
    return _fabric if load_kernel() is not None else None


def _rows(lib):
    """The kernel's description (``kernel_interface`` in ``_spankernel.c``)
    as ``(owner, name, type, role, value, size)`` rows: a field's owner is
    empty (its struct's own row follows), a code's or limit's ``const``."""
    describe = lib.kernel_interface
    describe.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
    describe.restype = ctypes.c_char_p
    numbers, count = ctypes.POINTER(ctypes.c_int64)(), ctypes.c_int64()
    words = describe(ctypes.byref(numbers), ctypes.byref(count))
    words = words.decode().split("\t")
    if len(words) != 2 * count.value + 1:
        raise ConfigurationError("the kernel's description does not add up")
    words, values = iter(words), iter(numbers[:count.value])
    return zip(words, words, words, words, values, values)


def _describe(lib) -> _Kernel:
    """Python's side of ``lib``'s interface, from its description: each
    struct a ctypes structure (a ``base`` struct anonymous, its fields read
    as the outer's) checked field by field against C's offsets and sizes,
    the span entries' role lists, and the codes."""
    consts, structs, roles, fields = {}, {}, {}, []
    for row in _rows(lib):
        owner, name, ctype, role, value, size = row
        if not owner:
            fields.append(row)
        elif owner == "const":
            consts[name] = value
        else:  # the struct's own row, after its fields
            spec, bases, own = [], [], {}  # own: names by role, base's first
            for _, field, ftype, frole, _, _ in fields:
                if frole == "base":
                    spec.append((field, structs[ftype]))
                    bases.append(field)
                    for key, names in roles[ftype].items():
                        own.setdefault(key, []).extend(names)
                else:
                    spec.append((field, ctypes.c_void_p if ftype[-1] == "*"
                                 else _CTYPES[ftype]))
                    own.setdefault(frole, []).append(field)
            struct = type(owner, (ctypes.Structure,),
                          {"_fields_": spec, "_anonymous_": bases})
            layout = [(field.offset, field.size) for field in map(
                vars(struct).__getitem__, (name for _, name, *_ in fields))]
            if ctypes.sizeof(struct) != size or layout != [
                    (offset, width) for *_, offset, width in fields]:
                raise ConfigurationError(
                    f"python lays {owner} out unlike the kernel")
            structs[owner], roles[owner], fields = struct, own, []
    lib.rads_free_result.argtypes = [ctypes.c_void_p]
    lib.rads_free_result.restype = None
    for function in ("fabric_run_window",
                     *(entry[0] for entry in _SPAN_ENTRIES.values())):
        run = getattr(lib, function)
        run.argtypes = [ctypes.c_void_p, ctypes.c_void_p]  # cfg, pointers
        run.restype = ctypes.c_int64
    spans = {scheme: _Entry(getattr(lib, function), structs[cfg],
                            structs[ptrs], tuple(roles[cfg].get("conf", ())),
                            tuple(roles[cfg].get("core", ())),
                            tuple(roles[ptrs].get("core", ())))
             for scheme, (function, cfg, ptrs) in _SPAN_ENTRIES.items()}
    return _Kernel(spans, structs, consts,
                   {value: name[4:].lower() for name, value in consts.items()
                    if name.startswith("ERR_")},
                   {name[7:].lower(): value for name, value in consts.items()
                    if name.startswith("POLICY_")})


def _open():
    """``(lib, None)``, or ``(None, reason)``: ``no_compiler``,
    ``compile_failed``, ``untrusted`` (a cache we do not exclusively own),
    ``load_failed`` (``CDLL``, or an entry missing) or ``abi`` (no 32-bit
    arrays, as which the kernel reads RNG keys and plans)."""
    if array("I").itemsize != 4 or array("i").itemsize != 4:
        return None, "abi"
    if not _SOURCE.is_file():
        return None, "compile_failed"
    path = _cache_path()
    reason = None if path.is_file() else _compile(path)
    if reason is not None:
        return None, reason
    # Load nothing we do not exclusively own: a pre-planted cache dir or
    # .so (wrong owner, group/other-writable, or a symlink) is skipped, not
    # trusted — array runs go to the reference engine.
    if not (_trusted(path.parent, want_dir=True) and _trusted(path)):
        return None, "untrusted"
    try:
        lib = ctypes.CDLL(str(path))
        for function in ("kernel_interface", "rads_free_result",
                         "fabric_run_window",
                         *(entry[0] for entry in _SPAN_ENTRIES.values())):
            getattr(lib, function)
    except (OSError, AttributeError):
        return None, "load_failed"
    return lib, None


def _load() -> None:
    """Load the kernel once, counting ``engine.array.kernel_loaded`` or
    ``engine.array.kernel_unavailable`` and its ``.<reason>``: :func:`_open`'s,
    or ``abi`` for a description :func:`_describe` cannot build."""
    global _kernel, _kernel_tried, _release, _fabric
    with _lock:
        if _kernel_tried:
            return
        lib, reason = _open()
        if lib is not None:
            try:
                _kernel = _describe(lib)
            except (ConfigurationError, LookupError, TypeError, ValueError):
                reason = "abi"  # what python cannot read, it cannot run
            else:
                _release, _fabric = lib.rads_free_result, lib.fabric_run_window
        _kernel_tried = True
        obs = get_metrics()
        if obs is not None:
            obs.inc("engine.array.kernel_loaded" if reason is None
                    else "engine.array.kernel_unavailable")
            if reason is not None:
                obs.inc(f"engine.array.kernel_unavailable.{reason}")


def empty_image(num_queues: int, orr_len: Optional[int] = None,
                free_names=None) -> array:
    """A fresh core's state image, in the kernel's layout (above ``kptrs``
    and ``cptrs`` in ``_spankernel.c``): zero SRAM and arrival-window
    counts, so every per-queue part and the critical heap are empty and no
    block is pending.  A CFDS core (``orr_len`` given) adds an empty
    Requests Register and in-flight list, ``orr_len`` empty ORR slots,
    with renaming empty renaming registers and ``free_names`` (each group's
    stack of free physical names), and no block locations.

    This is the one python function that knows the layout: every later
    image is the one the kernel hands back.
    """
    image = array("q", bytes(16 * num_queues))
    if orr_len is not None:
        image.frombytes(bytes(8 * (2 + orr_len)))
        if free_names is not None:
            image.frombytes(bytes(8 * num_queues))
            for names in free_names:
                image.append(len(names))
                image.extend(names)
        image.frombytes(bytes(8 * num_queues))
    return image


def _rng_image(rng):
    """``rng``'s state and the kernel's copy of it: the 624-word key and
    ``[pos]``, which the kernel advances in place."""
    state = rng.getstate()
    return state, array("I", state[1][:624]), array("q", (state[1][624],))


def _rng_restore(rng, state, key, meta) -> None:
    """Set ``rng`` to the kernel's advanced copy of its
    :func:`_rng_image`: ``key``'s 624 words at position ``meta[0]``, with
    ``state``'s Gaussian cache."""
    rng.setstate((3, tuple(key) + (meta[0],), state[2]))


def _copied(view, typecode: str = "q") -> array:
    """A byte view of a kernel result copied out as an array of
    ``typecode``, ``int64`` by default."""
    values = array(typecode)
    values.frombytes(view)
    return values


def _queue_array(entries, num_queues: int) -> array:
    """The kernel's ``int32`` encoding of a plan or trace pattern: ``-1``
    for ``None``, the queue for a plain ``int`` in ``[0, num_queues)``, and
    ``_NO_QUEUE``, which the kernel aborts on, for anything else."""
    return array("i", [-1 if e is None
                       else e if type(e) is int and 0 <= e < num_queues
                       else _NO_QUEUE for e in entries])


def span_arbiter(arbiter, num_queues: int) -> Optional[str]:
    """The span entries' name for ``arbiter`` (its ``ARB_*`` code in
    ``_spankernel.c``), or ``None`` when the kernel cannot run it.

    It runs no arbiter and every stock arbiter of exact type (a subclass
    may override ``next_request``) over exactly the buffer's
    ``num_queues`` (a ``TraceArbiter`` has no queue count), and an
    ``IntermittentArbiter`` over any of these, one level deep, as its inner
    arbiter's code behind the on/off gate.  Routing asks before the kernel
    loads: the marshal looks the code up by this name."""
    if arbiter is None:
        return "ARB_NONE"
    if type(arbiter) is IntermittentArbiter:
        arbiter = arbiter.inner
    name = _ARB_NAMES.get(type(arbiter))
    if name is None or (name != "ARB_TRACE"
                        and arbiter.num_queues != num_queues):
        return None
    return name


class _Handoff:
    """One span's call of the entry of the core's ``scheme``: its config
    and pointers.  The entry's roles name the core's part: each ``conf``
    field is the core's attribute of its name (``None`` as ``-1``), each
    ``core`` field too, a pointer as a copy of the core's array, and
    :meth:`apply` writes those back after a span that succeeds.  The rest
    is the marshal's: the arbiter (its code and state, an intermittent
    gate, MT state, a trace window), the head MMA, the arrival plan and the
    image.  Every array stays alive (never resized) across the C call."""

    def __init__(self, abi: _Kernel, core, aplan, num_slots: int, main: bool,
                 bern) -> None:
        self.started = perf_counter()
        self.entry = entry = abi.spans[core.scheme]
        self.core = core
        self.num_slots = num_slots
        self.main = main
        self.rngs = []
        self.ptr = ptr = entry.ptrs()
        consts = abi.consts
        nq = core.num_queues
        head = ("HEAD_MDQF" if type(core.buffer.head.mma) is MDQF
                else "HEAD_ECQF_FALLBACK" if core.ecqf_fallback
                else "HEAD_ECQF")
        fields = dict(num_slots=num_slots, start_slot=core.slot,
                      is_main=1 if main else 0, state_len=len(core.image),
                      plan_mode=consts["PLAN_NONE"], head_mma=consts[head],
                      traced=1 if main and core.sim.trace is not None else 0)
        arbiter = core.sim.arbiter if main else None
        arb = span_arbiter(arbiter, nq)
        if arb is None:
            raise ConfigurationError(
                f"the span kernel runs no {type(arbiter).__name__} over "
                f"{nq} queues")
        if type(arbiter) is IntermittentArbiter:
            fields.update(gate_on=min(arbiter.on_slots, _I62),
                          gate_period=min(arbiter.on_slots
                                          + arbiter.off_slots, _I62))
            arbiter = arbiter.inner
        self.arbiter = arbiter
        fields["arb_mode"] = consts[arb]
        for name, attr in zip(("arb_s0", "arb_s1"),
                              _ARB_STATE.get(type(arbiter), ())):
            fields[name] = getattr(arbiter, attr)
        if arb == "ARB_RANDOM":
            ptr.arb_key, ptr.arb_meta = self._rng(arbiter._rng)
            fields["arb_tint"] = gate_threshold(arbiter.load)
        elif arb == "ARB_STRIDED":
            fields.update(arb_stride=arbiter.stride % nq,
                          arb_burst=min(arbiter.burst, _I62))
        elif arb == "ARB_TRACE":
            window = arbiter.pattern[core.slot:core.slot + num_slots]
            self.pattern = _queue_array(window, nq)
            self.pattern.extend([-1] * (num_slots - len(window)))
            ptr.arb_pattern = self.pattern.buffer_info()[0]
        if bern is not None:
            rng, tint, cum_weights, total = bern
            ptr.bern_key, ptr.bern_meta = self._rng(rng)
            self.weights = array("d", cum_weights)
            ptr.cum_weights = self.weights.buffer_info()[0]
            fields.update(plan_mode=consts["PLAN_BERNOULLI"], bern_tint=tint,
                          bern_total=total)
        elif main and aplan is not None:
            # An int32 row (a switch port's egress row) goes as it is.
            self.plan = (aplan if isinstance(aplan, array)
                         and aplan.typecode == "i"
                         else _queue_array(aplan[:num_slots], nq))
            ptr.plan = self.plan.buffer_info()[0]
            fields["plan_mode"] = consts["PLAN_EXPLICIT"]
        for name in entry.conf:
            value = getattr(core, name)
            fields[name] = -1 if value is None else value
        for name in entry.scalars:
            fields[name] = getattr(core, name)
        self.cfg = entry.cfg(**fields)
        self.arrays = []
        for name in entry.arrays:
            kept = getattr(core, name)
            copy = kept[:]
            self.arrays.append((kept, copy))
            setattr(ptr, name, copy.buffer_info()[0])
        ptr.state = core.image.buffer_info()[0]

    def _rng(self, rng):
        """The addresses of ``rng``'s key and ``[pos]`` for the kernel,
        whose advanced state :meth:`apply` hands back."""
        state, key, meta = _rng_image(rng)
        self.rngs.append((rng, state, key, meta))
        return key.buffer_info()[0], meta.buffer_info()[0]

    def apply(self) -> None:
        """Write the span back: the updated arrays, the new image, the
        core's scalars and counts, the arbiter's and the generators'
        states, and the outcome that follows the image in the result."""
        cfg = self.cfg
        image, outcome = _read_result(self.ptr, cfg)
        core = self.core
        num_slots = self.num_slots
        for kept, copy in self.arrays:
            kept[:] = copy
        core.image = image
        for name in self.entry.scalars:
            setattr(core, name, getattr(cfg, name))
        core.slot += num_slots
        if self.main:
            core.main_slots += num_slots
            core.arrivals_count += cfg.arrivals_seen
            core.departures += cfg.n_delays
            core.idle_requests += num_slots - cfg.grants
        for name, attr in zip(("arb_s0", "arb_s1"),
                              _ARB_STATE.get(type(self.arbiter), ())):
            setattr(self.arbiter, attr, getattr(cfg, name))
        for rng, state, key, meta in self.rngs:
            _rng_restore(rng, state, key, meta)
        # The outcome: the main window's delay pairs, head misses, drained
        # slots and, for a traced span, each slot's arrival and request.
        hist = core.hist
        at = 2 * cfg.n_delay_pairs
        for delay, count in zip(outcome[:at:2], outcome[1:at:2]):
            hist[delay] = hist.get(delay, 0) + count
        misses = outcome[at:at + 2 * cfg.n_head_miss]
        core.head_misses.extend(MissRecord(queue=queue, slot=slot)
                                for queue, slot in zip(misses[::2],
                                                       misses[1::2]))
        core.tail_misses.extend([None] * cfg.n_tail_miss)
        at += len(misses)
        core.drained.extend(outcome[at:at + cfg.n_drained])
        if cfg.traced:
            events = [None if v < 0 else v
                      for v in outcome[at + cfg.n_drained:]]
            core.sim.trace.events.extend(zip(events[::2], events[1::2]))


def _read_result(ptr, cfg):
    """The kernel-owned result, released once read: its head, the new
    state image (``cfg.state_len`` elements), copied whole into an
    ``array``, and the outcome that follows it as a list."""
    try:
        view = memoryview((ctypes.c_int64 * cfg.result_len).from_address(
            ptr.result)).cast("B")
        return (_copied(view[:8 * cfg.state_len]),
                view[8 * cfg.state_len:].cast("q").tolist())
    finally:
        _release(ptr.result)


def _observe(obs, error: str, num_slots: int, plan_slots: int,
             started: float, native_s: float) -> None:
    """Count one kernel call and time it (see :func:`run_span_kernel`)."""
    if error == "ok":
        obs.inc("engine.array.kernel_spans")
        obs.inc("engine.array.kernel_slots", num_slots)
        if plan_slots:
            obs.inc("engine.array.kernel_plan_slots", plan_slots)
    else:
        obs.inc("engine.array.kernel_aborts")
        obs.inc(f"engine.array.kernel_aborts.{error}")
    obs.observe("engine.array.kernel_native_s", native_s)
    obs.observe("engine.array.kernel_handoff_s",
                perf_counter() - started - native_s)


def _raise_abort(abi: _Kernel, error: str, handoff: _Handoff, aplan):
    """Raise the reference engine's exception for a span that stopped with
    ``error`` and the abort record in ``handoff.cfg``: its slot and the
    integers the exception carries.  An arrival or trace entry that names
    no queue is read back from the plan or the pattern, as the reference
    reads it."""
    cfg, core = handoff.cfg, handoff.core
    slot = cfg.err_slot
    if error == "oom":
        raise MemoryError("the span kernel ran out of memory")
    shown = {abi.consts[name]: shown for name, shown in _STRUCTURES.items()}
    if error == "overflow" and cfg.err_a in shown:
        raise BufferOverflowError(shown[cfg.err_a], cfg.err_b, cfg.err_c)
    if error == "miss":
        raise CacheMissError(cfg.err_a, slot)
    if error == "conflict":
        raise BankConflictError(cfg.err_a, slot, cfg.err_b)
    if error == "bus":
        raise ConfigurationError(
            f"address bus violation: accesses at slots {cfg.err_a} and "
            f"{slot} are closer than {cfg.err_b} slots")
    if error == "plan":
        raise arrival_error(aplan[slot - core.slot], core.num_queues, slot)
    if error == "arbiter":
        raise ArbiterContractError(handoff.arbiter.pattern[slot],
                                   core.num_queues, slot)
    raise ConfigurationError(
        f"the span kernel rejected the core's state at slot {slot} "
        f"(error {error})")


def run_span_kernel(core, aplan, num_slots: int, main: bool = True,
                    bern=None, drain_slots: int = 0) -> bool:
    """Run one span of an array core on the compiled kernel: the entry of
    the core's ``scheme``, ``rads_run_span`` or ``cfds_run_span``; ``True``
    once it ran, ``False`` when no kernel is loaded.

    ``aplan`` is the arrival plan — an ``Optional[int]`` list or an
    ``int32`` row at least ``num_slots`` long — or ``None`` for a span
    without arrivals; ``bern = (rng, tint, cum_weights, total)`` makes the
    kernel draw the Bernoulli arrival plan natively instead.  The arbiter
    is one :func:`span_arbiter` accepts.  A span the kernel stops early
    leaves the python core untouched and raises the reference engine's
    exception (:func:`_raise_abort`).

    ``drain_slots`` must be 0: a drain window is a span of its own
    (``main=False``).  The parameter stays only because the benchmark's
    traced run (``perfbench/layers.py``) reads it from every call.

    With metrics on, every kernel call records two timers:
    ``engine.array.kernel_native_s`` (the C call) and
    ``engine.array.kernel_handoff_s`` (the rest of the call: the array
    copies in and back, the RNG keys, the image's copy out of the result
    and the outcome's parse).
    """
    if drain_slots:
        raise ConfigurationError(
            "the span kernel runs a drain window as its own span "
            "(main=False), not appended to a main one")
    abi = load_kernel()
    if abi is None:
        return False
    handoff = _Handoff(abi, core, aplan, num_slots, main, bern)
    obs = get_metrics()
    native_started = perf_counter()
    rc = handoff.entry.run(ctypes.byref(handoff.cfg),
                           ctypes.byref(handoff.ptr))
    native_s = perf_counter() - native_started
    error = abi.errors.get(rc, "unknown")
    if error == "ok":
        handoff.apply()
    if obs is not None:
        _observe(obs, error, num_slots, num_slots if bern is not None else 0,
                 handoff.started, native_s)
    if error != "ok":
        # Nothing was written back: the arrays handed over are copies.
        _raise_abort(abi, error, handoff, aplan)
    return True


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
                      pointers=None, rng=None, bern=None) -> FabricWindow:
    """Run one crossbar window on the compiled kernel.

    ``plans`` holds each ingress's destinations for an arrival window,
    ``num_ports`` sequences of ``num_slots`` entries; ``bern`` instead
    makes the kernel draw every ingress's Bernoulli plan, one ``(rng, tint,
    cum_weights, total)`` per ingress (each its own ``random.Random``,
    ``num_ports`` weights each).  With neither it is a flush window, which
    runs until the VOQs drain, at most ``num_slots`` slots.  ``voqs`` is
    the VOQ image the last window returned (empty at first; layout above
    ``fptrs`` in ``_spankernel.c``) and ``peak`` the peak ingress backlog
    so far.  ``policy`` names one of the kernel's policies (``islip``,
    ``random`` or ``priority``: its ``POLICY_*`` codes); ``pointers`` are
    iSLIP's ``(grant, accept)`` lists and ``rng`` the random policy's
    ``random.Random``, advanced in place as the generators are.

    A window the kernel stops writes nothing back and raises: the
    reference's :func:`~repro.errors.destination_error` for a plan entry
    that is not ``None`` or a port id, :class:`MemoryError` when the kernel
    runs out of memory, and a one-line ``ConfigurationError`` otherwise:
    inputs of the wrong shape, a policy the kernel does not run, no kernel,
    or a kernel error (too many ports, a malformed image) named with its
    slot.
    """
    fn = load_fabric_kernel()
    if fn is None:
        raise ConfigurationError("the fabric kernel is not loaded")
    abi = _kernel
    code = abi.policies.get(policy)
    if code is None:
        raise ConfigurationError(
            f"the fabric kernel runs no {policy!r} policy (known: "
            f"{', '.join(abi.policies)})")
    n = num_ports
    # Every array below stays bound to a local, so alive across the C call.
    ptr = abi.structs["fptrs"](state=voqs.buffer_info()[0])
    plan_mode = abi.consts["PLAN_EXPLICIT"]
    if plans is not None:
        if len(plans) != n or any(len(entries) != num_slots
                                  for entries in plans):
            raise ConfigurationError(
                f"the fabric kernel takes {n} ingress plans of {num_slots} "
                f"slots each")
        plan = array("i")
        for entries in plans:
            plan.extend(_queue_array(entries, n))
        ptr.plan = plan.buffer_info()[0]
    elif bern is not None:
        if len(bern) != n or any(len(cum_weights) != n for _gen, _tint,
                                 cum_weights, _total in bern):
            raise ConfigurationError(
                f"the fabric kernel draws {n} ingress plans over {n} ports")
        images = [_rng_image(gen) for gen, _tint, _cum, _total in bern]
        bern_key, bern_meta = array("I"), array("q")
        tints, totals, weights = array("q"), array("d"), array("d")
        for (_gen, tint, cum_weights, total), (_state, key, meta) in zip(
                bern, images):
            bern_key.extend(key)
            bern_meta.extend(meta)
            tints.append(tint)
            totals.append(total)
            weights.extend(cum_weights)
        ptr.bern_key = bern_key.buffer_info()[0]
        ptr.bern_meta = bern_meta.buffer_info()[0]
        ptr.bern_tint = tints.buffer_info()[0]
        ptr.bern_total = totals.buffer_info()[0]
        ptr.cum_weights = weights.buffer_info()[0]
        plan_mode = abi.consts["PLAN_BERNOULLI"]
    if pointers is not None:
        grant = array("q", pointers[0])
        accept = array("q", pointers[1])
        if len(grant) != n or len(accept) != n:
            raise ConfigurationError(
                f"iSLIP's grant and accept pointers must number {n} each")
        ptr.grant = grant.buffer_info()[0]
        ptr.accept = accept.buffer_info()[0]
    if rng is not None:
        rng_image = _rng_image(rng)
        ptr.rng_key = rng_image[1].buffer_info()[0]
        ptr.rng_meta = rng_image[2].buffer_info()[0]
    cfg = abi.structs["fcfg"](
        num_ports=n, policy=code, num_slots=num_slots, start_slot=start_slot,
        flush=1 if plans is None and bern is None else 0,
        plan_mode=plan_mode, state_len=len(voqs), peak=peak)
    rc = fn(ctypes.byref(cfg), ctypes.byref(ptr))
    plan = weights = None  # read; freed before the read-back
    error = abi.errors.get(rc, "unknown")
    if error == "plan" and plans is not None:
        ingress = cfg.err_ingress
        raise destination_error(plans[ingress][cfg.err_slot - start_slot],
                                ingress, n)
    if error == "oom":
        raise MemoryError("the fabric kernel ran out of memory")
    if error != "ok":
        raise ConfigurationError(
            f"the fabric kernel stopped at slot {cfg.err_slot} "
            f"(error {error})")
    slots = cfg.slots_run
    row_bytes = 4 * slots
    # The rows are int32, padded to a whole int64 word; then per-egress
    # counts, per-ingress backlog, the wait pairs and the VOQ image.
    at = 8 * ((n * slots + 1) // 2)
    waits_at = at + 16 * n
    voqs_at = waits_at + 16 * cfg.n_wait_pairs
    try:
        view = memoryview((ctypes.c_int64 * cfg.result_len).from_address(
            ptr.result)).cast("B")
        window = FabricWindow(
            slots=slots,
            traces=[_copied(view[e * row_bytes:(e + 1) * row_bytes], "i")
                    for e in range(n)],
            per_egress=_copied(view[at:at + 8 * n]),
            backlog=_copied(view[at + 8 * n:waits_at]),
            waits=_copied(view[waits_at:voqs_at]),
            voqs=_copied(view[voqs_at:]), offered=cfg.offered,
            transferred=cfg.transferred, peak=cfg.peak)
    finally:
        _release(ptr.result)
    if pointers is not None:
        pointers[0][:] = grant.tolist()
        pointers[1][:] = accept.tolist()
    if rng is not None:
        _rng_restore(rng, *rng_image)
    if bern is not None:
        for i, ((gen, *_), (state, *_)) in enumerate(zip(bern, images)):
            _rng_restore(gen, state, bern_key[624 * i:624 * (i + 1)],
                         bern_meta[i:i + 1])
    return window
