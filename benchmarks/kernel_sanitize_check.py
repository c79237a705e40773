#!/usr/bin/env python3
"""Run the span kernel's own tests against its ASan/UBSan build.

Builds ``_spankernel.c`` with ``-fsanitize=address,undefined
-fno-sanitize-recover=all`` (``REPRO_SPAN_KERNEL_SANITIZE=1``) into a
throwaway cache, then runs pytest over :data:`SELECTION` (each module
whole), or over the pytest arguments given after ``--``, in a child
interpreter with the sanitizer runtimes preloaded and real ``malloc`` in
use.  Any out-of-bounds access or undefined behaviour in the C source
stops the child with a sanitizer report.

Usage::

    python benchmarks/kernel_sanitize_check.py            # skip if no toolchain
    python benchmarks/kernel_sanitize_check.py --require  # CI: missing toolchain fails
    python benchmarks/kernel_sanitize_check.py -- tests/sim/test_kernel_abi.py -k lays_out

Exit codes: 0 every test passed (or, without ``--require``, a skip: no
toolchain, or no sanitized kernel that loads), 1 a test failed or skipped,
nothing was collected, or a sanitizer finding, and under ``--require`` 2
no toolchain, 3 the sanitized kernel did not load.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: The kernel's own test modules; the streaming tests carry the kernel's
#: state image through pickle into its reader.
SELECTION = tuple(str(REPO / "tests" / name) for name in (
    "sim/test_span_kernel.py",
    "sim/test_cfds_kernel.py",
    "switch/test_fabric_kernel.py",
    "sim/test_checkpoint_compat.py",
    "sim/test_kernel_abi.py",
    "sim/test_streaming.py",
))

UNLOADED = 3  # the child's exit code when the sanitized kernel won't load

#: The sanitized interpreter's program: :func:`run_tests` on its arguments.
CHILD = ("import sys, kernel_sanitize_check as check; "
         "sys.exit(check.run_tests(sys.argv[1:]))")


class _Verdict:
    """The child's pytest plugin: stops the run before its first test when
    the sanitized kernel does not load (a run that collected nothing fails
    without it), and counts the skips."""

    unloaded, skipped = False, 0

    def pytest_collection_finish(self, session):
        import pytest

        from repro.sim.kernel import load_kernel

        if session.items and load_kernel() is None:
            self.unloaded = True
            pytest.exit("the sanitized kernel did not load")

    def pytest_runtest_logreport(self, report):
        self.skipped += report.skipped


def run_tests(selection) -> int:
    """The child (:data:`CHILD`): pytest over ``selection``, 0 only when
    every test collected passed on the sanitized kernel."""
    import pytest

    verdict = _Verdict()
    # Capture at the sys level only: a sanitizer writes its report to fd 2
    # and exits, so pytest's default fd capture would swallow it.
    code = pytest.main(["-q", "-ra", "-p", "no:cacheprovider",
                        "--capture=sys", *selection], plugins=[verdict])
    if verdict.unloaded:
        return UNLOADED
    if code != 0 or verdict.skipped:
        print(f"error: pytest exited {int(code)}, {verdict.skipped} skipped",
              file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--require", action="store_true",
                        help="fail instead of skipping when the sanitizer "
                             "toolchain or the sanitized kernel is missing")
    parser.add_argument("selection", nargs="*",
                        help="pytest arguments, after --; default: the "
                             "kernel's test modules")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from repro.sim.kernel import sanitizer_preload

    def skip(reason: str, code: int) -> int:
        if args.require:
            print(f"error: {reason}", file=sys.stderr)
            return code
        print(f"skip: {reason}")
        return 0

    preload = sanitizer_preload()
    if preload is None:
        return skip("no C compiler with sanitizer runtimes "
                    "(cc -print-file-name=libasan.so)", 2)

    env = dict(os.environ)
    with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as cache:
        env.update({
            "REPRO_SPAN_KERNEL_SANITIZE": "1",
            # Fresh cache: always exercise the sanitized compile itself.
            "XDG_CACHE_HOME": cache,
            "LD_PRELOAD": preload,
            # pymalloc arenas carry no ASan redzones; route Python object
            # allocation through intercepted malloc so overflows on
            # Python-owned buffers are caught too.
            "PYTHONMALLOC": "malloc",
            # CPython leaks by design at exit: leak reports drown findings.
            "ASAN_OPTIONS": "detect_leaks=0:abort_on_error=1",
            "UBSAN_OPTIONS": "print_stacktrace=1",
            # The kernel's tests need no pytest plugin: skip their imports.
            "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1",
            "PYTHONPATH": os.pathsep.join(
                filter(None, [str(SRC), str(REPO / "benchmarks"),
                              env.get("PYTHONPATH")])),
        })
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, *(args.selection or SELECTION)],
            env=env)
    if proc.returncode == 0:
        print("kernel sanitize check passed")
        return 0
    if proc.returncode == UNLOADED:  # e.g. static-only sanitizer runtimes
        return skip("the sanitized kernel did not load", UNLOADED)
    print(f"error: sanitize child exited {proc.returncode}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
