"""The ASan/UBSan build mode of the compiled span kernel."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import kernel as span_kernel

REPO = Path(__file__).resolve().parent.parent.parent
HARNESS = REPO / "benchmarks" / "kernel_sanitize_check.py"


class TestSanitizeMode:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(span_kernel.SANITIZE_ENV, raising=False)
        assert not span_kernel.sanitize_enabled()

    @pytest.mark.parametrize("value", ["1", "on", "true", "yes", "ON"])
    def test_enabled_values(self, monkeypatch, value):
        monkeypatch.setenv(span_kernel.SANITIZE_ENV, value)
        assert span_kernel.sanitize_enabled()

    @pytest.mark.parametrize("value", ["", "0", "off", "false", "no"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv(span_kernel.SANITIZE_ENV, value)
        assert not span_kernel.sanitize_enabled()

    def test_sanitized_cache_path_is_segregated(self, monkeypatch):
        monkeypatch.delenv(span_kernel.SANITIZE_ENV, raising=False)
        production = span_kernel._cache_path()
        monkeypatch.setenv(span_kernel.SANITIZE_ENV, "1")
        sanitized = span_kernel._cache_path()
        assert sanitized != production
        assert sanitized.name.endswith("-sanitize.so")
        assert not production.name.endswith("-sanitize.so")

    def test_preload_is_absolute_paths_or_none(self):
        preload = span_kernel.sanitizer_preload()
        if preload is None:
            pytest.skip("no sanitizer runtimes on this host")
        for lib in preload.split():
            assert Path(lib).is_absolute()


def launch(*selection, require=False, env=None):
    """The launcher on ``selection``, its output captured."""
    flags = ["--require"] if require else []
    return subprocess.run([sys.executable, str(HARNESS), *flags, "--",
                           *selection], capture_output=True, text=True,
                          timeout=600, env=env)


needs_toolchain = pytest.mark.skipif(
    span_kernel.sanitizer_preload() is None,
    reason="no sanitizer toolchain: the launcher only reports a skip")


class TestHarness:
    def test_harness_runs_or_skips(self):
        """The launcher is self-gating: exit 0 both when the toolchain is
        present (the sanitized compile, the preload, the load guard and the
        kernel-interface tests under ASan/UBSan) and when it is absent (a
        reported skip).  --require is reserved for CI."""
        assert HARNESS.is_file()
        proc = launch(str(REPO / "tests" / "sim" / "test_kernel_abi.py"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert ("kernel sanitize check passed" in proc.stdout
                or "skip:" in proc.stdout)

    @needs_toolchain
    def test_a_selection_that_runs_nothing_fails(self):
        """A selection whose every test is deselected runs no test: the
        launcher fails it, before any sanitized compile."""
        proc = launch(str(REPO / "tests" / "sim" / "test_kernel_abi.py"),
                      "-k", "no_such_test", require=True)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "pytest exited 5" in proc.stderr

    @needs_toolchain
    def test_a_kernel_that_does_not_load_fails(self, tmp_path):
        """A compiler that names the sanitizer runtimes but builds nothing:
        the load guard stops the run before its first test, and under
        --require the launcher exits 3."""
        real = shutil.which(span_kernel._compiler())
        fake = tmp_path / "cc"
        fake.write_text(f'#!/bin/sh\ncase "$1" in -print-file-name=*) '
                        f'exec {real} "$@";; esac\nexit 1\n')
        fake.chmod(0o700)
        proc = launch(str(REPO / "tests" / "sim" / "test_kernel_abi.py"),
                      require=True, env=dict(os.environ, CC=str(fake)))
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert "no tests ran" in proc.stdout
        assert "error: the sanitized kernel did not load" in proc.stderr
