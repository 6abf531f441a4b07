"""Machine header printed with every benchmark result.

Everything here is read-only: /proc and /sys files, ``lscpu``, numpy's build
configuration and the loaded OpenBLAS library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    """L2 and L3 sizes per instance from /sys, falling back to lscpu totals."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(f"{index}/level")
        if level in ("2", "3") and _read(f"{index}/type") != "Instruction":
            out[f"L{level}"] = _read(f"{index}/size")
    if len(out) < 2:
        try:
            text = subprocess.run(["lscpu"], capture_output=True, text=True,
                                  timeout=10).stdout
        except (OSError, subprocess.TimeoutExpired):
            text = ""
        for line in text.splitlines():
            for level in ("L2", "L3"):
                if line.startswith(f"{level} cache:"):
                    out.setdefault(level, line.split(":", 1)[1].strip())
    return out


def _openblas() -> tuple[str, str]:
    """(OpenBLAS config string, thread count) from the library numpy loaded."""
    libs = sorted({line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is None or threads is None:
                continue
            config.argtypes, config.restype = [], ctypes.c_char_p
            threads.argtypes, threads.restype = [], ctypes.c_int
            return config().decode().strip(), str(threads())
    return "not found", "unknown"


def _numpy_blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _source_id(root: Path) -> str:
    """The git commit when root is a git checkout, else a digest of src/."""
    if (root / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return f"not a git checkout; src/*.py sha256 {digest.hexdigest()[:16]}"


def header(root: Path) -> dict[str, str]:
    blas_config, blas_threads = _openblas()
    caches = _caches()
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": _cpu_model(),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _numpy_blas(),
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "commit": _source_id(root),
    }
