"""Environment record written with every benchmark run.

Everything is read in-process (no subprocess): library versions, the BLAS
build and its effective thread count, CPU counts, and the git revision and
dirty flag read straight from the .git directory when the checkout has one.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import struct
import sys
from pathlib import Path

import numpy as np
import scipy

BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in _THREAD_SYMBOLS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_dir(root: Path):
    git = root / ".git"
    return git if git.is_dir() else None


def git_revision(root: Path):
    git = _git_dir(root)
    if git is None:
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = git / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def git_dirty(root: Path):
    """True if a file tracked in the index differs from the working tree.

    Reads index versions 2 and 3; returns None when there is no index or it
    uses another version.  Staged but uncommitted changes are not detected.
    """
    git = _git_dir(root)
    if git is None or not (git / "index").is_file():
        return None
    data = (git / "index").read_bytes()
    sig, version, count = struct.unpack(">4sII", data[:12])
    if sig != b"DIRC" or version not in (2, 3):
        return None
    pos = 12
    for _ in range(count):
        sha = data[pos + 40:pos + 60]
        flags = struct.unpack(">H", data[pos + 60:pos + 62])[0]
        fixed = 62 + (2 if version == 3 and flags & 0x4000 else 0)
        end = data.index(b"\0", pos + fixed)
        path = root / data[pos + fixed:end].decode()
        pos += (end - pos + 8) // 8 * 8  # entries are NUL-padded to a multiple of 8
        if not path.is_file():
            return True
        blob = path.read_bytes()
        if hashlib.sha1(b"blob %d\0" % len(blob) + blob).digest() != sha:
            return True
    return False


def source_digest(src: Path) -> str:
    """sha256 over the package sources, identifying the code also outside git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV_VARS},
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(root),
        "git_dirty": git_dirty(root),
        "relkin_source_sha256": source_digest(root / "src" / "relkin"),
    }
