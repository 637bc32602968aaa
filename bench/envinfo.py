"""Environment record attached to every benchmark result."""

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path

# Pinned in the benchmark's own environment before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def pin_threads(environ):
    """Set every BLAS thread variable to 1; return the values found before."""
    before = {k: environ.get(k) for k in THREAD_VARS}
    for k in THREAD_VARS:
        environ[k] = "1"
    return before


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cache_sizes():
    sizes = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{d}/level"), _read(f"{d}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = _read(f"{d}/size")
    return sizes


def _blas_threads():
    """Thread counts reported by each OpenBLAS that numpy and scipy load."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[path.name] = int(fn())
                    break
    return out


def _git_commit(root):
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit is None:
        for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def source_digest(src):
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(Path(src).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def record(root, src, threads_before):
    """Everything a reader needs to compare two results; ``flags`` lists
    anything that makes this run differ from the pinned setting."""
    import mpmath
    import numpy
    import scipy

    threads = {k: os.environ.get(k) for k in THREAD_VARS}
    blas = _blas_threads()
    flags = [f"{k} was {v!r} before pinning" for k, v in threads_before.items()
             if v is not None and v != "1"]
    flags += [f"{k}={v!r}, expected '1'" for k, v in threads.items() if v != "1"]
    flags += [f"{lib} runs {n} threads" for lib, n in blas.items() if n != 1]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": threads,
        "blas_threads": blas,
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _git_commit(root),
        "src_sha256": source_digest(src),
        "flags": flags,
    }
