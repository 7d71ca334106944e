"""What a benchmark result was measured on.

Numbers from machines whose manifests differ (another BLAS, another core
count, numba present or not) are not comparable with each other.
"""

import hashlib
import importlib.util
import os
import platform


def nproc():
    """CPUs this process may run on; also the BLAS thread cap."""
    return len(os.sched_getaffinity(0))


def blas_thread_env():
    """Environment that caps every BLAS/OpenMP pool at nproc threads."""
    cap = str(nproc())
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {name: cap for name in names}


def _blas_name():
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"
    return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()


def _git_commit(root):
    """HEAD of a git checkout at root, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(root):
    """sha256 over src/specvi's Python files; identifies the code without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "specvi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def collect(root):
    """Manifest of the running interpreter; imports specvi, so call it after timing."""
    import numpy
    import scipy
    from specvi import kernels

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "kernels_backend": kernels.ACTIVE_BACKEND,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }
