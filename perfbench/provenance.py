"""What a run record needs so its numbers can be compared with another's."""

from __future__ import annotations

import glob
import hashlib
import importlib.metadata
import os
import platform
import subprocess

# Pinned to 1 before numpy is imported: one client, no worker threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None  # a plain checkout: source_sha256 identifies the code
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha256(root):
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def _caches():
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [_read(os.path.join(index, f)) for f in ("level", "type", "size")]
        except OSError:
            continue
        out[f"L{fields[0]}-{fields[1].lower()}"] = fields[2]
    return out


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def record(root, args, inputs_sha256):
    import numpy as np

    ld = np.finfo(np.longdouble)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": inputs_sha256,
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": _version("mpmath"),
        "longdouble": {"mantissa_bits": int(ld.nmant) + 1, "storage_bits": int(ld.bits), "eps": float(ld.eps),
                       "x87_80bit": int(ld.nmant) == 63},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }
