"""Output checks, committed reference digests and machine facts.

A run (one ``run_single`` or one CLI invocation) counts as failed when any
of its checks fails. The reference for a (workload, seed) is the digest in
``reference.json`` when this machine's arithmetic fingerprint matches the
one the digests were made on. On another fingerprint the bits may differ, so
each record's test accuracy is checked instead against the committed one,
within ``ACCURACY_TOLERANCE``. Every later run is also checked against the
first result of the same inputs in this process.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
ACCURACY_TOLERANCE = 0.01


def comparable(record) -> dict:
    """A record as a dict without its one non-deterministic field."""
    d = record.to_dict()
    d.pop("wall_clock_seconds")
    return d


def digest(records) -> str:
    """Digest of every record but its wall-clock time: identity, test
    accuracy, per-class AUC and the per-epoch losses and attention weights,
    so that any change to the arithmetic shows."""
    rows = [comparable(r) for r in records]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


class Checker:
    """Counts attempted and failed runs and keeps the first problems seen."""

    def __init__(self, reference: dict | None):
        """``reference``: ``{"digest": ...}`` or ``{"test_accuracy": [...]}``
        (one value per record) or None."""
        self.reference = reference or {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def check_reference(self, records) -> list[str]:
        """The first records of the run against the committed reference."""
        if "digest" in self.reference:
            want = self.reference["digest"]
            return ([] if digest(records) == want else
                    [f"records digest {digest(records)} differs from the committed "
                     f"reference {want}"])
        if "test_accuracy" in self.reference:
            want = self.reference["test_accuracy"]
            got = [r.test_accuracy for r in records]
            if len(got) != len(want):
                return [f"{len(got)} records, reference has {len(want)}"]
            return [f"record {i}: test accuracy {g:.4f}, reference {e:.4f}"
                    for i, (g, e) in enumerate(zip(got, want))
                    if abs(g - e) > ACCURACY_TOLERANCE]
        return []

    @staticmethod
    def check_same(records, expected: list[dict], what: str) -> list[str]:
        got = [comparable(r) for r in records]
        if len(got) != len(expected):
            return [f"{what}: {len(got)} records, expected {len(expected)}"]
        return [f"{what}: record {i} ({e['tag']} {e['method']} seed {e['seed']}) differs"
                for i, (g, e) in enumerate(zip(got, expected)) if g != e]

    @property
    def share_passed(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _openblas():
    """The OpenBLAS library numpy loaded, found through this process's maps."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, (None, None)
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_config{suffix}", None)
                if fn is not None:
                    return lib, (prefix, suffix)
    return None, (None, None)


def blas_runtime() -> dict:
    lib, (prefix, suffix) = _openblas()
    if lib is None:
        return {"config": None, "threads": None}
    config = getattr(lib, f"{prefix}get_config{suffix}")
    config.restype = ctypes.c_char_p
    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
    threads.restype = ctypes.c_int
    return {"config": config().decode().strip(), "threads": int(threads())}


def fingerprint() -> dict:
    """What decides the bits of a result on this machine: numpy, the BLAS
    build and kernel it picked, its thread count and the SIMD dispatch."""
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found", [])
    blas = blas_runtime()
    return {"numpy": np.__version__, "blas": blas["config"], "blas_threads": blas["threads"],
            "simd": list(simd)}


def load_reference(name: str, seed: int) -> tuple[dict | None, str]:
    """(reference for ``Checker``, where it comes from)."""
    try:
        ref = json.loads(REFERENCE_FILE.read_text())
    except (OSError, ValueError):
        return None, "self: no reference file"
    digest_ = ref.get("digests", {}).get(name, {}).get(str(seed))
    accuracy = ref.get("test_accuracy", {}).get(name, {}).get(str(seed))
    if digest_ is None or accuracy is None:
        return None, "self: seed not in reference.json"
    if ref.get("fingerprint") != fingerprint():
        return ({"test_accuracy": accuracy},
                f"reference.json test accuracy within {ACCURACY_TOLERANCE}: "
                "machine fingerprint differs")
    return {"digest": digest_}, "reference.json digest"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "labelattn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    """HEAD of the checkout's own repository; None in a plain source tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts(pinned: dict) -> dict:
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = blas_runtime()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": f"{build.get('name')} {build.get('version')}",
        "blas_runtime": blas["config"],
        "blas_threads": blas["threads"],
        "pinned_env": pinned,
        "commit": commit(),
        "source_digest": source_digest(),
    }
