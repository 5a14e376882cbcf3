"""Run manifests: provenance for every recorded scenario run.

A manifest makes an observability artifact directory self-describing —
which spec (by content hash) ran at which seed under which package
version, how long each runner phase took in wall-clock, and the SHA-256
of every artifact written next to it. That is what makes BENCH
trajectories and obs artifacts comparable across PRs: two manifests with
equal ``spec_sha256`` + ``seed`` describe the same experiment, and their
``metrics_sha256`` must match (the determinism contract, byte-compared
in CI).

Wall-clock fields (``created_at``, phase timings) are provenance, not
metrics — they naturally differ between runs; everything derived from
the simulation is deterministic.

``wall.phases`` is a list of ``[name, seconds]`` pairs (schema 2) so
that the sorted-key dump keeps the phases in execution order.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from typing import Any, Dict, Iterable, Tuple

__all__ = [
    "MANIFEST_SCHEMA",
    "build_environment",
    "load_manifest",
    "sha256_bytes",
    "sha256_file",
    "spec_sha256",
    "write_manifest",
]

MANIFEST_SCHEMA = 2
MANIFEST_NAME = "manifest.json"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def spec_sha256(spec) -> str:
    """Content hash of a :class:`~repro.scenarios.spec.ScenarioSpec`:
    canonical JSON of its dict form, so formatting and field order in
    the source TOML never matter."""
    return sha256_bytes(
        json.dumps(spec.to_dict(), sort_keys=True).encode("utf-8")
    )


def build_environment() -> Dict[str, str]:
    """Package/interpreter/platform provenance."""
    from repro import __version__  # late import: repro imports widely

    return {
        "package_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def artifact_entries(
    directory: str, names: Iterable[str]
) -> Tuple[Dict[str, Any], ...]:
    """Hash each named artifact file inside ``directory``."""
    entries = []
    for name in names:
        path = os.path.join(directory, name)
        entries.append(
            {
                "name": name,
                "sha256": sha256_file(path),
                "bytes": os.path.getsize(path),
            }
        )
    return tuple(entries)


def write_manifest(directory: str, manifest: Dict[str, Any]) -> str:
    """Write ``manifest.json`` into ``directory``; returns its path."""
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def load_manifest(path: str) -> Dict[str, Any]:
    """Load a manifest from a file path or an artifact directory."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def created_at() -> float:
    """Wall-clock stamp (seconds since epoch) — provenance only."""
    return time.time()
