"""Canonical, version-stamped configuration digests.

The report memo of :class:`~repro.sim.session.SimulationSession` and the
service's coalescing keys need a *stable* identity for a configuration
object: equal configs must map to equal keys, and any field change must
change the key.  Digests also name disambiguated backends
(``lightnobel-<digest>``) and are pinned by tests, so they must not move
across processes or Python versions either.  ``hash()`` cannot do
this (it is salted per process), and ``repr()`` is not guaranteed canonical,
so this module serializes dataclass fields to a sorted JSON document and
hashes it with SHA-256.

The module is intentionally dependency-free (stdlib only) so the low-level
config modules (:mod:`repro.ppm.config`, :mod:`repro.hardware.config`,
:mod:`repro.gpu.gpu_config`, :mod:`repro.core.aaq`) can import it without
creating package cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Mapping

#: Bump when the canonical serialization below changes shape (every digest,
#: and so every pinned digest, then moves).
DIGEST_SCHEMA_VERSION = 1

#: Hex characters kept from the SHA-256 digest (64 bits — ample for cache keys).
DIGEST_LENGTH = 16


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to a deterministic, JSON-serializable document.

    Dataclasses become ``{class name, sorted field map}`` (recursively),
    mappings become key-sorted lists of pairs, and sequences become lists.
    Unsupported types raise ``TypeError`` rather than falling back to
    ``repr`` so non-canonical inputs are caught at digest time.
    """
    # Leaves first: they are most of any config, and the Mapping check (an
    # ABC instance check) is the slowest test, so it goes last.
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__class__": type(value).__name__,
            "fields": {
                f.name: canonicalize(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, Mapping):
        return {
            "__mapping__": sorted(
                (str(key), canonicalize(item)) for key, item in value.items()
            )
        }
    raise TypeError(f"cannot canonicalize {type(value).__name__!r} for digesting")


def stable_digest(kind: str, value: Any) -> str:
    """Hex digest of ``value`` under the canonical serialization.

    ``kind`` namespaces the digest (two objects with identical fields but
    different roles must not collide on a cache key).
    """
    document = {
        "schema": DIGEST_SCHEMA_VERSION,
        "kind": kind,
        "value": canonicalize(value),
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:DIGEST_LENGTH]


def config_digest(config: Any) -> str:
    """Digest a configuration dataclass, namespaced by its class name."""
    return stable_digest(type(config).__name__, config)
