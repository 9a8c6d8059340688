"""On-disk cache for simulation reports.

Cross-process companion to :class:`~repro.sim.session.SimulationSession`'s
report memo: a fresh process (a CI step, a later figure run) reads back the
reports any earlier process priced instead of pricing them again.  Operator
tables are not stored: one is a Horner evaluation of the config's fitted
cubics in :mod:`repro.ppm.op_table`, cheaper than reading its pickle.
Entries are pickle files named by a stable config digest
(:mod:`repro._digest`), wrapped in a version-stamped envelope:

* a schema-version mismatch (older/newer code) invalidates the entry,
* a key mismatch (hash collision, renamed file) invalidates the entry,
* a corrupt/truncated pickle invalidates the entry,

where "invalidates" means the file is deleted and treated as a miss — the
cache directory is always safe to delete wholesale.

The default directory is ``$REPRO_SIM_CACHE_DIR`` when set, else
``~/.cache/repro-sim``.  Writes are atomic (temp file + ``os.replace``) so
concurrent processes can share one directory.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from .. import __version__

#: Bump whenever the pickled payload layout changes; older entries then
#: self-invalidate instead of deserializing into garbage.  Entries are also
#: stamped with ``repro.__version__`` so cached reports cannot outlive
#: a release that changes workload-builder or cost-model semantics.  3: reports
#: sum representatives weighted by multiplicity, which moves last-bit floats.
#: 4: a pickled table holds its representatives' numbers, not full-row columns.
#: 5: an accelerator report above the memory model's max_length is out of memory.
CACHE_SCHEMA_VERSION = 5

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_SIM_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_SIM_CACHE_DIR`` if set, else ``~/.cache/repro-sim``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-sim"


class DiskCache:
    """Digest-keyed pickle cache with a version-stamped envelope."""

    def __init__(self, root: Optional[Path | str] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalidations = 0

    # ------------------------------------------------------------------ layout
    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def _invalidate(self, path: Path) -> None:
        self.invalidations += 1
        try:
            path.unlink()
        except OSError:
            pass

    # --------------------------------------------------------------------- api
    def get(self, key: str) -> Optional[Any]:
        """Payload stored under ``key``, or ``None`` on miss/invalid entry."""
        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except Exception:
            self._invalidate(path)
            self.misses += 1
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != CACHE_SCHEMA_VERSION
            or envelope.get("repro_version") != __version__
            or envelope.get("key") != key
            or "payload" not in envelope
        ):
            self._invalidate(path)
            self.misses += 1
            return None
        self.hits += 1
        return envelope["payload"]

    def put(self, key: str, payload: Any) -> None:
        """Atomically store ``payload`` under ``key``."""
        self.root.mkdir(parents=True, exist_ok=True)
        envelope = {
            "version": CACHE_SCHEMA_VERSION,
            "repro_version": __version__,
            "key": key,
            "payload": payload,
        }
        fd, tmp_name = tempfile.mkstemp(
            prefix=f"{key}.", suffix=".tmp", dir=str(self.root)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.writes += 1

    def clear(self) -> int:
        """Delete every cache entry; returns the number of files removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskCache(root={str(self.root)!r}, {self.stats()})"
