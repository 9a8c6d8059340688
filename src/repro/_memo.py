"""One bounded, process-wide memo of values derived from configuration values.

Services, sessions and simulators are often built afresh for work they have
done before: every ``dse-sweep`` pass opens a new ``LatencyService``, whose
session builds new accelerators for the same grid of hardware configs.  What
they derive from an equal config is equal, so it is memoized here by the
config's value, once per process, rather than once per object:

* a backend spec's coalescing key (``repro.serving.service``) and a
  backend's config digest (``repro.sim.backend``);
* an accelerator's per-group engine constants, per hardware, PPM and AAQ
  config (``repro.hardware.accelerator``);
* the longest sequence that fits, per resident set, PPM config, capacity
  and AAQ config (``repro.ppm.memory.max_length``).

Callers namespace their keys with a leading string.  Keys are compared by
value, so they must be hashable configuration values (frozen dataclasses,
strings, tuples of them); an unhashable key is computed afresh on every call.
Lookups take no lock; an insertion does, and evicts the oldest entry once the
memo holds :data:`CONFIG_MEMO_LIMIT`.  Two threads missing the same key at
once may both build it; either value is kept, and they are equal.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict

#: Entries :data:`CONFIG_MEMO` holds before it evicts its oldest.
CONFIG_MEMO_LIMIT = 4096

_MISSING = object()


class ConfigMemo:
    """A bounded memo keyed by hashable value, oldest entry evicted first."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = limit
        self._entries: Dict[Any, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: Any, build: Callable[..., Any], *args: Any) -> Any:
        """The value memoized under ``key``, or ``build(*args)``, memoized."""
        try:
            value = self._entries.get(key, _MISSING)
        except TypeError:  # unhashable: built afresh
            return build(*args)
        if value is _MISSING:
            value = build(*args)
            with self._lock:
                while len(self._entries) >= self.limit:
                    del self._entries[next(iter(self._entries))]
                self._entries[key] = value
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: The process's one config-value memo.
CONFIG_MEMO = ConfigMemo(CONFIG_MEMO_LIMIT)
