"""Activation tap points: recording and transforming PPM activations.

The paper's contribution (AAQ) acts on the activations of the Pair
Representation dataflow.  To keep the model code independent of any particular
quantization scheme, every module reports its activations through an
:class:`ActivationContext`.  The default context is a no-op; an
:class:`ActivationRecorder` collects statistics for the analysis experiments
(Fig. 5, Fig. 6c); the quantization contexts in :mod:`repro.ppm.quantized`
fake-quantize the activation, which is how the accuracy experiments
(Fig. 11, Fig. 13) inject quantization error.  A tap whose activation is
scratch offers it as ``out``, and a quantizing context then writes the
quantized values over it instead of allocating a second array.

Activation groups follow Section 4.2 of the paper:

* ``GROUP_A`` — residual-stream activations entering a LayerNorm (large values,
  outliers present, need high precision + outlier handling).
* ``GROUP_B`` — LayerNorm outputs that have not yet passed a linear layer
  (small values, outliers still present).
* ``GROUP_C`` — remaining pair-dataflow activations (small values, few
  outliers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

GROUP_A = "A"
GROUP_B = "B"
GROUP_C = "C"
GROUPS = (GROUP_A, GROUP_B, GROUP_C)


@dataclass
class ActivationRecord:
    """Summary statistics of one activation tensor observed at a tap point."""

    name: str
    group: str
    shape: tuple
    mean_abs: float
    max_abs: float
    std: float
    outlier_count_3sigma: float
    token_count: int

    @property
    def elements(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count


class ActivationContext:
    """Base context: passes activations through unchanged and records nothing."""

    def process(
        self, name: str, group: str, value: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Hook invoked at every tap point; returns the (possibly new) activation.

        ``out``, when given, is a buffer the caller offers for the result
        (it may be ``value`` itself): a context may write its result there
        and return it.  Callers use the returned array either way.
        """
        return value


#: Shared do-nothing context used when the caller does not supply one.
NULL_CONTEXT = ActivationContext()


def _activation_statistics(value: np.ndarray) -> tuple:
    """(token_count, mean_abs, max_abs, std, outliers_per_token) of one tensor.

    Tokens are vectors along the last (channel) axis, as in the paper; the
    3-sigma outlier count is averaged per token.
    """
    flat = value.reshape(-1, value.shape[-1]) if value.ndim >= 2 else value.reshape(1, -1)
    abs_values = np.abs(flat)
    per_token_std = flat.std(axis=-1, keepdims=True)
    per_token_mean = flat.mean(axis=-1, keepdims=True)
    outliers = np.abs(flat - per_token_mean) > 3.0 * np.maximum(per_token_std, 1e-12)
    return (
        int(flat.shape[0]),
        float(abs_values.mean()),
        float(abs_values.max()),
        float(flat.std()),
        float(outliers.sum(axis=-1).mean()),
    )


def summarize_activation(name: str, group: str, value: np.ndarray) -> ActivationRecord:
    """Build an :class:`ActivationRecord` from an activation tensor."""
    token_count, mean_abs, max_abs, std, outliers = _activation_statistics(value)
    return ActivationRecord(
        name=name,
        group=group,
        shape=tuple(value.shape),
        mean_abs=mean_abs,
        max_abs=max_abs,
        std=std,
        outlier_count_3sigma=outliers,
        token_count=token_count,
    )


#: Numeric statistics kept per tap, in buffer column order.
STAT_COLUMNS = ("mean_abs", "max_abs", "std", "outlier_count_3sigma", "token_count")


class ActivationRecorder(ActivationContext):
    """Context that records per-tap statistics (and optionally raw samples).

    Statistics land in a growable numpy buffer (capacity-doubling, columnar)
    rather than a per-tap Python object list: a ``small()``-config run fires
    thousands of taps, and the Fig. 5/6 aggregations consume whole columns.
    :attr:`records` materializes :class:`ActivationRecord` objects on demand
    for the classification APIs that want them.
    """

    _INITIAL_CAPACITY = 256

    def __init__(self, keep_arrays: bool = False, max_kept_tokens: int = 4096) -> None:
        self.keep_arrays = keep_arrays
        self.max_kept_tokens = max_kept_tokens
        self.arrays: Dict[str, np.ndarray] = {}
        self._rng: np.random.Generator = np.random.default_rng(0)
        self._names: List[str] = []
        self._groups: List[str] = []
        self._shapes: List[tuple] = []
        self._stats = np.empty((self._INITIAL_CAPACITY, len(STAT_COLUMNS)), dtype=np.float64)
        self._count = 0
        self._records_cache: Optional[List[ActivationRecord]] = None

    # -------------------------------------------------------------- recording
    def _ensure_capacity(self) -> None:
        if self._count == self._stats.shape[0]:
            grown = np.empty((2 * self._stats.shape[0], len(STAT_COLUMNS)), dtype=np.float64)
            grown[: self._count] = self._stats
            self._stats = grown

    def process(
        self, name: str, group: str, value: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        token_count, mean_abs, max_abs, std, outliers = _activation_statistics(value)
        self._ensure_capacity()
        self._stats[self._count] = (mean_abs, max_abs, std, outliers, token_count)
        self._count += 1
        self._names.append(name)
        self._groups.append(group)
        self._shapes.append(tuple(value.shape))
        self._records_cache = None
        if self.keep_arrays:
            flat = value.reshape(-1, value.shape[-1])
            if flat.shape[0] > self.max_kept_tokens:
                idx = self._rng.choice(flat.shape[0], size=self.max_kept_tokens, replace=False)
                flat = flat[idx]
            self.arrays[name] = np.array(flat, copy=True)
        return value

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return self._count

    def stat_column(self, name: str) -> np.ndarray:
        """Read-only view of one statistic across every recorded tap."""
        column = self._stats[: self._count, STAT_COLUMNS.index(name)]
        column.flags.writeable = False
        return column

    def group_mask(self, group: str) -> np.ndarray:
        return np.array([g == group for g in self._groups], dtype=bool)

    @property
    def records(self) -> List[ActivationRecord]:
        """Per-tap records, materialized lazily from the columnar buffers."""
        if self._records_cache is None:
            stats = self._stats
            self._records_cache = [
                ActivationRecord(
                    name=self._names[i],
                    group=self._groups[i],
                    shape=self._shapes[i],
                    mean_abs=float(stats[i, 0]),
                    max_abs=float(stats[i, 1]),
                    std=float(stats[i, 2]),
                    outlier_count_3sigma=float(stats[i, 3]),
                    token_count=int(stats[i, 4]),
                )
                for i in range(self._count)
            ]
        return self._records_cache

    def by_group(self) -> Dict[str, List[ActivationRecord]]:
        """Group the collected records by activation group."""
        grouped: Dict[str, List[ActivationRecord]] = {g: [] for g in GROUPS}
        for record in self.records:
            grouped.setdefault(record.group, []).append(record)
        return grouped

    def group_summary(self) -> Dict[str, Dict[str, float]]:
        """Average value magnitude and outlier count per group (Fig. 6c).

        Computed directly on the stat buffers — no per-record Python loop.
        """
        ordered = list(GROUPS) + [g for g in dict.fromkeys(self._groups) if g not in GROUPS]
        summary: Dict[str, Dict[str, float]] = {}
        for group in ordered:
            mask = self.group_mask(group)
            if not mask.any():
                continue
            stats = self._stats[: self._count][mask]
            summary[group] = {
                "mean_abs": float(stats[:, 0].mean()),
                "outliers_per_token": float(stats[:, 3].mean()),
                "max_abs": float(stats[:, 1].max()),
                "count": float(stats.shape[0]),
            }
        return summary

    def clear(self) -> None:
        self._names.clear()
        self._groups.clear()
        self._shapes.clear()
        self._count = 0
        self._records_cache = None
        self.arrays.clear()


@dataclass
class TransformingContext(ActivationContext):
    """Context that applies a per-group transformation to every activation.

    ``transforms`` maps group name to a callable; groups without an entry
    pass through unchanged.  A transform is called ``f(array)``, or
    ``f(array, out=buffer)`` at a tap that offers a buffer, and returns the
    transformed array.  The quantization experiments use this with
    fake-quantization callables built from the schemes in :mod:`repro.core`,
    which write into the offered buffer.
    """

    transforms: Dict[str, Callable[..., np.ndarray]] = field(default_factory=dict)
    recorder: Optional[ActivationRecorder] = None

    def process(
        self, name: str, group: str, value: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if self.recorder is not None:
            self.recorder.process(name, group, value)
        transform = self.transforms.get(group)
        if transform is None:
            return value
        if out is None:
            return transform(value)
        return transform(value, out=out)
