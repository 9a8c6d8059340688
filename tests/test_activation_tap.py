"""Unit tests for activation tap contexts and records."""

import numpy as np
import pytest

from repro.ppm.activation_tap import (
    GROUP_A,
    GROUP_B,
    GROUPS,
    ActivationContext,
    ActivationRecorder,
    TransformingContext,
    summarize_activation,
)


def test_null_context_passes_through(rng):
    ctx = ActivationContext()
    x = rng.normal(size=(4, 8))
    assert ctx.process("x", GROUP_A, x) is x


def test_summarize_activation_statistics():
    value = np.zeros((10, 16))
    value[0, 0] = 100.0  # one extreme outlier in one token
    record = summarize_activation("tap", GROUP_A, value)
    assert record.shape == (10, 16)
    assert record.token_count == 10
    assert record.max_abs == 100.0
    assert record.elements == 160
    assert record.outlier_count_3sigma > 0


def test_recorder_collects_and_groups(rng):
    recorder = ActivationRecorder()
    recorder.process("a1", GROUP_A, rng.normal(size=(5, 8)))
    recorder.process("b1", GROUP_B, rng.normal(size=(5, 8)))
    recorder.process("a2", GROUP_A, rng.normal(size=(5, 8)))
    grouped = recorder.by_group()
    assert len(grouped[GROUP_A]) == 2
    assert len(grouped[GROUP_B]) == 1
    summary = recorder.group_summary()
    assert summary[GROUP_A]["count"] == 2
    recorder.clear()
    assert not recorder.records


def test_recorder_keeps_subsampled_arrays(rng):
    recorder = ActivationRecorder(keep_arrays=True, max_kept_tokens=16)
    recorder.process("big", GROUP_A, rng.normal(size=(100, 8)))
    assert recorder.arrays["big"].shape == (16, 8)


def test_transforming_context_applies_per_group(rng):
    ctx = TransformingContext(transforms={GROUP_A: lambda a: a * 0.0})
    x = rng.normal(size=(3, 4))
    assert np.allclose(ctx.process("x", GROUP_A, x), 0.0)
    assert np.allclose(ctx.process("y", GROUP_B, x), x)


def test_contexts_take_an_offered_buffer(rng):
    x = rng.normal(size=(3, 4))
    calls = []

    def transform(a, out=None):
        calls.append(out)
        return np.multiply(a, 0.0, out=out)

    ctx = TransformingContext(transforms={GROUP_A: transform, GROUP_B: lambda a: a + 1.0})
    assert ActivationContext().process("x", GROUP_A, x, out=x) is x
    assert ActivationRecorder().process("x", GROUP_A, x, out=x) is x
    assert ctx.process("y", GROUP_B, x).tobytes() == (x + 1.0).tobytes()  # one-argument transform
    assert ctx.process("x", GROUP_A, x.copy()) is not x and calls == [None]
    assert ctx.process("x", GROUP_A, x, out=x) is x and calls[-1] is x
    assert not x.any()


def test_transforming_context_with_recorder(rng):
    recorder = ActivationRecorder()
    ctx = TransformingContext(transforms={}, recorder=recorder)
    ctx.process("x", GROUP_A, rng.normal(size=(3, 4)))
    assert len(recorder.records) == 1


def test_groups_constant():
    assert GROUPS == ("A", "B", "C")
