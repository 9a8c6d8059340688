"""Unit tests for activation-group classification and the packed memory layout."""

import numpy as np
import pytest

from repro.core import (
    GroupThresholds,
    PackedQuantizedTensor,
    TokenQuantConfig,
    classification_agreement,
    classify_records,
    group_statistics,
    pack_packed_tensor,
    pack_tokens_into_blocks,
    token_layout,
    unpack_packed_tensor,
)
from repro.ppm.activation_tap import GROUP_A, GROUP_B, GROUP_C, ActivationRecord


def make_record(name, group, mean_abs, outliers):
    return ActivationRecord(
        name=name,
        group=group,
        shape=(16, 128),
        mean_abs=mean_abs,
        max_abs=mean_abs * 10,
        std=mean_abs,
        outlier_count_3sigma=outliers,
        token_count=16,
    )


class TestGroupClassification:
    def test_classification_matches_paper_characteristics(self):
        records = [
            make_record("residual", GROUP_A, 82.0, 2.3),
            make_record("post_ln", GROUP_B, 4.0, 1.7),
            make_record("proj", GROUP_C, 3.9, 0.6),
            make_record("proj2", GROUP_C, 3.5, 0.4),
        ]
        predicted = classify_records(records)
        assert predicted["residual"] == GROUP_A
        assert predicted["post_ln"] == GROUP_B
        assert predicted["proj"] == GROUP_C
        assert classification_agreement(records) == 1.0

    def test_group_statistics_ordering(self):
        records = [
            make_record("a", GROUP_A, 80.0, 2.0),
            make_record("b", GROUP_B, 4.0, 1.5),
            make_record("c", GROUP_C, 3.8, 0.5),
        ]
        stats = {s.group: s for s in group_statistics(records)}
        assert stats[GROUP_A].mean_abs > stats[GROUP_B].mean_abs
        assert stats[GROUP_B].outliers_per_token > stats[GROUP_C].outliers_per_token

    def test_empty_records(self):
        assert classify_records([]) == {}
        assert classification_agreement([]) == 1.0
        assert group_statistics([]) == []

    def test_custom_thresholds(self):
        records = [make_record("x", GROUP_B, 10.0, 0.2), make_record("y", GROUP_C, 1.0, 0.1)]
        loose = GroupThresholds(large_value_ratio=1.5, outlier_presence=0.15)
        predicted = classify_records(records, loose)
        assert predicted["x"] == GROUP_A  # 10 > 1.5 * median(5.5)
        assert predicted["y"] == GROUP_C


class TestMemoryLayout:
    def test_token_layout_field_sizes(self):
        config = TokenQuantConfig(inlier_bits=4, outlier_count=4)
        layout = token_layout(config, 128)
        assert layout.inlier_bytes == 124 * 4 / 8
        assert layout.outlier_bytes == 4 * 2
        assert layout.scale_bytes == 2
        assert layout.index_bytes == 4
        assert layout.total_bytes == pytest.approx(config.bytes_per_token(128))
        offsets = layout.field_offsets()
        assert offsets[0] == 0
        assert offsets[1] == layout.inlier_bytes

    def test_block_packing_utilization(self):
        config = TokenQuantConfig(inlier_bits=4, outlier_count=0)
        layout = pack_tokens_into_blocks(num_tokens=100, config=config, hidden_dim=64, channel_bytes=64)
        assert layout.total_bytes >= layout.payload_bytes
        assert 0 < layout.utilization <= 1
        assert sum(len(b.token_indices) for b in layout.blocks) == 100

    def test_large_tokens_span_multiple_beats(self):
        config = TokenQuantConfig(inlier_bits=8, outlier_count=8)
        layout = pack_tokens_into_blocks(num_tokens=4, config=config, hidden_dim=128, channel_bytes=64)
        assert len(layout.blocks) == 4
        assert all(b.capacity_bytes % 64 == 0 for b in layout.blocks)

    def test_invalid_channel_bytes(self):
        with pytest.raises(ValueError):
            pack_tokens_into_blocks(1, TokenQuantConfig(), 128, channel_bytes=0)

    def test_pack_unpack_roundtrip(self, rng):
        tokens = rng.normal(size=(6, 32)) * 5
        config = TokenQuantConfig(inlier_bits=8, outlier_count=2)
        quantized = PackedQuantizedTensor.pack(tokens, config)
        restored = unpack_packed_tensor(pack_packed_tensor(quantized), quantized)
        assert np.array_equal(quantized.unpack(), restored.unpack())
