"""Stable config digests: every field change must change the digest."""

from dataclasses import fields, replace

import pytest

from repro._digest import canonicalize, config_digest, stable_digest
from repro.core import AAQConfig, TokenQuantConfig
from repro.gpu import H100
from repro.hardware import LightNobelConfig
from repro.ppm import PPMConfig


#: String fields restricted to a set of values perturb to another member.
STRING_ALTERNATIVES = {"float32": "float64", "float64": "float32"}


def perturb(value):
    """A different-but-valid value of the same type."""
    if value is None:
        return 2  # Optional[int] knobs (chunk sizes): any positive int differs
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.125
    if isinstance(value, str):
        return STRING_ALTERNATIVES.get(value, value + "x")
    raise TypeError(f"no perturbation for {type(value).__name__}")


@pytest.mark.parametrize(
    "config",
    [
        PPMConfig.paper(),
        PPMConfig.tiny(),
        LightNobelConfig.paper(),
        H100,
    ],
    ids=lambda c: type(c).__name__ + getattr(c, "name", ""),
)
def test_digest_changes_when_any_field_changes(config):
    baseline = config.config_digest()
    for field in fields(config):
        changed = replace(config, **{field.name: perturb(getattr(config, field.name))})
        assert changed.config_digest() != baseline, field.name


def test_aaq_digest_changes_per_group_scheme():
    baseline = AAQConfig.paper_optimal()
    digest = baseline.config_digest()
    for group in ("A", "B", "C"):
        changed = baseline.replace_group(group, TokenQuantConfig(inlier_bits=16, outlier_count=7))
        assert changed.config_digest() != digest, group
    assert replace(baseline, weight_bits=8).config_digest() != digest


def test_digest_is_deterministic_for_equal_configs():
    assert PPMConfig.paper().config_digest() == PPMConfig.paper().config_digest()
    rebuilt = replace(PPMConfig.paper())
    assert rebuilt.config_digest() == PPMConfig.paper().config_digest()


def test_digest_namespaced_by_class():
    # Same field document under a different kind must not collide.
    config = PPMConfig.tiny()
    assert stable_digest("PPMConfig", config) != stable_digest("OtherKind", config)
    assert config.config_digest() == stable_digest("PPMConfig", config)


def test_canonicalize_rejects_non_canonical_types():
    with pytest.raises(TypeError):
        canonicalize(object())


def test_canonicalize_sorts_mappings():
    assert canonicalize({"b": 1, "a": 2}) == canonicalize(dict([("a", 2), ("b", 1)]))
    assert config_digest(PPMConfig.tiny()) != config_digest(PPMConfig.small())
