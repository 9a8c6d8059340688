"""The engines are the backends: names, digests and spec resolution.

``LightNobelAccelerator`` and ``GPUModel`` implement ``LatencyBackend``
themselves, and ``create_backend`` resolves every spec to one of them (or to
a composed backend such as a multi-chip node).  A backend's
``config_digest`` keys the session memo and every digest-derived backend
name, so the digests are pinned here.
"""

import inspect
import re

import pytest

from repro.cluster import MultiChipVariant
from repro.gpu import GPUModel
from repro.hardware import LightNobelAccelerator, LightNobelConfig
from repro.ppm import PPMConfig
from repro.sim import AcceleratorVariant, LatencyBackend, available_backends, create_backend

#: ``create_backend(spec, PPMConfig.tiny()).config_digest()`` per spec.
PINNED_DIGESTS = [
    ("lightnobel", "915d6841ffe926ba"),
    ("h100", "67f80825cd68192e"),
    ("h100-chunk", "0808b736f2bca764"),
    ("a100-chunk", "49f1b90a5d065a97"),
    (AcceleratorVariant(tokenwise_mha=False), "49bf0a142f09de14"),
    (LightNobelConfig(num_rmpus=16, vvpus_per_rmpu=4), "48202a019726e661"),
    (MultiChipVariant("lightnobel", 4), "ed7f58be1dfc8839"),
]


@pytest.mark.parametrize(
    "spec, digest", PINNED_DIGESTS, ids=[type(s).__name__ + ":" + d for s, d in PINNED_DIGESTS]
)
def test_backend_digests_are_pinned(spec, digest):
    assert create_backend(spec, PPMConfig.tiny()).config_digest() == digest


class TestEnginesAreBackends:
    def test_engines_implement_the_protocol(self):
        assert isinstance(LightNobelAccelerator(), LatencyBackend)
        assert isinstance(GPUModel("H100"), LatencyBackend)

    def test_names_resolve_to_the_engines(self):
        config = PPMConfig.tiny()
        assert available_backends() == ("a100", "a100-chunk", "h100", "h100-chunk", "lightnobel")
        for name in available_backends():
            backend = create_backend(name.upper(), config)
            engine = LightNobelAccelerator if name == "lightnobel" else GPUModel
            assert type(backend) is engine
            assert backend.name == name
            assert backend.ppm_config is config
        assert create_backend("h100-chunk", config).chunked
        assert not create_backend("h100", config).chunked

    def test_an_engine_resolves_to_itself(self):
        engine = GPUModel("A100", chunked=True, name="a100-mine")
        assert create_backend(engine) is engine
        assert engine.name == "a100-mine"

    def test_unknown_name_lists_the_names(self):
        message = (
            "unknown backend 'tpu-chunk'; expected one of "
            "('a100', 'a100-chunk', 'h100', 'h100-chunk', 'lightnobel')"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            create_backend("tpu-chunk")

    def test_chunking_is_fixed_at_construction(self):
        for name, method in inspect.getmembers(GPUModel, inspect.isfunction):
            if name != "__init__":
                assert "chunked" not in inspect.signature(method).parameters, name

    def test_out_of_memory_is_past_max_length(self):
        config = PPMConfig.tiny()
        for engine in (LightNobelAccelerator(ppm_config=config), GPUModel(ppm_config=config)):
            n = engine.max_length
            assert [r.out_of_memory for r in (engine.simulate(n), engine.simulate(n + 1))] == [
                False,
                True,
            ]
