"""LightNobel reproduction library.

Reproduces "LightNobel: Improving Sequence Length Limitation in Protein
Structure Prediction Model via Adaptive Activation Quantization" (ISCA 2025):
the Token-wise Adaptive Activation Quantization (AAQ) algorithm, an
ESMFold-like Protein Structure Prediction Model substrate, the LightNobel
accelerator simulator, GPU baseline models, and the paper's full evaluation
suite.

Sub-packages
------------
``repro.core``
    AAQ and baseline quantization schemes (the paper's contribution).
``repro.ppm``
    Numpy ESMFold-like folding trunk with activation tap points.
``repro.proteins`` / ``repro.metrics``
    Synthetic protein/dataset substrate and structure-quality metrics.
``repro.hardware`` / ``repro.gpu``
    LightNobel accelerator simulator and A100/H100 analytical baselines.
``repro.sim``
    Unified simulation-backend layer: every latency number flows through a
    :class:`~repro.sim.session.SimulationSession` (stacked batch API,
    backend registry, on-disk table/report cache keyed by stable config
    digests — see the :mod:`repro.sim` docstring for usage).
``repro.serving``
    Latency/capacity query service over ``repro.sim``: request queue,
    coalescing of duplicate in-flight queries, stacked in-process pricing
    and service-level stats (see the :mod:`repro.serving` docstring for usage).
``repro.analysis``
    Cost models, activation statistics and design-space exploration.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
