"""The PPM contractions are ``np.matmul`` forms of one ``np.einsum`` oracle.

Every contraction of the numpy substrate — the triangular multiplication's
third-axis sum, triangular attention and sequence attention — runs as a
batched ``np.matmul``.  The ``einsum`` spelling of each lives here only, as a
test-side oracle: random small shapes and unit-normal inputs must agree with
it to 1e-12 absolute, dense and chunked (ragged chunks and ``chunk >= N``
included).  A source scan keeps ``einsum`` from coming back into
``repro.ppm`` as a second path.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ppm
from repro.ppm import PPMConfig, SequenceAttention, TriangleAttention, TriangleMultiplication
from repro.ppm.activation_tap import ActivationContext
from repro.ppm.functional import sigmoid, softmax

#: Agreement bar of a matmul form with its einsum oracle.
ATOL = 1e-12

#: Micro configuration: multi-head, tiny widths, cheap to build per example.
_MICRO = PPMConfig(
    pair_dim=8,
    seq_dim=12,
    num_blocks=1,
    num_heads=2,
    head_dim=4,
    triangle_hidden=8,
    transition_factor=2,
    seq_num_heads=3,
    distogram_channels=4,
)

#: ``None`` (dense), ragged tilings and chunks at or beyond the axis length.
_CHUNKS = st.one_of(st.none(), st.integers(min_value=1, max_value=12))
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class _Capture(ActivationContext):
    """Observing identity context that keeps every tapped array by name."""

    def __init__(self) -> None:
        self.taps = {}

    def process(self, name, group, value, out=None):
        self.taps.setdefault(name.rsplit(".", 1)[-1], []).append(value)
        return value


# ------------------------------------------------- triangular multiplication


@given(
    mode=st.sampled_from(["outgoing", "incoming"]),
    dims=st.tuples(*[st.integers(min_value=1, max_value=9)] * 3),
    channels=st.integers(min_value=1, max_value=5),
    chunk=_CHUNKS,
    seed=_SEEDS,
)
@settings(max_examples=60, deadline=None)
def test_triangle_contraction_matches_einsum(mode, dims, channels, chunk, seed):
    """Outgoing ``ikc,jkc->ijc`` and incoming ``kic,kjc->ijc``, dense and tiled."""
    rows, cols, edges = dims
    rng = np.random.default_rng(seed)
    module = TriangleMultiplication(
        _MICRO.with_chunking(triangle_chunk_size=chunk), rng, mode=mode
    )
    if mode == "outgoing":
        a = rng.standard_normal((rows, edges, channels))
        b = rng.standard_normal((cols, edges, channels))
        expected = np.einsum("ikc,jkc->ijc", a, b)
    else:
        a = rng.standard_normal((edges, rows, channels))
        b = rng.standard_normal((edges, cols, channels))
        expected = np.einsum("kic,kjc->ijc", a, b)
    combined = module._contract(a, b)
    assert combined.shape == expected.shape
    np.testing.assert_allclose(combined, expected, rtol=0, atol=ATOL)


# ------------------------------------------------------ triangular attention


@given(
    mode=st.sampled_from(["starting", "ending"]),
    n=st.integers(min_value=1, max_value=10),
    chunk=_CHUNKS,
    seed=_SEEDS,
)
@settings(max_examples=40, deadline=None)
def test_triangle_attention_matches_einsum(mode, n, chunk, seed):
    """Scores ``ihqd,ihkd->ihqk`` and values ``ihqk,ihkd->ihqd`` inside the module.

    An observing context sees the module's own q/k/v/bias and, per query
    block, the normalized weights and the attended values; the oracle
    recomputes both from the observed inputs.
    """
    rng = np.random.default_rng(seed)
    module = TriangleAttention(_MICRO.with_chunking(attn_chunk_size=chunk), rng, mode=mode)
    capture = _Capture()
    module(rng.standard_normal((n, n, _MICRO.pair_dim)), capture)
    taps = capture.taps
    q, k, v, bias = (taps[name][0] for name in ("q", "k", "v", "bias"))

    scores = np.einsum("ihqd,ihkd->ihqk", q, k) / np.sqrt(_MICRO.head_dim)
    weights = softmax(scores + bias.transpose(2, 0, 1)[None], axis=-1)
    attended = np.einsum("ihqk,ihkd->iqhd", weights, v).reshape(n, n, -1)

    np.testing.assert_allclose(
        np.concatenate(taps["attention_weights"], axis=-2), weights, rtol=0, atol=ATOL
    )
    np.testing.assert_allclose(taps["attended"][0], attended, rtol=0, atol=ATOL)


# -------------------------------------------------------- sequence attention


@given(
    n=st.integers(min_value=1, max_value=10),
    chunk=_CHUNKS,
    seed=_SEEDS,
)
@settings(max_examples=40, deadline=None)
def test_sequence_attention_matches_einsum(n, chunk, seed):
    """Scores ``qhd,khd->hqk`` and values ``hqk,khd->qhd``, dense and chunked.

    The output projection is set to the identity, so the module returns the
    gated attended values themselves, at unit scale.
    """
    rng = np.random.default_rng(seed)
    module = SequenceAttention(_MICRO.with_chunking(attn_chunk_size=chunk), rng)
    module.linear_o.weight[...] = np.eye(_MICRO.seq_dim)
    sequence = rng.standard_normal((n, _MICRO.seq_dim))
    pair = rng.standard_normal((n, n, _MICRO.pair_dim))

    heads, head_dim = module.num_heads, module.head_dim
    normalized = module.layer_norm(sequence)
    q, k, v = (
        linear(normalized).reshape(n, heads, head_dim)
        for linear in (module.linear_q, module.linear_k, module.linear_v)
    )
    bias = module.linear_bias(module.pair_norm(pair)).transpose(2, 0, 1)
    scores = np.einsum("qhd,khd->hqk", q, k) / np.sqrt(head_dim)
    weights = softmax(scores + bias, axis=-1)
    attended = np.einsum("hqk,khd->qhd", weights, v).reshape(n, -1)
    expected = attended * sigmoid(module.linear_g(normalized))

    np.testing.assert_allclose(module(sequence, pair), expected, rtol=0, atol=ATOL)


# ------------------------------------------------------------ one code path


def _einsum_outside_docs(source: str) -> list:
    """Line numbers where ``einsum`` occurs in code, not comments or docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                docstrings.add((body[0].lineno, body[0].col_offset))
    lines = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT or "einsum" not in token.string:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.append(token.start[0])
    return lines


def test_scan_flags_code_but_not_docs():
    source = (
        '"""Module doc: einsum."""\n'
        "import numpy as np\n"
        "def f(a):\n"
        '    """Function doc: einsum."""\n'
        "    # comment: einsum\n"
        '    g = getattr(np, "einsum")\n'
        '    return np.einsum("ij->ji", a)\n'
    )
    assert _einsum_outside_docs(source) == [6, 7]


def test_ppm_sources_contain_no_einsum():
    """``repro.ppm`` contracts with ``np.matmul`` only; no einsum fallback."""
    package = Path(repro.ppm.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    offenders = {
        path.name: lines
        for path in sources
        if (lines := _einsum_outside_docs(path.read_text()))
    }
    assert offenders == {}
