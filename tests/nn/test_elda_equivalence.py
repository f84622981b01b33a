"""Fused-vs-eager equivalence for ELDA-Net's feature path.

:func:`repro.nn.ops.bi_embedding` (Eq. 2) and
:func:`repro.nn.ops.feature_interaction` (Eqs. 3-6) replace the eager
compositions ``BiDirectionalEmbedding`` and ``FeatureInteractionModule``
were built from; those compositions are the oracles in
tests/nn/oracles.py.  The ops reassociate float work (the affine
embedding, the split compress, the folded diagonal), so they are held
to the oracles by tolerance: the forward and the gradient of every input
and parameter within 1e-10 under float64 and 1e-4 under float32.  The
scenarios cover batch 2 / 3 steps, one step, batch 1, never-observed
routing, the ``bi*`` zero variant and the uniform-attention ablation.
Two more checks pin the routing: one training step must call each op
exactly once, and capture must replay both through native kernels.
"""

import numpy as np
import pytest

from repro.bench import profile
from repro.core.elda_net import ELDANet, build_variant
from repro.core.embedding import BiDirectionalEmbedding
from repro.core.feature_interaction import FeatureInteractionModule
from repro.data import NUM_FEATURES
from repro.nn import Tensor, capture, ops
from repro.nn.dtype import autocast
from repro.nn.losses import bce_with_logits
from tests.nn.oracles import (bi_embedding_reference,
                              feature_interaction_reference)

_TOLS = {np.dtype(np.float64): 1e-10, np.dtype(np.float32): 1e-4}
C, E, D = 5, 4, 3


@pytest.fixture(autouse=True, params=[np.float64, np.float32],
                ids=["float64", "float32"])
def dtype_policy(request):
    with autocast(request.param):
        yield np.dtype(request.param)


@pytest.fixture
def TOL(dtype_policy):
    return _TOLS[dtype_policy]


def _max_diff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


class _ReferenceBiEmbedding(BiDirectionalEmbedding):
    """The production module with its Eq. 2 swapped for the oracle; the
    routing (never-observed, ``*``) is the module's own."""

    def _value_embedding(self, x):
        return bi_embedding_reference(x, self.table_lower,
                                      self.table_upper, self.lower,
                                      self.upper)


def _feature_path(seed, star=False, attention=True):
    """A (production, reference) pair of identically seeded embedding +
    feature-interaction stacks, as one callable each."""
    stacks = []
    for embedding_cls in (BiDirectionalEmbedding, _ReferenceBiEmbedding):
        rng = np.random.default_rng(seed)
        embedding = embedding_cls(C, E, rng, star=star)
        features = FeatureInteractionModule(C, E, D, rng,
                                            use_attention=attention)
        stacks.append((embedding, features))
    (emb, fim), (ref_emb, ref_fim) = stacks

    def fused(x, ever):
        return fim(emb(x, ever_observed=ever))

    def reference(x, ever):
        embedded = ref_emb(x, ever_observed=ever)
        weight = ref_fim.attn_weight if attention else None
        return feature_interaction_reference(embedded, weight,
                                             ref_fim.compress)

    return (fused, (emb, fim)), (reference, (ref_emb, ref_fim))


def _run(path, modules, x, ever, projection):
    """Forward + backward of a fixed random projection of the output;
    returns (out, gradients of the input and every parameter)."""
    for module in modules:
        module.zero_grad()
    xt = Tensor(x, requires_grad=True)
    out = path(xt, ever)
    (out * Tensor(projection)).sum().backward()
    grads = {"x": xt.grad.copy()}
    for label, module in zip(("embedding", "features"), modules):
        grads.update({f"{label}.{name}": p.grad.copy()
                      for name, p in module.named_parameters()
                      if p.grad is not None})
    return out.data.copy(), grads


def _assert_paths_agree(seed, x, ever, tol, star=False, attention=True):
    (fused, mods), (reference, ref_mods) = _feature_path(seed, star,
                                                         attention)
    projection = np.random.default_rng(seed + 1).normal(
        size=x.shape[:2] + (C * D,))
    out, grads = _run(fused, mods, x, ever, projection)
    out_ref, grads_ref = _run(reference, ref_mods, x, ever, projection)
    assert out.shape == out_ref.shape == x.shape[:2] + (C * D,)
    assert _max_diff(out, out_ref) < tol
    assert grads.keys() == grads_ref.keys()
    for name in grads:
        assert _max_diff(grads[name], grads_ref[name]) < tol, name
    return grads


class TestFeaturePathEquivalence:
    """The fused embedding + interaction path against the eager
    compositions, end to end through both modules."""

    @pytest.mark.parametrize("batch,steps", [(2, 3), (2, 1), (1, 4)])
    def test_matches_reference(self, batch, steps, TOL):
        rng = np.random.default_rng(batch * 10 + steps)
        x = rng.normal(size=(batch, steps, C))
        grads = _assert_paths_agree(7, x, None, TOL)
        expected = {"x", "embedding.table_lower", "embedding.table_upper",
                    "features.attn_weight", "features.compress"}
        assert expected <= grads.keys()

    def test_never_observed_routing(self, TOL):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(3, 4, C))
        ever = np.ones((3, C), dtype=bool)
        ever[0, 1] = ever[2, 4] = False
        grads = _assert_paths_agree(8, x, ever, TOL)
        assert np.abs(
            grads["embedding.missing_table"]).max() > 0

    def test_star_variant(self, TOL):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 3, C))
        x[0, 1, 2] = x[1, 0, 0] = 0.0            # exact zeros: all-ones row
        _assert_paths_agree(9, x, None, TOL, star=True)

    def test_uniform_attention_ablation(self, TOL):
        rng = np.random.default_rng(32)
        _assert_paths_agree(10, rng.normal(size=(2, 3, C)), None, TOL,
                            attention=False)


def _op_grads(fn, arrays):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    projection = np.random.default_rng(5).normal(size=out.shape)
    (out * Tensor(projection)).sum().backward()
    return out.data.copy(), [t.grad.copy() for t in tensors]


class TestOpsAgainstOracles:
    """Each op on its own against its oracle, with every input
    differentiated (including the values ``x`` of the embedding)."""

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1)])
    def test_bi_embedding(self, shape, TOL):
        rng = np.random.default_rng(40)
        arrays = [rng.normal(size=shape + (C,)), rng.normal(size=(C, E)),
                  rng.normal(size=(C, E))]
        out, grads = _op_grads(
            lambda x, lo, hi: ops.bi_embedding(x, lo, hi, -2.0, 3.0),
            arrays)
        ref, ref_grads = _op_grads(
            lambda x, lo, hi: bi_embedding_reference(x, lo, hi, -2.0, 3.0),
            arrays)
        assert _max_diff(out, ref) < TOL
        for got, want in zip(grads, ref_grads):
            assert _max_diff(got, want) < TOL

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1)])
    def test_feature_interaction(self, shape, TOL):
        rng = np.random.default_rng(41)
        arrays = [rng.normal(size=shape + (C, E)),
                  rng.normal(size=(C, E)) * 0.5,
                  rng.normal(size=(2 * E, D))]
        out, grads = _op_grads(ops.feature_interaction, arrays)
        ref, ref_grads = _op_grads(feature_interaction_reference, arrays)
        assert _max_diff(out, ref) < TOL
        for got, want in zip(grads, ref_grads):
            assert _max_diff(got, want) < TOL

    def test_rejects_mismatched_shapes(self):
        e = np.zeros((1, 2, C, E))
        with pytest.raises(ValueError, match="feature_interaction shapes"):
            ops.feature_interaction(e, np.zeros((C, E + 1)),
                                    np.zeros((2 * E, D)))
        with pytest.raises(ValueError, match="feature_interaction shapes"):
            ops.feature_interaction(np.zeros((1, 2, 1, E)), None,
                                    np.zeros((2 * E, D)))
        with pytest.raises(ValueError, match="bi_embedding shapes"):
            ops.bi_embedding(np.zeros((1, 2, C)), np.zeros((C, E)),
                             np.zeros((C + 1, E)), -3.0, 3.0)


class TestFusedRouting:
    """One ELDA-Net training step must reach the feature path as the two
    fused nodes: losing either routing (back to an eager composition)
    changes these counts, with no timing involved."""

    def test_training_step_op_counts(self, dtype_policy):
        rng = np.random.default_rng(50)
        model = ELDANet(C, np.random.default_rng(0), embedding_size=E,
                        hidden_size=6, compression=D)
        values = rng.normal(size=(4, 5, C))
        ever = np.ones((4, C), dtype=bool)
        ever[1, 2] = False
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        with profile() as prof:
            logits = model.logits(values, ever_observed=ever)
            bce_with_logits(logits, labels).backward()
        for name in ("bi_embedding", "feature_interaction"):
            assert prof.forward_calls(name) == 1, name
            assert prof.backward_calls(name) == 1, name
        # The time module's softmax and its tail's concat; the feature
        # path itself adds neither.
        assert prof.forward_calls("softmax") == 1
        assert prof.forward_calls("concat") == 1


class TestCaptureKernels:
    """Capture replays both ops through native kernels that read the
    parameters' live arrays, so in-place weight updates reach a graph
    traced before them, bit for bit (tests/nn/test_capture.py covers the
    rest of the capture contract)."""

    @pytest.mark.parametrize("name,overrides", [
        ("ELDA-Net", {}), ("ELDA-Net-Fbi*", {}),
        ("ELDA-Net", {"feature_attention": False})])
    def test_inplace_weight_updates_flow_through(self, name, overrides,
                                                 tiny_dataset):
        model = build_variant(name, NUM_FEATURES, np.random.default_rng(0),
                              embedding_size=4, hidden_size=6, compression=2,
                              **overrides)
        batch = tiny_dataset.subset(np.arange(3))
        graph = capture.trace(model, batch)
        # Only the GRU scan re-runs its eager op; the fused feature ops
        # have kernels of their own.
        fallbacks = [thunk for thunk in graph._thunks
                     if thunk.__qualname__.startswith("_make_fallback")]
        assert len(fallbacks) == 1
        for _, param in model.named_parameters():
            param.data += param.data.dtype.type(0.01)
        assert np.array_equal(model.predict_logits(batch),
                              graph.replay(batch))
