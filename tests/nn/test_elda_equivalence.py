"""Fused-vs-eager equivalence for ELDA-Net's feature path.

:func:`repro.nn.ops.affine_embedding` (Eq. 2 with the never-observed
and ``*`` routings) and :func:`repro.nn.ops.feature_interaction`
(Eqs. 3-6) replace the eager compositions the embedding modules and
``FeatureInteractionModule`` were built from; those compositions are
the oracles in tests/nn/oracles.py.  The ops reassociate float work
(the affine embedding, the split compress, the folded diagonal, the
tiled attention-weight reduction), so they are held to the oracles by
tolerance: the forward and the gradient of every input and parameter
within 1e-10 under float64 and 1e-4 under float32.  The scenarios cover
batch 2 / 3 steps, one step, batch 1, never-observed routing, the
``bi*`` / ``fm*`` zero variants, the FM embedding, the uniform-attention
ablation, and lead sizes on both sides of the interaction's tile
boundaries.  One more check pins the routing: one training step must
call each op exactly once with nothing else on the ``(B, T, C, e)``
slab.
"""

import numpy as np
import pytest

from repro.bench import profile
from repro.core.elda_net import build_variant
from repro.core.embedding import BiDirectionalEmbedding, build_embedding
from repro.core.feature_interaction import FeatureInteractionModule
from repro.nn import Tensor, no_grad, ops
from repro.nn.dtype import autocast
from repro.nn.losses import bce_with_logits
from tests.nn.oracles import (bi_embedding_reference,
                              embedding_routing_reference,
                              feature_interaction_reference,
                              fm_embedding_reference)

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


def _embedding_reference(module, x, ever):
    """The embedding module's output from the oracles, on its own
    tables."""
    if isinstance(module, BiDirectionalEmbedding):
        embedded = bi_embedding_reference(x, module.table_lower,
                                          module.table_upper, module.lower,
                                          module.upper)
    else:
        embedded = fm_embedding_reference(x, module.table)
    return embedding_routing_reference(embedded, x, ever,
                                       module.missing_table, module.star)


def _feature_path(seed, kind="bi", attention=True):
    """A (production, reference) pair of identically seeded embedding +
    feature-interaction stacks, as one callable each."""
    stacks = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        embedding = build_embedding(kind, C, E, rng)
        features = FeatureInteractionModule(C, E, D, rng,
                                            use_attention=attention)
        stacks.append((embedding, features))
    (emb, fim), (ref_emb, ref_fim) = stacks

    def fused(x, ever):
        return fim(emb(x, ever_observed=ever))

    def reference(x, ever):
        embedded = _embedding_reference(ref_emb, x, ever)
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


def _assert_paths_agree(seed, x, ever, tol, kind="bi", attention=True):
    (fused, mods), (reference, ref_mods) = _feature_path(seed, kind,
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
        _assert_paths_agree(9, x, None, TOL, kind="bi*")

    @pytest.mark.parametrize("kind", ["bi*", "fm", "fm*"])
    def test_routed_embedding_variants(self, kind, TOL):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 3, C))
        x[0, 1, 2] = x[1, 0, 0] = 0.0            # exact zeros: all-ones row
        ever = np.ones((2, C), dtype=bool)
        ever[1, 3] = False
        grads = _assert_paths_agree(9, x, ever, TOL, kind=kind)
        assert np.abs(grads["embedding.missing_table"]).max() > 0

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

    @pytest.mark.parametrize("kind", ["bi", "bi*", "fm", "fm*"])
    @pytest.mark.parametrize("shape", [(2, 3), (1, 1)])
    def test_affine_embedding(self, kind, shape, TOL):
        """The node against Eq. 2 (or the FM product) and the routing
        compositions, never-observed features and exact zeros
        included."""
        rng = np.random.default_rng(40)
        x = rng.normal(size=shape + (C,))
        x.flat[::3] = 0.0                         # exact zeros
        ever = np.ones((shape[0], C), dtype=bool)
        ever[0, 1] = False
        star = kind.endswith("*")
        tables = [rng.normal(size=(C, E)) for _ in range(3)]
        if kind.startswith("bi"):
            def node(x, lo, hi, missing):
                slope = (lo - hi) / 5.0
                intercept = (hi * 3.0 - lo * -2.0) / 5.0
                return ops.affine_embedding(x, slope, intercept, ever,
                                            missing, star=star)

            def reference(x, lo, hi, missing):
                embedded = bi_embedding_reference(x, lo, hi, -2.0, 3.0)
                return embedding_routing_reference(embedded, x, ever,
                                                   missing, star)
        else:
            tables = tables[1:]

            def node(x, table, missing):
                return ops.affine_embedding(x, table, None, ever, missing,
                                            star=star)

            def reference(x, table, missing):
                embedded = fm_embedding_reference(x, table)
                return embedding_routing_reference(embedded, x, ever,
                                                   missing, star)
        arrays = [x] + tables
        out, grads = _op_grads(node, arrays)
        ref, ref_grads = _op_grads(reference, arrays)
        assert _max_diff(out, ref) < TOL
        for got, want in zip(grads, ref_grads):
            assert _max_diff(got, want) < TOL
        assert np.abs(grads[-1]).max() > 0       # the missing table learns

    def test_routing_values_are_exact_copies(self):
        """The routed rows are the missing table and ones bit for bit,
        and every other row is the plain affine product."""
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 4, C))
        x[1, 2, 0] = 0.0
        ever = np.ones((3, C), dtype=bool)
        ever[2, 4] = False
        slope, intercept, missing = (rng.normal(size=(C, E))
                                     for _ in range(3))
        out = ops.affine_embedding(x, slope, intercept, ever, missing,
                                   star=True).data
        plain = ops.affine_embedding(x, slope, intercept).data
        assert np.array_equal(out[1, 2, 0], np.ones(E, dtype=out.dtype))
        assert all(np.array_equal(out[2, t, 4],
                                  missing[4].astype(out.dtype))
                   for t in range(4))
        routed = np.zeros(x.shape, dtype=bool)
        routed[1, 2, 0] = routed[2, :, 4] = True
        assert np.array_equal(out[~routed], plain[~routed])

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
        with pytest.raises(ValueError, match="affine_embedding shapes"):
            ops.affine_embedding(np.zeros((1, 2, C)), np.zeros((C, E)),
                                 np.zeros((C + 1, E)))
        with pytest.raises(ValueError, match="affine_embedding shapes"):
            ops.affine_embedding(np.zeros((1, 2, C)), np.zeros((C, E)),
                                 None, np.ones((2, C), dtype=bool),
                                 np.zeros((C, E)))


_TILE = ops._INTERACTION_TILE


class TestInteractionTiles:
    """``feature_interaction`` walks the flattened lead axis in tiles of
    ``_INTERACTION_TILE`` rows; lead sizes on both sides of each tile
    boundary must agree with the oracle, and the tile paths (grad,
    no-grad, retained graph) with each other."""

    LEADS = [1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1]

    @staticmethod
    def _arrays(lead, seed):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(1, lead, C, E)),
                rng.normal(size=(C, E)) * 0.5,
                rng.normal(size=(2 * E, D))]

    @pytest.mark.parametrize("attention", [True, False],
                             ids=["attention", "uniform"])
    @pytest.mark.parametrize("lead", LEADS)
    def test_matches_oracle(self, lead, attention, TOL):
        embedded, weight, compress = self._arrays(lead, lead)
        if attention:
            fn, ref_fn = ops.feature_interaction, feature_interaction_reference
            arrays = [embedded, weight, compress]
        else:
            def fn(e, p):
                return ops.feature_interaction(e, None, p)

            def ref_fn(e, p):
                return feature_interaction_reference(e, None, p)
            arrays = [embedded, compress]
        out, grads = _op_grads(fn, arrays)
        ref, ref_grads = _op_grads(ref_fn, arrays)
        assert _max_diff(out, ref) < TOL
        for got, want in zip(grads, ref_grads):
            assert _max_diff(got, want) < TOL

    @pytest.mark.parametrize("attention", [True, False],
                             ids=["attention", "uniform"])
    @pytest.mark.parametrize("lead", LEADS)
    def test_no_grad_forward_is_bit_equal(self, lead, attention):
        embedded, weight, compress = self._arrays(lead, 100 + lead)
        weight = weight if attention else None
        recorded = ops.feature_interaction(
            Tensor(embedded, requires_grad=True), weight, compress)
        with no_grad():
            plain = ops.feature_interaction(embedded, weight, compress)
        assert recorded.requires_grad and not plain.requires_grad
        assert np.array_equal(recorded.data, plain.data)

    @pytest.mark.parametrize("attention", [True, False],
                             ids=["attention", "uniform"])
    def test_retained_graph_backward_twice(self, attention):
        """The backward only reads the kept slabs, so a retained graph
        differentiated twice gives the same gradients both times."""
        embedded, weight, compress = self._arrays(2 * _TILE + 1, 7)
        tensors = [Tensor(a, requires_grad=True)
                   for a in ([embedded, weight, compress] if attention
                             else [embedded, compress])]
        out = ops.feature_interaction(tensors[0],
                                      tensors[1] if attention else None,
                                      tensors[-1])
        grad = np.random.default_rng(8).normal(size=out.shape)
        rounds = []
        for _ in range(2):
            for t in tensors:
                t.zero_grad()
            out.backward(grad, free_graph=False)
            rounds.append([t.grad.copy() for t in tensors])
        for first, second in zip(*rounds):
            assert np.array_equal(first, second)


#: The five variants that run the feature module.
FEATURE_VARIANTS = ["ELDA-Net", "ELDA-Net-Fbi", "ELDA-Net-Fbi*",
                    "ELDA-Net-Ffm", "ELDA-Net-Ffm*"]


class TestFusedRouting:
    """One training step of every feature-module variant must reach the
    feature path as the two fused nodes, and nothing else may run on the
    ``(B, T, C, e)`` slab: losing either routing (back to an eager
    composition) changes these counts, with no timing involved."""

    @pytest.mark.parametrize("name", FEATURE_VARIANTS)
    def test_training_step_op_counts(self, name, dtype_policy):
        rng = np.random.default_rng(50)
        model = build_variant(name, C, np.random.default_rng(0),
                              embedding_size=E, hidden_size=6,
                              compression=D)
        values = rng.normal(size=(4, 5, C))
        values[0, 1, 2] = values[3, 4, 0] = 0.0
        ever = np.ones((4, C), dtype=bool)
        ever[1, 2] = False
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        with profile() as prof:
            logits = model.logits(values, ever_observed=ever)
            bce_with_logits(logits, labels).backward()
        for op in ("affine_embedding", "feature_interaction"):
            assert prof.forward_calls(op) == 1, op
            assert prof.backward_calls(op) == 1, op
        slab = 4 * 5 * C * E * dtype_policy.itemsize
        on_slab = {op for op, stat in prof.stats.items()
                   if stat.forward_bytes >= slab
                   or stat.backward_bytes >= slab}
        assert on_slab == {"affine_embedding"}
        # The time module's softmax and its tail's concat; the feature
        # path itself adds neither.
        expected = 1 if model.use_time_module else 0
        assert prof.forward_calls("softmax") == expected
        assert prof.forward_calls("concat") == expected
