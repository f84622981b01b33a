"""The repo-wide precision policy (repro.nn.dtype) and the gradient
memory plane it enables.

Covers the policy surface (default/set/autocast/env override), dtype
preservation through forward and backward under float32 — including the
numpy NEP-50 promotion traps (python scalars are weak, numpy scalars
are strong) that silently widen float32 back to float64 — plus the
owned-gradient accumulation semantics and ``backward(free_graph=...)``.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, ops
from repro.nn.dtype import (autocast, get_default_dtype, resolve_dtype,
                            set_default_dtype)
from repro.nn.gradcheck import gradcheck


class TestPolicySurface:
    def test_default_is_float32(self):
        # The engine's compute plane: float32 unless REPRO_DTYPE says
        # otherwise (this suite runs without the override).
        if "REPRO_DTYPE" not in os.environ:
            assert get_default_dtype() == np.float32

    def test_set_returns_previous_and_round_trips(self):
        previous = set_default_dtype(np.float64)
        try:
            assert get_default_dtype() == np.float64
        finally:
            set_default_dtype(previous)
        assert get_default_dtype() == previous

    def test_rejects_non_float_dtypes(self):
        for bad in (np.int64, np.float16, "int32", None):
            with pytest.raises((TypeError, ValueError)):
                set_default_dtype(bad)

    def test_autocast_scopes_and_restores(self):
        before = get_default_dtype()
        with autocast(np.float64):
            assert get_default_dtype() == np.float64
            with autocast(np.float32):
                assert get_default_dtype() == np.float32
            assert get_default_dtype() == np.float64
        assert get_default_dtype() == before

    def test_autocast_restores_on_exception(self):
        before = get_default_dtype()
        with pytest.raises(RuntimeError):
            with autocast(np.float64):
                raise RuntimeError("boom")
        assert get_default_dtype() == before

    def test_resolve_dtype_accepts_names_and_none(self):
        assert resolve_dtype("float64") == np.float64
        assert resolve_dtype(np.float32) == np.float32
        assert resolve_dtype(None) == get_default_dtype()

    def test_env_override_sets_initial_default(self):
        code = ("import repro.nn as nn, numpy as np; "
                "assert nn.get_default_dtype() == np.float64")
        env = dict(os.environ, REPRO_DTYPE="float64",
                   PYTHONPATH="src")
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       cwd=os.path.dirname(os.path.dirname(
                           os.path.dirname(os.path.abspath(__file__)))))


class TestDtypePreservation:
    """Every op keeps float32 float32 — forward data and gradients."""

    @pytest.fixture(autouse=True)
    def float32_policy(self):
        with autocast(np.float32):
            yield

    def _assert_float32_through(self, build, *arrays):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = build(*tensors)
        assert out.dtype == np.float32, "forward widened"
        ops.sum(out).backward()
        for t in tensors:
            assert t.grad.dtype == np.float32, "gradient widened"

    def test_elementwise_chain_stays_float32(self):
        rng = np.random.default_rng(0)
        self._assert_float32_through(
            lambda a, b: ops.tanh(ops.mul(ops.add(a, b), b)),
            rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    # NEP-50 traps: each of these ops internally mixes python/numpy
    # scalars with float32 arrays in a way that numpy >= 2 would widen
    # to float64 if the implementation were careless.
    def test_mean_over_axis(self):
        self._assert_float32_through(
            lambda a: ops.mean(a, axis=0),
            np.random.default_rng(1).normal(size=(4, 3)))

    def test_softmax_cross_entropy(self):
        self._assert_float32_through(
            lambda a: ops.softmax_cross_entropy(a, np.array([0, 2])),
            np.random.default_rng(5).normal(size=(2, 4)))

    def test_losses_bce_with_logits(self):
        from repro.nn.losses import bce_with_logits
        logits = Tensor(np.zeros(6), requires_grad=True)
        loss = bce_with_logits(logits, np.array([0., 1., 0., 1., 1., 0.]),
                               pos_weight=2.0)
        assert loss.dtype == np.float32
        loss.backward()
        assert logits.grad.dtype == np.float32

    def test_init_draws_cast_but_rng_stream_is_policy_invariant(self):
        from repro.nn import init
        w32 = init.glorot_uniform((4, 4), np.random.default_rng(7))
        assert w32.dtype == np.float32
        with autocast(np.float64):
            w64 = init.glorot_uniform((4, 4), np.random.default_rng(7))
        assert w64.dtype == np.float64
        # Same draws: the float32 weights are the float64 ones, cast.
        np.testing.assert_array_equal(w32, w64.astype(np.float32))

    def test_optimizer_moments_follow_parameter_dtype(self):
        param = nn.Parameter(np.ones((3, 3)))
        assert param.data.dtype == np.float32
        optimizer = nn.Adam([param], lr=0.1)
        param.grad = np.ones((3, 3), dtype=np.float32)
        optimizer.step()
        for slot in optimizer._m + optimizer._v:
            assert slot.dtype == np.float32
        assert param.data.dtype == np.float32


class TestGradcheckStaysFloat64:
    def test_gradcheck_green_under_float32_policy(self):
        with autocast(np.float32):
            gradcheck(lambda a: ops.sum(ops.tanh(a)),
                      np.random.default_rng(0).normal(size=(3, 3)))

    def test_check_module_restores_float32_parameters(self):
        from repro.nn.layers import GRUCell
        with autocast(np.float32):
            cell = GRUCell(3, 3, np.random.default_rng(1))
            x = np.random.default_rng(2).normal(size=(4, 3))
            h = np.zeros((4, 3))
            nn.check_module(
                cell, lambda m: ops.sum(ops.mul(m(Tensor(x), Tensor(h)),
                                                m(Tensor(x), Tensor(h)))))
            for _, param in cell.named_parameters():
                assert param.data.dtype == np.float32


class TestOwnedAccumulation:
    """Gradient buffers donated by op closures must never alias a buffer
    another consumer still reads (the diamond-graph hazard)."""

    def test_diamond_graph_gradients_are_correct(self):
        # x feeds two branches that rejoin; both branches accumulate
        # into x, so the first donated buffer must not be corrupted by
        # the second branch's backward.
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        y = ops.add(ops.mul(x, x), ops.exp(x))  # d/dx = 2x + e^x
        ops.sum(y).backward()
        expected = 2 * x.data + np.exp(x.data)
        np.testing.assert_allclose(x.grad, expected, rtol=1e-6)

    def test_shared_input_through_pass_through_ops(self):
        # reshape/transpose hand their incoming grad through as a view;
        # accumulating that view as "owned" would corrupt the sibling.
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a = ops.reshape(x, (3, 2))
        b = ops.transpose(x)
        loss = ops.add(ops.sum(ops.mul(a, a)), ops.sum(b))
        loss.backward()
        np.testing.assert_allclose(x.grad, 2 * x.data + 1.0, rtol=1e-6)

    def test_second_backward_after_free_graph_is_inert(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = ops.sum(ops.mul(x, x))
        loss.backward()  # free_graph=True default releases closures
        first = x.grad.copy()
        loss.backward()  # graph gone: must not double-accumulate
        np.testing.assert_array_equal(x.grad, first)

    def test_free_graph_false_allows_second_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = ops.sum(ops.mul(x, x))
        loss.backward(free_graph=False)
        loss.backward(free_graph=False)
        # Two accumulations: d/dx sum(x*x) = 2x, twice.
        np.testing.assert_allclose(x.grad, 4 * np.ones(3), rtol=1e-6)

    def test_backward_frees_interior_grads(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        mid = ops.tanh(x)
        ops.sum(mid).backward()
        assert mid.grad is None          # interior grads released
        assert x.grad is not None        # leaf grads kept


class TestModuleCasting:
    def test_module_to_casts_parameters_and_grads(self):
        with autocast(np.float32):
            linear = _tiny_module()
        for _, p in linear.named_parameters():
            p.grad = np.zeros_like(p.data)
        linear.to(np.float64)
        for _, p in linear.named_parameters():
            assert p.data.dtype == np.float64
            assert p.grad.dtype == np.float64
        linear.to(np.float32)
        for _, p in linear.named_parameters():
            assert p.data.dtype == np.float32


def _tiny_module():
    from repro.nn.layers import Dense
    return Dense(3, 2, np.random.default_rng(0))
