"""The backend seam: ``xp`` is the numpy module, bound at import."""

import numpy
import pytest

from repro.nn.backend import xp


class TestRegistry:
    def test_numpy_is_the_default(self):
        """numpy is the one array backend, so ``xp`` is the module."""
        assert xp is numpy
        assert xp.add is numpy.add


class TestProxy:
    def test_missing_attribute_propagates(self):
        with pytest.raises(AttributeError):
            xp.definitely_not_an_array_function
