"""Reference checks for the two hot loops: the Lindley fold behind the
Monte Carlo paths and the convolution recursion behind M_n(lambda)."""

import numpy as np
import pytest

from cusumkit import moments, simulate


@pytest.fixture(scope="module")
def increments():
    return np.random.default_rng(0).normal(-0.2, 1.0, size=(64, 48))


class TestLindleyKernel:
    def test_numpy_path_reference_values(self, increments):
        wf, wm = simulate.lindley_block(increments)
        # scalar re-trace of the first replication
        w, m = 0.0, 0.0
        for y in increments[0]:
            w = max(w + y, 0.0)
            m = max(m, w)
        assert wf[0] == w and wm[0] == m

    def test_zero_columns(self):
        wf, wm = simulate.lindley_block(np.zeros((3, 5)))
        np.testing.assert_array_equal(wf, 0.0)
        np.testing.assert_array_equal(wm, 0.0)


class TestConvolutionKernel:
    def test_empty_input(self):
        out = moments.convolution_recursion(np.empty(0))
        np.testing.assert_array_equal(out, [1.0])
