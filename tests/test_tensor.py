import math

import numpy as np
import pytest

from sweepdecode.sweep import ContractionError, MPSState
from sweepdecode.tensor import DenseTensor


def site_value(mps, k=0):
    return mps.sites[k] * math.exp(mps.log_scale)


class TestDenseTensor:
    def test_immutable_elements(self):
        t = DenseTensor(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            t.elements[0] = 5.0

    def test_caller_writes_through_a_base_do_not_reach_elements(self):
        a = np.ones(4)
        t = DenseTensor(a[:2])
        a[0] = 5.0
        np.testing.assert_array_equal(t.elements, [1.0, 1.0])

    def test_caller_reenabling_writes_does_not_reach_elements(self):
        b = np.ones(3)
        t = DenseTensor(b)
        b.setflags(write=True)
        b[0] = 5.0
        np.testing.assert_array_equal(t.elements, [1.0, 1.0, 1.0])
        assert not t.elements.flags.writeable
        with pytest.raises(ValueError):
            t.elements.setflags(write=True)  # a private copy owns its data

    def test_compares_and_hashes_by_identity(self):
        a, b = DenseTensor(np.ones(2)), DenseTensor(np.ones(2))
        assert a != b and a == a
        assert len({a, b, a}) == 2

    def test_accepts_lists_and_casts(self):
        t = DenseTensor([[1, 2], [3, 4]])
        assert t.elements.dtype == np.float64
        assert t.rank == 2
        assert t.extents == (2, 2)

    def test_c_layout_enforced(self):
        arr = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        t = DenseTensor(arr)
        assert t.elements.flags.c_contiguous


class TestNormalizeScale:
    """``MPSState._normalize_site``, the package's one scale normalisation.

    A site's value is ``elements * exp(log_scale)``, the convention
    ``DenseTensor`` carries too.
    """

    def test_tiny_value_moves_to_log_scale(self):
        mps = MPSState(sites=[np.array([1e-200]).reshape(1, 1, 1)])
        mps._normalize_site(0)
        # ln(1e-200) = -460.517...; a power-of-two shift lands within ln(2)/2
        assert abs(mps.log_scale - math.log(1e-200)) <= math.log(2.0) / 2 + 1e-12
        assert 2 ** -0.5 <= abs(mps.sites[0].item()) <= 2 ** 0.5

    def test_value_preserved(self):
        arr = np.random.default_rng(7).normal(size=(3, 4, 2)) * 3.7
        mps = MPSState(sites=[arr], log_scale=0.25)
        mps._normalize_site(0)
        np.testing.assert_allclose(site_value(mps), arr * math.exp(0.25), rtol=1e-15)

    def test_value_preserved_extreme_scales(self):
        rng = np.random.default_rng(101)
        for scale in (1e-200, 1e-3, 1.0, 1e5, 1e200):
            arr = rng.normal(size=(2, 3, 2)) * scale
            mps = MPSState(sites=[arr], log_scale=0.25)
            mps._normalize_site(0)
            assert 2 ** -0.5 <= np.max(np.abs(mps.sites[0])) <= 2 ** 0.5
            # compared in log space, since the value need not be representable
            want = np.log(np.abs(arr)) + 0.25
            got = np.log(np.abs(mps.sites[0])) + mps.log_scale
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-13)

    def test_elements_rescaled_exactly(self):
        # power-of-two shifts touch only the exponent bits
        for arr in (np.array([0.3, -1.7e12]), np.array([2.5e-200, -1e-201]), np.array([1e200, 3.0])):
            mps = MPSState(sites=[arr.reshape(1, 2, 1)], log_scale=0.25)
            mps._normalize_site(0)
            k = round(math.log2(np.max(np.abs(arr))))
            np.testing.assert_array_equal(mps.sites[0].ravel(), np.ldexp(arr, -k))
            assert mps.log_scale == 0.25 + k * math.log(2.0)

    def test_in_range_untouched(self):
        arr = np.array([0.8, -1.1]).reshape(1, 2, 1)
        mps = MPSState(sites=[arr])
        mps._normalize_site(0)
        assert mps.sites[0] is arr
        assert mps.log_scale == 0.0

    def test_zero_untouched(self):
        arr = np.zeros((1, 2, 1))
        mps = MPSState(sites=[arr], log_scale=0.25)
        mps._normalize_site(0)
        assert mps.sites[0] is arr
        assert mps.log_scale == 0.25

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_site_raises(self, bad):
        mps = MPSState(sites=[np.array([1.0, bad]).reshape(1, 2, 1)])
        with pytest.raises(ContractionError):
            mps._normalize_site(0)
