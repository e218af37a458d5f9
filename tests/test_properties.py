"""Property tests: validators and canonical forms over generated inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from hvlab.contextuality import canonical_ray  # noqa: E402
from hvlab.hvmodels import chsh_from_wigner  # noqa: E402
from hvlab.qmath import assert_density_operator, assert_state_vector  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, database=None)
components = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
bad_values = st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 0)])


@st.composite
def states(draw):
    dim = draw(st.integers(2, 8))
    re = draw(hnp.arrays(float, dim, elements=components))
    im = draw(hnp.arrays(float, dim, elements=components))
    vec = re + 1j * im
    norm = np.linalg.norm(vec)
    assume(norm > 1e-3)
    return vec / norm


@st.composite
def densities(draw):
    dim = draw(st.integers(2, 4))
    g = draw(hnp.arrays(float, (dim, dim), elements=components)) + 1j * draw(
        hnp.arrays(float, (dim, dim), elements=components)
    )
    rho = g @ g.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-3)
    rho = rho / trace
    return (rho + rho.conj().T) / 2


class TestStateVector:
    @PROPERTY_SETTINGS
    @given(states())
    def test_accepts_unit_vectors(self, psi):
        assert np.array_equal(assert_state_vector(psi), psi)

    @PROPERTY_SETTINGS
    @given(states(), st.data(), bad_values)
    def test_rejects_non_finite(self, psi, data, bad):
        psi = psi.copy()
        psi[data.draw(st.integers(0, len(psi) - 1))] = bad
        with pytest.raises(ValueError):
            assert_state_vector(psi)

    @PROPERTY_SETTINGS
    @given(states(), st.floats(0.0, 10.0).filter(lambda c: abs(c * c - 1.0) > 1e-6))
    def test_rejects_unnormalized(self, psi, scale):
        with pytest.raises(ValueError, match="normalized"):
            assert_state_vector(scale * psi)


class TestDensityOperator:
    @PROPERTY_SETTINGS
    @given(densities())
    def test_accepts_normalized_gram_matrices(self, rho):
        assert np.array_equal(assert_density_operator(rho), rho)

    @PROPERTY_SETTINGS
    @given(densities(), st.data(), bad_values)
    def test_rejects_non_finite(self, rho, data, bad):
        rho = rho.copy()
        i = data.draw(st.integers(0, rho.shape[0] - 1))
        j = data.draw(st.integers(0, rho.shape[0] - 1))
        rho[i, j] = bad
        with pytest.raises(ValueError):
            assert_density_operator(rho)

    @PROPERTY_SETTINGS
    @given(densities(), st.floats(0.0, 10.0).filter(lambda c: abs(c - 1.0) > 1e-6))
    def test_rejects_wrong_trace(self, rho, scale):
        with pytest.raises(ValueError, match="trace"):
            assert_density_operator(scale * rho)


vectors3 = hnp.arrays(float, 3, elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


class TestCanonicalRay:
    @PROPERTY_SETTINGS
    @given(vectors3)
    def test_unit_idempotent_and_antipode_invariant(self, v):
        try:
            ray = canonical_ray(v)
        except ValueError:
            # only vectors whose squared length underflows may be rejected
            assert np.linalg.norm(v) < 1.5e-154
            return
        assert abs(np.linalg.norm(ray) - 1.0) <= 1e-15
        assert np.allclose(canonical_ray(ray), ray, rtol=0, atol=1e-15)
        assert np.array_equal(canonical_ray(-v), ray)

    @PROPERTY_SETTINGS
    @given(vectors3, st.integers(0, 2), st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_rejects_non_finite(self, v, index, bad):
        v = v.copy()
        v[index] = bad
        with pytest.raises(ValueError, match="finite"):
            canonical_ray(v)

    @pytest.mark.parametrize("v", [np.zeros(3), [1e-200, 0, 0], [7e-160, 7e-160, 7e-160]])
    def test_rejects_zero_and_underflowing(self, v):
        with pytest.raises(ValueError, match="at least"):
            canonical_ray(v)


@st.composite
def weight_batches(draw):
    k = draw(st.integers(1, 20))
    w = draw(hnp.arrays(float, (k, 16), elements=st.floats(0.0, 1.0)))
    totals = w.sum(axis=1, keepdims=True)
    assume(np.all(totals > 0))
    w = w / totals
    return w.reshape(k, 2, 2, 2, 2) if draw(st.booleans()) else w


class TestJointWeights:
    @PROPERTY_SETTINGS
    @given(weight_batches())
    def test_chsh_never_exceeds_two(self, w):
        s = chsh_from_wigner(w)
        assert s.shape == w.shape[:1]
        assert np.all(s <= 2.0 + 1e-12)
