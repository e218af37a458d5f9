"""Per-call validation decides as its plain form does: the unit-setting window against the sqrt rule,
the density-operator check against a copy of its two-pass form, and the kept reconstruction basis."""

import math

import numpy as np
import pytest

from hvlab import kernels
from hvlab.ensembles import (
    BASIS_MEMO_DIMS, ExpectationOracle, _read_only_basis, basis_observables, oracle_from_density, reconstruct_density,
)
from hvlab.qmath import assert_density_operator, random_density

TAU_EQ, TAU_PSD = 1e-10, 1e-9


def sqrt_rule(v):
    """A direction's verdict by |sqrt(x*x + y*y + z*z) - 1| <= TAU_EQ: None, or the rejection message."""
    x, y, z = map(float, v)
    norm = math.sqrt(x * x + y * y + z * z)
    return None if abs(norm - 1.0) <= TAU_EQ else f"setting must be a unit vector, |v| = {norm}"


def verdict(v):
    """`kernels._unit_floats`' verdict on one direction: None, or its message."""
    try:
        kernels._unit_floats(v)
    except ValueError as exc:
        return str(exc)
    return None


def with_norm_sq(s):
    """A direction (x, y, 0) whose x*x + y*y + 0*0 is the float s exactly."""
    x = math.sqrt(s)
    for _ in range(20):
        x = math.nextafter(x, 0.0)
    for _ in range(40):
        y = math.sqrt(max(s - x * x, 0.0))
        for y in (y, math.nextafter(y, 0.0), math.nextafter(y, 1.0)):
            if x * x + y * y + 0.0 * 0.0 == s:
                return x, y, 0.0
        x = math.nextafter(x, 2.0)
    raise AssertionError(f"no direction found with squared norm {s!r}")


class TestUnitWindow:
    def test_window_ends_are_where_the_sqrt_rule_stops(self):
        lo, hi = kernels._UNIT_SQ_LO, kernels._UNIT_SQ_HI
        accepts = lambda s: abs(math.sqrt(s) - 1.0) <= TAU_EQ  # noqa: E731
        assert accepts(lo) and accepts(hi) and lo < 1.0 < hi
        assert not accepts(math.nextafter(lo, 0.0)) and not accepts(math.nextafter(hi, 2.0))
        assert accepts(math.nextafter(lo, 1.0)) and accepts(math.nextafter(hi, 1.0))

    def test_directions_at_the_window_ends_and_their_neighbours(self):
        for end in (kernels._UNIT_SQ_LO, kernels._UNIT_SQ_HI):
            for s in (math.nextafter(end, 0.0), end, math.nextafter(end, 2.0)):
                v = with_norm_sq(s)
                assert verdict(v) == sqrt_rule(v), (s, v)
        assert verdict(with_norm_sq(kernels._UNIT_SQ_LO)) is None
        assert verdict(with_norm_sq(math.nextafter(kernels._UNIT_SQ_HI, 2.0))) is not None

    def test_directions_within_1e_9_of_unit_length(self):
        rng = np.random.default_rng(2401)
        lengths = 1.0 + rng.uniform(-1e-9, 1e-9, size=100_000)
        directions = rng.normal(size=(100_000, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        vectors = [tuple(r * c for c in d) for r, d in zip(lengths.tolist(), directions.tolist())]
        # and every float on the x axis within 20,000 steps of each edge, 1 -+ TAU_EQ
        for edge in (1.0 - TAU_EQ, 1.0 + TAU_EQ):
            x = edge
            for _ in range(20_000):
                x = math.nextafter(x, 0.0)
            for _ in range(40_000):
                vectors.append((x, 0.0, 0.0))
                x = math.nextafter(x, 2.0)
        assert len(vectors) == 180_000
        mismatched = [v for v in vectors if verdict(v) != sqrt_rule(v)]
        assert mismatched == []
        assert {verdict(v) is None for v in vectors} == {True, False}

    @pytest.mark.parametrize(
        "v",
        [
            (math.nan, 0.0, 0.0), (0.0, math.nan, 1.0), (math.inf, 0.0, 0.0), (-math.inf, 0.0, 0.0),
            (math.inf, math.nan, 0.0), (1e200, 0.0, 0.0), (1e155, 1e155, 1e155), (1.7976931348623157e308, 0.0, 0.0),
            (0.0, 0.0, 0.0), (1e-200, 0.0, 0.0), (5e-324, 0.0, 0.0), (0.70710678, 0.70710678, 0.0),
        ],
        ids=["nan", "nan-y", "inf", "-inf", "inf-nan", "1e200", "overflowing-sum", "largest", "zero", "tiny",
             "subnormal", "rounded-diagonal"],
    )
    def test_non_finite_overflowing_and_far_directions(self, v):
        assert verdict(v) == sqrt_rule(v) is not None

    def test_settings_message_unchanged(self):
        with pytest.raises(ValueError) as exc:
            kernels.ChshSettings((1, 0, 0), (0, 1, 0), (0, 0, 1), (0.70710678, 0.70710678, 0))
        assert str(exc.value) == "setting must be a unit vector, |v| = 0.9999999983219684"


def two_pass_density_check(rho, stack=False):
    """The density-operator check as two nested passes, kept here as the reference: the Hermitian test
    under one np.errstate, the trace under another, the lowest eigenvalue by min."""
    mat = np.asarray(rho, dtype=complex)
    if mat.ndim != 2 and not (stack and mat.ndim > 2):
        raise ValueError(f"expected a 2D matrix, got ndim={mat.ndim}")
    with np.errstate(invalid="ignore", over="ignore"):
        if mat.shape[-1] != mat.shape[-2] or not np.abs(mat - mat.conj().swapaxes(-1, -2)).max() <= TAU_EQ:
            raise ValueError("matrix is not finite and Hermitian within tolerance")
    with np.errstate(over="ignore"):
        traces = mat.trace(axis1=-2, axis2=-1).ravel().tolist()
    for tr in traces:
        if abs(tr - 1.0) > TAU_EQ:
            raise ValueError(f"density operator trace is {tr}, expected 1")
    for lowest in np.linalg.eigvalsh(mat).min(axis=-1).ravel().tolist():
        if lowest < -TAU_PSD:
            raise ValueError(f"density operator has negative eigenvalue {lowest}")
    return mat


def outcome(check, rho, stack=False):
    try:
        mat = check(rho, stack)
    except ValueError as exc:
        return "raised", str(exc)
    return "passed", mat.shape, mat.tobytes()


HUGE = 1.7976931348623157e308


def near_largest(dim, phase=1.0):
    """A unit-trace Hermitian matrix whose off-diagonal entries are all about the largest float."""
    mat = np.full((dim, dim), HUGE * 0.99 * phase, dtype=complex)
    mat[np.tril_indices(dim, -1)] = np.conj(mat[np.tril_indices(dim, -1)])
    np.fill_diagonal(mat, 1.0 / dim)
    return mat


class TestDensityCheck:
    def test_random_densities_and_perturbations(self):
        rng = np.random.default_rng(2402)
        for k in range(400):
            dim = 2 + k % 4
            rho = random_density(rng, dim)
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            shifted = rho - 0.02 * np.eye(dim)  # unit trace, and maybe a negative eigenvalue
            shifted[0, 0] += 0.02 * dim
            for bad in (rho, rho + 1e-10 * (g + g.conj().T), shifted, rho + 1e-9 * g, rho * (1.0 + 1e-10)):
                assert outcome(assert_density_operator, bad) == outcome(two_pass_density_check, bad)

    def test_stack_fails_trace_then_eigenvalue(self):
        good, trace = np.eye(3) / 3, np.diag([0.5, 0.5, 0.5])
        negative = np.diag([1.2, -0.1, -0.1])
        for trials in ([good, trace, good, negative], [good, negative, good, trace], [negative, trace],
                       [good, negative, negative * 1.5], [good, good]):
            stack = np.stack(trials)
            got = outcome(assert_density_operator, stack, True)
            assert got == outcome(two_pass_density_check, stack, True)
        assert outcome(assert_density_operator, np.stack([good, trace, good, negative]), True) == (
            "raised", "density operator trace is (1.5+0j), expected 1")

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("phase", [1.0, -1.0, 1j, (1 + 1j) / math.sqrt(2)], ids=["1", "-1", "i", "diagonal"])
    def test_off_diagonals_near_the_largest_float(self, dim, phase):
        mat = near_largest(dim, phase)
        assert outcome(assert_density_operator, mat) == outcome(two_pass_density_check, mat)
        skew = mat.copy()
        skew[1, 0] = -skew[1, 0]  # not Hermitian: the deviation overflows to inf
        assert outcome(assert_density_operator, skew) == outcome(two_pass_density_check, skew)
        stack = np.stack([np.eye(dim) / dim, mat, skew])
        assert outcome(assert_density_operator, stack, True) == outcome(two_pass_density_check, stack, True)

    @pytest.mark.parametrize(
        "bad",
        [np.diag([1e308, 1e308]), np.diag([HUGE, -HUGE, 1.0]), np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0]),
         np.array([[0.5, np.inf], [np.inf, 0.5]]), np.ones((2, 3)), np.ones(4)],
        ids=["overflowing-trace", "cancelling-trace", "nan", "inf", "inf-off-diagonal", "not-square", "1d"],
    )
    def test_non_finite_and_malformed(self, bad):
        assert outcome(assert_density_operator, bad) == outcome(two_pass_density_check, bad)

    def test_trace_of_cancelling_infinities_raises_only_value_error(self):
        # the trace of diag(H, H, -H, -H) sums inf and -inf to NaN, which passes the trace test; the
        # two-pass form warns there (invalid was not ignored around its trace), this one does not
        bad = np.diag([HUGE, HUGE, -HUGE, -HUGE])
        with pytest.warns(RuntimeWarning, match="invalid"):
            want = outcome(two_pass_density_check, bad)
        assert outcome(assert_density_operator, bad) == want
        assert want[1].startswith("density operator has negative eigenvalue -1.79769313486231")


class WritingOracle:
    """An oracle from rho that also writes into each matrix it is given."""

    def __init__(self, rho):
        self.rho = rho

    def __call__(self, a):
        a[0, 0] = 7.0
        return float(np.trace(self.rho @ a).real)


class TestReconstructionBasis:
    def test_oracle_that_writes_into_its_argument_raises_and_leaves_the_basis(self):
        rng = np.random.default_rng(2403)
        for dim in (2, 3, 4):
            rho = random_density(rng, dim)
            want = reconstruct_density(oracle_from_density(rho))
            with pytest.raises(ValueError, match="read-only"):
                reconstruct_density(ExpectationOracle(dim, WritingOracle(rho)))
            assert reconstruct_density(oracle_from_density(rho)).tobytes() == want.tobytes()
            eye, basis = _read_only_basis(dim)
            assert np.array_equal(eye, np.eye(dim))
            assert [m.tobytes() for m in basis.members()] == [
                m.tobytes() for m in basis_observables(dim).members()]

    def test_only_desk_scale_dims_are_kept(self):
        rng = np.random.default_rng(2404)
        assert _read_only_basis.cache_info().maxsize == len(BASIS_MEMO_DIMS) == 7
        for dim in (1, 9):
            before = _read_only_basis.cache_info().currsize
            rho = random_density(rng, dim)
            rebuilt = reconstruct_density(oracle_from_density(rho))
            assert np.max(np.abs(rebuilt - rho)) <= 1e-10
            assert _read_only_basis.cache_info().currsize == before
        # a wider dim's matrices are built for the call and writable: the written identity reads <I> = 7
        rho = np.eye(9, dtype=complex) / 9
        with pytest.raises(ValueError, match="malformed"):
            reconstruct_density(ExpectationOracle(9, WritingOracle(rho)))

    def test_queries_in_order(self):
        seen = []
        rho = np.eye(3, dtype=complex) / 3

        def expect(a):
            seen.append(np.asarray(a).copy())
            return float(np.trace(rho @ a).real)

        reconstruct_density(ExpectationOracle(3, expect))
        basis = basis_observables(3)
        want = [np.eye(3), *basis.u, *(m for nm in basis.v for m in (basis.v[nm], basis.w[nm]))]
        assert len(seen) == len(want) == 10
        assert all(np.array_equal(a, b) for a, b in zip(seen, want))
