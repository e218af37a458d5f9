"""The exact and scalar kernels, on Python numbers: no numpy.

`mermin`, `ghz`, `bell`, `chsh` (fixed settings) and `hardy` (fixed p1, p2) run on this module
alone.  It holds the Pauli matrices as tuples of rows of complex numbers, with three dense helpers
(`matmul`, `kron`, `max_deviation`); the correlation tensor T of a two-qubit state, computed once
per state and kept in a bounded memo; the CHSH settings and the correlators read off T; the Hardy
arithmetic; the exhaustive sign-assignment count; and the Mermin-square and GHZ checks.

The other modules (`qmath`, `contextuality`, `hvmodels`, `nonlocality`, `simlab`) import from this
one, never the reverse, and give its results as arrays where their API returns arrays.  A function
here that takes an array takes any sequence too, and reads an array by its `tolist()` (a complex128
state by its bytes); the arrays of `ChshSettings`, `HardyConstruction` and of the numpy-free
`contextuality` are built by `_read_only`, the one place that loads numpy, and only when read.

TAU_EQ = 1e-10, shared with `qmath`, is the tolerance of every entrywise matrix or scalar comparison;
TAU_PSD = 1e-9 that of an eigenvalue read as zero or nonnegative.
"""

from __future__ import annotations

import functools
import math
from array import array
from typing import NamedTuple

TAU_EQ = 1e-10
TAU_PSD = 1e-9

ID2 = ((1 + 0j, 0j), (0j, 1 + 0j))
SIGMA_X = ((0j, 1 + 0j), (1 + 0j, 0j))
SIGMA_Y = ((0j, -1j), (1j, 0j))
SIGMA_Z = ((1 + 0j, 0j), (0j, -1 + 0j))
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def matmul(a, b) -> tuple:
    """The product of two matrices, each a sequence of rows."""
    columns = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, column)) for column in columns) for row in a)


def kron(a, b) -> tuple:
    """The Kronecker product of two matrices, each a sequence of rows; dims multiply."""
    return tuple(tuple(x * y for x in row_a for y in row_b) for row_a in a for row_b in b)


def _nanmax(values) -> float:
    """The largest of values, or NaN if any is NaN, as numpy's max gives it."""
    values = list(values)
    return math.nan if any(v != v for v in values) else max(values)


def max_deviation(a, b) -> float:
    """max |a_ij - b_ij| over two matrices of one shape; NaN if any difference is NaN."""
    return _nanmax(abs(x - y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))


def _read_only(values, dtype=float):
    """values as a new read-only ndarray: the boundary where this module's results become arrays."""
    import numpy as np

    vec = np.array(values, dtype)
    vec.setflags(write=False)
    return vec


def _entries(x) -> list:
    """The numbers in x, a number, a nested sequence or an array (read by its tolist()), in row-major order."""
    if hasattr(x, "tolist"):
        x = x.tolist()
    if not isinstance(x, (list, tuple)):
        return [x]
    flat = []
    for item in x:
        if isinstance(item, (list, tuple)) or hasattr(item, "tolist"):
            flat += _entries(item)
        else:
            flat.append(item)
    return flat


def _flat_triple(v) -> tuple:
    """The entries of v, a nested sequence or an array of any shape, as three Python floats; ValueError
    unless there are three."""
    entries = _entries(v)
    if len(entries) != 3:
        raise ValueError(f"expected 3 components, got {len(entries)}")
    return tuple(map(float, entries))


def check_unit_state(dim: int, norm_sq: float) -> None:
    """ValueError unless a state of dimension dim and squared norm norm_sq is a unit vector, within TAU_EQ,
    at desk scale (dim 2 to 8).

    Qubit-system operations (dim 2, 4 or 8) enforce their exact dimension
    at the call site; ensemble reconstruction also runs in dimension 3.
    """
    if not 2 <= dim <= 8:
        raise ValueError(f"state dimension must be between 2 and 8, got {dim}")
    if not (abs(norm_sq - 1.0) <= TAU_EQ):  # also true for NaN
        raise ValueError(f"state is not normalized: ||psi||^2 = {norm_sq}")


# ---------------------------------------------------------------------------
# two-qubit correlations: T, the CHSH settings and the correlators

CHSH_QUANTUM_MAX = 2.0 * math.sqrt(2.0)  # Tsirelson bound
CHSH_LHV_BOUND = 2.0
BELL_ORIGINAL_BOUND = 1.0

_HALF_SQRT2 = 1.0 / math.sqrt(2.0)

SINGLET = (0j, complex(_HALF_SQRT2), complex(-_HALF_SQRT2), 0j)  # (|01> - |10>)/sqrt(2)
PRODUCT_00 = (1 + 0j, 0j, 0j, 0j)  # |00>
GHZ = (complex(_HALF_SQRT2), *[0j] * 6, complex(-_HALF_SQRT2))  # (|000> - |111>)/sqrt(2)

# Settings at which the singlet reaches the quantum maximum.
OPTIMAL_CHSH_A = (0.0, 1.0, 0.0)
OPTIMAL_CHSH_B = (_HALF_SQRT2, _HALF_SQRT2, 0.0)
OPTIMAL_CHSH_A_PRIME = (1.0, 0.0, 0.0)
OPTIMAL_CHSH_B_PRIME = (_HALF_SQRT2, -_HALF_SQRT2, 0.0)

# Coplanar directions 120 degrees apart; they push the three-correlator
# inequality to 3/2 against its bound of 1.
TRINE_A = (1.0, 0.0, 0.0)
TRINE_B = (-0.5, math.sqrt(3.0) / 2.0, 0.0)
TRINE_C = (-0.5, -math.sqrt(3.0) / 2.0, 0.0)

# Names of the four directions, in `ChshSettings.floats` order, and of the four setting pairs,
# in the order `ChshSettings.pairs` gives them.
SETTING_NAMES = ("a", "a_prime", "b", "b_prime")
SETTING_PAIR_NAMES = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")


def _unit_norm(norm_sq: float) -> bool:
    """The unit rule on |v|^2: |sqrt(norm_sq) - 1| <= TAU_EQ, false for NaN."""
    return abs(math.sqrt(norm_sq) - 1.0) <= TAU_EQ


def _unit_sq_edge(norm_sq: float, outward: float) -> float:
    """The last |v|^2 that `_unit_norm` accepts going from 1 toward `outward`; norm_sq starts a few
    floats from it."""
    while _unit_norm(norm_sq):
        norm_sq = math.nextafter(norm_sq, outward)
    while not _unit_norm(norm_sq):
        norm_sq = math.nextafter(norm_sq, 1.0)
    return norm_sq


# The squared norms that `_unit_norm` accepts, as a closed interval of floats: sqrt is correctly
# rounded, so monotone, and r - 1.0 is exact for r near 1 (Sterbenz), so the accepted norms are an
# interval and so are their squares.  Comparing x*x + y*y + z*z with its two ends decides as the
# sqrt rule does, NaN and inf included, without a sqrt per direction.
_UNIT_SQ_LO = _unit_sq_edge((1.0 - TAU_EQ) ** 2, 0.0)
_UNIT_SQ_HI = _unit_sq_edge((1.0 + TAU_EQ) ** 2, math.inf)


def _unit_floats(*vectors) -> tuple:
    """(x, y, z) of each vector, shape (3,) or reshapeable to it, as Python floats; ValueError
    unless each is a unit vector within TAU_EQ, |sqrt(x*x + y*y + z*z) - 1| <= TAU_EQ, which is
    tested as x*x + y*y + z*z in [_UNIT_SQ_LO, _UNIT_SQ_HI]; the message gives that sqrt as |v|."""
    triples = []
    for v in vectors:
        if hasattr(v, "tolist"):  # an array: its entries as Python numbers
            v = v.tolist()
        try:
            x, y, z = v
            x, y, z = float(x), float(y), float(z)  # on Python floats a huge component gives inf, not a warning
        except (TypeError, ValueError):  # nested, not three entries, or not numbers
            x, y, z = _flat_triple(v)
        if not (_UNIT_SQ_LO <= x * x + y * y + z * z <= _UNIT_SQ_HI):  # also true for NaN
            raise ValueError(f"setting must be a unit vector, |v| = {math.sqrt(x * x + y * y + z * z)}")
        triples.append((x, y, z))
    return tuple(triples)


def _direction(k: int, name: str) -> property:
    return property(lambda self: _read_only(self.floats[k]), doc=f"{name} as a new read-only float array")


class ChshSettings(NamedTuple("ChshSettings", [("floats", tuple)])):
    """Four analyzer directions (a, a', b, b'), all unit vectors.

    `floats` keeps ((x, y, z) of a, of a', of b, of b') as Python floats,
    copied once when the settings are made, so a later change to the caller's
    array leaves them alone; the correlators contract those floats directly,
    and a, a_prime, b and b_prime give each direction as a new read-only array.
    """

    __slots__ = ()

    def __new__(cls, a, a_prime, b, b_prime):
        return tuple.__new__(cls, (_unit_floats(a, a_prime, b, b_prime),))

    def __getnewargs__(self):  # copy and pickle rebuild the settings from the four directions
        return self.floats

    @classmethod
    def _make(cls, iterable):  # _replace goes through _make, so both check the directions
        (floats,) = iterable
        return cls(*floats)

    a = _direction(0, "a")
    a_prime = _direction(1, "a'")
    b = _direction(2, "b")
    b_prime = _direction(3, "b'")

    def pairs(self) -> tuple:
        """(a, b), (a, b'), (a', b), (a', b'), named by SETTING_PAIR_NAMES."""
        a, a_prime, b, b_prime = map(_read_only, self.floats)
        return ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))


def optimal_chsh_settings() -> ChshSettings:
    return ChshSettings(OPTIMAL_CHSH_A, OPTIMAL_CHSH_A_PRIME, OPTIMAL_CHSH_B, OPTIMAL_CHSH_B_PRIME)


TENSOR_MEMO_SIZE = 64  # states whose correlation tensor is kept


@functools.lru_cache(maxsize=TENSOR_MEMO_SIZE)
def _tensor_of_bytes(key: bytes) -> tuple:
    """T, as rows of Python floats, of the 4-entry state whose complex128 bytes are key; ValueError unless unit.

    Each row of sigma_i x sigma_j holds one nonzero entry, a phase 1, -1, i or -i, so
    T_ij = Re sum_k conj(psi_k) (sigma_i x sigma_j psi)_k is a signed sum of four of
    r_kl = Re conj(psi_k) psi_l and i_kl = Im conj(psi_k) psi_l, added in the order of k.
    """
    x0, y0, x1, y1, x2, y2, x3, y3 = array("d", key)
    n0, n1, n2, n3 = x0 * x0 + y0 * y0, x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x3 * x3 + y3 * y3
    check_unit_state(4, n0 + n1 + n2 + n3)
    r01, r02, r03 = x0 * x1 + y0 * y1, x0 * x2 + y0 * y2, x0 * x3 + y0 * y3
    r12, r13, r23 = x1 * x2 + y1 * y2, x1 * x3 + y1 * y3, x2 * x3 + y2 * y3
    i01, i02, i03 = x0 * y1 - y0 * x1, x0 * y2 - y0 * x2, x0 * y3 - y0 * x3
    i12, i13, i23 = x1 * y2 - y1 * x2, x1 * y3 - y1 * x3, x2 * y3 - y2 * x3
    return (
        (r03 + r12 + r12 + r03, i03 - i12 - i12 + i03, r02 - r13 + r02 - r13),
        (i03 + i12 + i12 + i03, -r03 + r12 + r12 - r03, i02 - i13 + i02 - i13),
        (r01 + r01 - r23 - r23, i01 + i01 - i23 - i23, n0 - n1 - n2 + n3),
    )


def _memo_tensor(psi) -> tuple:
    """The rows of T of psi, computed (and psi validated) once per state.

    The memo is keyed by the complex128 bytes of psi's entries in row-major order: a native complex128
    array's own bytes, else the entries packed as (re, im) doubles.  So an in-place change to psi gives a
    new key, and -0.0 and 0.0 amplitudes, equal as numbers, give two.  A state of any other size than 4
    is only validated; an invalid state raises on every call.
    """
    dtype = getattr(psi, "dtype", None)
    if dtype is not None and dtype.char == "D" and dtype.isnative:
        key = psi.tobytes()
    else:
        key = array("d", [part for z in _entries(psi) for part in (z.real, z.imag)]).tobytes()
    if len(key) != 64:
        parts = array("d", key)
        check_unit_state(len(parts) // 2, sum(x * x for x in parts))
        raise ValueError("correlation tensor needs a two-qubit state")
    return _tensor_of_bytes(key)


def _correlators(psi, a, a_prime, b, b_prime) -> list:
    """[a.Tb, a.Tb', a'.Tb, a'.Tb'] of (x, y, z) float triples, T from the memo, in straight-line code: T b and
    T b' once each as t_i0 x + t_i1 y + t_i2 z, then x tx + y ty + z tz, the order every correlator keeps."""
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = _memo_tensor(psi)
    x, y, z = b
    bx, by, bz = t00 * x + t01 * y + t02 * z, t10 * x + t11 * y + t12 * z, t20 * x + t21 * y + t22 * z
    x, y, z = b_prime
    cx, cy, cz = t00 * x + t01 * y + t02 * z, t10 * x + t11 * y + t12 * z, t20 * x + t21 * y + t22 * z
    (x, y, z), (u, v, w) = a, a_prime
    return [x * bx + y * by + z * bz, x * cx + y * cy + z * cz, u * bx + v * by + w * bz, u * cx + v * cy + w * cz]


def qm_correlator(psi, a, b) -> float:
    """<psi| (a.sigma) x (b.sigma) |psi> = a . T b; equals -a.b on the singlet."""
    (x, y, z), (u, v, w) = _unit_floats(a, b)
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = _memo_tensor(psi)
    return x * (t00 * u + t01 * v + t02 * w) + y * (t10 * u + t11 * v + t12 * w) + z * (t20 * u + t21 * v + t22 * w)


def bell_correlators(psi, a, b, c) -> tuple:
    """(P(a,b), P(a,c), P(b,c)) on Python floats, off one contraction with the memoized T."""
    a, b, c = _unit_floats(a, b, c)
    ab, ac, _, bc = _correlators(psi, a, b, b, c)
    return ab, ac, bc


def bell_original_lhs(psi, a, b, c, eta_a: int, eta_b: int, eta_c: int) -> float:
    """Signed three-correlator sum; local hidden variables keep it <= 1.

    Returns eta_a eta_b P(a,b) + eta_a eta_c P(a,c) + eta_b eta_c P(b,c),
    the correlators from `bell_correlators`; the caller compares with the bound 1.
    """
    for eta in (eta_a, eta_b, eta_c):
        if eta not in (1, -1):
            raise ValueError("eta values must be +1 or -1")
    ab, ac, bc = bell_correlators(psi, a, b, c)
    return float(eta_a * eta_b * ab + eta_a * eta_c * ac + eta_b * eta_c * bc)


def chsh_correlators(psi, settings: ChshSettings) -> list:
    """[a.Tb, a.Tb', a'.Tb, a'.Tb'] in SETTING_PAIR_NAMES order, Python floats off T b and T b', no array; T from
    the per-state memo, so a scan over many settings on one state validates it and builds T once."""
    return _correlators(psi, *settings.floats)


def chsh_combination(p):
    """S = |p[0] - p[1]| + |p[2] + p[3]| for correlators (ab, ab', a'b, a'b'); floats or arrays."""
    return abs(p[0] - p[1]) + abs(p[2] + p[3])


def chsh_value(psi, settings: ChshSettings) -> float:
    """S = |a.Tb - a.Tb'| + |a'.Tb + a'.Tb'|, the CHSH combination of `chsh_correlators`."""
    return chsh_combination(chsh_correlators(psi, settings))


# ---------------------------------------------------------------------------
# Hardy: the construction on floats, or elementwise on arrays for the grid scan


class HardyConstruction(NamedTuple):
    """Two-qubit state with the four joint-outcome conditions built in, kept as floats.

    psi lives in the (u, v) product basis with u = |0>, v = |1>; a01, a10, a11 are its amplitudes on
    |u,v>, |v,u>, |v,v> (that on |u,u> is 0).  The primed single-qubit bases (u', v') are fixed by the
    one-dimensional orthogonality conditions, v1' = (v1x, v1y) and v2' = (v2x, v2y).  p is the probability
    of the jointly primed outcome that local realism forbids, condition_residuals three floats.  psi and the
    primed vectors are built on access, each as a new read-only complex array.
    """

    a01: float
    a10: float
    a11: float
    v1x: float
    v1y: float
    v2x: float
    v2y: float
    p: float
    condition_residuals: tuple

    psi = property(lambda self: _read_only((0.0, self.a01, self.a10, self.a11), complex))
    u1_prime = property(lambda self: _read_only(_orthogonal_2d(self.v1x, self.v1y), complex))
    v1_prime = property(lambda self: _read_only((self.v1x, self.v1y), complex))
    u2_prime = property(lambda self: _read_only(_orthogonal_2d(self.v2x, self.v2y), complex))
    v2_prime = property(lambda self: _read_only((self.v2x, self.v2y), complex))


def hardy_probability(p1: float, p2: float) -> float:
    """Closed form p1 (1 - p1) p2 (1 - p2) / (1 - p1 p2)."""
    return p1 * (1.0 - p1) * p2 * (1.0 - p2) / (1.0 - p1 * p2)


def _sqrt(x):
    """math.sqrt on a float; on an array x ** 0.5, which numpy computes as np.sqrt.  Both are correctly
    rounded, so a point and a grid entry agree bit for bit."""
    return math.sqrt(x) if isinstance(x, float) else x**0.5


def _orthogonal_2d(x, y) -> tuple:
    """Unit 2-vector orthogonal to the real (x, y), its first entry above 1e-14 in size positive.

    Takes floats or arrays (componentwise), so one call handles a point or a grid.
    """
    norm = _sqrt(x * x + y * y)
    ox, oy = -y / norm, x / norm
    flip = (ox < -1e-14) | ((abs(ox) <= 1e-14) & (oy < 0.0))
    sign = 1.0 - 2.0 * flip
    return ox * sign, oy * sign


def _hardy_fields(p1, p2) -> tuple:
    """The Hardy arithmetic up to p, on floats or broadcast arrays of parameters in (0, 1).

    Returns (a01, a10, a11, v1x, v1y, v2x, v2y, p): the amplitudes of psi on
    |u,v>, |v,u>, |v,v> (that on |u,u> is 0), v1', v2' and p.  Floats and arrays
    run the same operations, so a point and a grid entry agree bit for bit.
    """
    norm = _sqrt(1.0 - p1 * p2)
    # Amplitudes a_j1j2 of |j1, j2> with u = |0>, v = |1>.
    a01 = -_sqrt(p1 * (1.0 - p2)) / norm
    a10 = -_sqrt(p2 * (1.0 - p1)) / norm
    a11 = _sqrt((1.0 - p1) * (1.0 - p2)) / norm
    v2x, v2y = _orthogonal_2d(a10, a11)
    v1x, v1y = _orthogonal_2d(a01, a11)
    overlap = v1x * (v2y * a01) + v1y * (v2x * a10 + v2y * a11)
    return a01, a10, a11, v1x, v1y, v2x, v2y, overlap * overlap


def hardy_build(p1: float, p2: float) -> HardyConstruction:
    """Build the Hardy state and primed bases for parameters in (0, 1).

    The unnormalized state is
        sqrt((1-p1)(1-p2)) |v,v> - sqrt(p1(1-p2)) |u,v> - sqrt(p2(1-p1)) |v,u>
    whose squared coefficients sum to 1 - p1 p2, so dividing by
    sqrt(1 - p1 p2) normalizes it exactly.  v2' is the unique direction
    with <v, v2'|psi> = 0, v1' the unique direction with <v1', v|psi> = 0;
    u' completes each primed basis.  p = |<v1', v2'|psi>|^2 is the grid scan's
    arithmetic run on Python floats, and the three condition residuals are
    derived here only; the vectors are built only when read (`HardyConstruction`).
    """
    if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0):
        raise ValueError(f"parameters must lie strictly inside (0, 1), got ({p1}, {p2})")
    fields = _hardy_fields(float(p1), float(p2))
    a01, a10, a11, v1x, v1y, v2x, v2y, p = fields
    # residuals: <u x u|psi>, <v x v2'|psi>, <v1' x v|psi>
    residuals = 0.0, abs(v2x * a10 + v2y * a11), abs(v1x * a01 + v1y * a11)
    if max(residuals) > TAU_EQ:
        raise AssertionError(f"orthogonality conditions violated: {residuals}")
    if p <= 0.0:
        raise ValueError(f"the jointly primed probability p underflows to 0 at (p1, p2) = ({p1}, {p2})")
    return HardyConstruction(*fields, residuals)


# ---------------------------------------------------------------------------
# sign assignments, the Mermin square and the GHZ parities


class AssignmentSearchResult(NamedTuple):
    n_checked: int
    n_satisfying: int


def count_sign_assignments(n_vars: int, constraints) -> AssignmentSearchResult:
    """Count the +-1 assignments to n_vars variables that meet every constraint.

    Each constraint is (indices, target): the product of the values at
    `indices` must equal `target`.  All 2**n_vars assignments are checked,
    each an int whose bit i is set where variable i is -1, so a product is
    -1 exactly when the bits at its indices have odd parity; a repeated
    index cancels, as a value squares to +1.
    """
    satisfying = range(1 << n_vars)
    for indices, target in constraints:
        mask = 0
        for i in indices:
            mask ^= 1 << int(i)
        satisfying = [m for m in satisfying if 1 - 2 * ((m & mask).bit_count() & 1) == target]
    return AssignmentSearchResult(1 << n_vars, len(satisfying))


def _complex_rows(x, shape: tuple) -> tuple:
    """x, a nested sequence or an array of the given shape, as nested tuples of complex; ValueError otherwise."""

    def build(item, dims):
        if not dims:
            if isinstance(item, (list, tuple)):
                raise ValueError
            return complex(item)
        if not isinstance(item, (list, tuple)) or len(item) != dims[0]:
            raise ValueError
        return tuple(build(sub, dims[1:]) for sub in item)

    try:
        return build(x.tolist() if hasattr(x, "tolist") else x, shape)
    except ValueError:
        got = getattr(x, "shape", None) or f"a sequence of {len(_entries(x))} numbers"
        raise ValueError(f"expected shape {shape}, got {got}") from None


# The 3x3 grid of two-qubit operators as 4x4 tuples, particle 1 the left factor: `contextuality.mermin_square`.
MERMIN_SQUARE = (
    (kron(SIGMA_X, ID2), kron(ID2, SIGMA_X), kron(SIGMA_X, SIGMA_X)),
    (kron(ID2, SIGMA_Y), kron(SIGMA_Y, ID2), kron(SIGMA_Y, SIGMA_Y)),
    (kron(SIGMA_X, SIGMA_Y), kron(SIGMA_Y, SIGMA_X), kron(SIGMA_Z, SIGMA_Z)),
)
MERMIN_ROW_SIGNS = (1, 1, 1)
MERMIN_COL_SIGNS = (1, 1, -1)

_EYE4 = kron(ID2, ID2)


class MerminReport(NamedTuple):
    row_signs: tuple
    col_signs: tuple
    max_product_dev: float
    max_square_dev: float
    max_commutator: float


def mermin_verify(square) -> MerminReport:
    """Check the row products are +I, the column products (+I, +I, -I),
    every entry squares to I, and rows/columns commute internally, each within TAU_EQ.

    Takes the square as an array or nested sequence of shape (3, 3, 4, 4).
    Raises ValueError if any check fails, so a returned report always passed.
    """
    rows = _complex_rows(square, (3, 3, 4, 4))
    lines = [*rows, *zip(*rows)]
    products = [(matmul(matmul(a, b), c), matmul(matmul(c, b), a)) for a, b, c in lines]
    prod_dev = _nanmax(
        max_deviation(fwd, [[sign * e for e in row] for row in _EYE4])
        for (fwd, _), sign in zip(products, MERMIN_ROW_SIGNS + MERMIN_COL_SIGNS)
    )
    reversed_match = all(max_deviation(fwd, rev) <= TAU_EQ for fwd, rev in products)
    comm = _nanmax(
        max_deviation(matmul(line[i], line[j]), matmul(line[j], line[i]))
        for line in lines for i, j in ((0, 1), (0, 2), (1, 2))
    )
    sq_dev = _nanmax(max_deviation(matmul(m, m), _EYE4) for row in rows for m in row)
    if not (prod_dev <= TAU_EQ and sq_dev <= TAU_EQ and comm <= TAU_EQ and reversed_match):
        raise ValueError(
            f"operator square fails verification: product dev {prod_dev}, "
            f"square dev {sq_dev}, commutator {comm}, reversed products match {reversed_match}"
        )
    return MerminReport(
        row_signs=MERMIN_ROW_SIGNS,
        col_signs=MERMIN_COL_SIGNS,
        max_product_dev=prod_dev,
        max_square_dev=sq_dev,
        max_commutator=comm,
    )


def mermin_assignment_search() -> AssignmentSearchResult:
    """Exhaustive search over the 512 noncontextual +-1 assignments.

    Counts assignments meeting all six product constraints, whose signs are
    the quantum ones.  The count is 0: the product of all nine values is the
    product of the row targets (+1) but also of the column targets (-1).
    """
    # the grid is flattened row by row: row r holds 3r..3r+2, column c holds c, c+3, c+6
    constraints = [(range(3 * r, 3 * r + 3), MERMIN_ROW_SIGNS[r]) for r in range(3)]
    constraints += [(range(c, 9, 3), MERMIN_COL_SIGNS[c]) for c in range(3)]
    return count_sign_assignments(9, constraints)


def ghz_assignment_search(xxx_target: int = -1) -> AssignmentSearchResult:
    """Exhaustive search over the 64 local value assignments (m_x, m_y) per
    particle, against the three m_x m_y m_y = +1 constraints and
    m_x m_x m_x = xxx_target.

    Multiplying the first three constraints forces m_x m_x m_x = +1, so the
    quantum target -1 leaves zero satisfying assignments.
    """
    if xxx_target not in (1, -1):
        raise ValueError("xxx_target must be +1 or -1")
    # variables 0-2 are m_x of particles 1-3, variables 3-5 their m_y
    return count_sign_assignments(
        6, [((0, 4, 5), 1), ((3, 1, 5), 1), ((3, 4, 2), 1), ((0, 1, 2), xxx_target)]
    )


def ghz_stabilizer_deviations() -> dict[str, float]:
    """Max entrywise deviations of the four parity identities on the GHZ state.

    X Y Y, Y X Y and Y Y X fix the state; X X X flips its sign.
    """
    psi = tuple((z,) for z in GHZ)  # a column
    flipped = tuple((-z,) for z in GHZ)
    x, y = SIGMA_X, SIGMA_Y

    def deviation(p1, p2, p3, target) -> float:
        return max_deviation(matmul(kron(kron(p1, p2), p3), psi), target)

    return {
        "xyy": deviation(x, y, y, psi),
        "yxy": deviation(y, x, y, psi),
        "yyx": deviation(y, y, x, psi),
        "xxx": deviation(x, x, x, flipped),
    }
