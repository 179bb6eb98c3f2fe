"""State vectors, density matrices, and metrics for slit-encoded qudits.

A dimension-d pure state is the complex amplitude vector (c_0, ..., c_{d-1});
|c_k|^2 is the probability that the photon passes slit k and arg(c_k) is the
phase imprinted on that slit.  Density matrices appear only as simulation
inputs and certification oracles for mixed states.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, ZeroVector

NORM_TOL = 1e-12
PSD_TOL = 1e-10
PHASE_PIVOT = 1e-9
_REALS = (float, int, np.integer, np.floating)  # the types _is_real takes, bools aside
_INT_OVERFLOW = 2**1024 - 2**970  # the least int that float() cannot convert

# Azimuth increment of the Fibonacci lattice, pi * (3 - sqrt(5)).
GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


class PureState:
    """Unit-norm complex amplitude vector over d >= 2 slits.

    The stored array is read-only; every operation returns a new state.
    ``_owned`` is for this module: ``amps`` is then a fresh complex vector
    that no caller keeps, frozen in place instead of copied.
    """

    __slots__ = ("_amps",)

    def __init__(self, amps, *, _owned: bool = False) -> None:
        arr = amps if _owned else _as_array(amps, "amplitudes", np.complex128).copy()
        if arr.ndim != 1:
            raise ValueError("amplitudes must form a 1-D vector")
        if arr.size < 2:
            raise ValueError("qudit dimension must be at least 2")
        norm_sq = float(np.vdot(arr, arr).real)
        # Written so that a NaN norm fails the test too.
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(
                f"amplitudes are not unit-norm: sum |c_k|^2 = {norm_sq:.17g}"
            )
        self._amps = _frozen(arr)

    @property
    def amps(self) -> np.ndarray:
        return self._amps

    @property
    def dim(self) -> int:
        return self._amps.size

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"

    def canonical(self) -> "PureState":
        """Rotate the global phase so the first significant amplitude is real positive.

        The pivot is the first amplitude with modulus above 1e-9 (one always
        exists for a unit vector).  Applying canonical() twice yields exactly
        the same amplitudes as applying it once.
        """
        rotated = _canonical_phase(self._amps)
        return self if rotated is self._amps else PureState(rotated)

    def to_dict(self) -> dict:
        """JSON-ready form; amplitudes are written in canonical phase."""
        canon = self.canonical()
        return {
            "dim": canon.dim,
            "re": [float(x) for x in canon.amps.real],
            "im": [float(x) for x in canon.amps.imag],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PureState":
        dim = _json_int(payload["dim"])
        re, im = _json_floats(payload["re"]), _json_floats(payload["im"])
        if re.shape != (dim,) or im.shape != (dim,):
            raise ValueError("re/im length does not match dim")
        return cls(re + 1j * im)


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over d >= 2 slits."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix) -> None:
        mat = _as_array(matrix, "density matrix entries", np.complex128).copy()
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if mat.shape[0] < 2:
            raise ValueError("qudit dimension must be at least 2")
        _check_finite(mat, "density matrix entries")
        if np.max(np.abs(mat - mat.conj().T)) > NORM_TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > NORM_TOL:
            raise ValueError(f"density matrix trace is {trace:.17g}, expected 1")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")
        self._matrix = _frozen(mat)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        return cls(np.outer(psi.amps, psi.amps.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        _check_int(dim, "qudit dimension must be at least 2", 2)
        return cls(np.eye(dim) / dim)


def _json_int(value) -> int:
    """An integer JSON field, by the integer rule; anything else is a TypeError."""
    _check_int(value, "expected an integer", -math.inf, error=TypeError)
    return int(value)


def _json_floats(values) -> np.ndarray:
    """A JSON number array (nested lists too) as floats; a non-real entry is a TypeError."""
    arr = np.asarray(values, dtype=object)
    for v in arr.flat:
        if not _is_real(v):
            raise TypeError(f"expected a number, got {v!r}")
    return arr.astype(float)


def _check_int(value, what: str, lo=0, hi: int | None = None, error=ValueError) -> None:
    """The one integer rule: raise ``error`` unless ``value`` is an int or np.integer, never a
    bool, in lo..hi-1, or at least ``lo`` with no ``hi``; an integer-dtype array entry by entry.
    A floor's ``what`` is its whole message, and ", got <value>" follows it."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        outside = np.extract((value < lo) | (hi is not None and value >= hi), value)
        if not outside.size:
            return
        value = outside[0]
    elif (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
          and lo <= value and (hi is None or value < hi)):
        return
    raise error(f"{what}, got {value!r}" if hi is None
                else f"{what} {value} outside {lo}..{hi - 1}")


def _check_real(value, what: str, positive: bool = False) -> float:
    """The one real-number rule: a finite non-negative (or ``positive``) real as a float."""
    if _is_real(value) and (0.0 < value if positive else 0.0 <= value) and value < math.inf:
        return float(value)  # NaN fails each comparison
    sign = "positive" if positive else "non-negative"
    raise ValueError(f"{what} must be finite and {sign}, got {value!r}")


def _is_real(value) -> bool:
    """The real rule's type test: an int, float or numpy real, never a bool, a str or an
    int that float() cannot convert."""
    return (isinstance(value, _REALS) and not isinstance(value, bool)
            and not (isinstance(value, int) and abs(value) >= _INT_OVERFLOW))


#: The seed rule's message; a render, which takes no Generator, checks its own int by it.
_SEED = "seed must be a non-negative integer or a SeedSequence"


def _check_seed(seed) -> None:
    """The sampler seed rule: a SeedSequence or Generator as it is, anything else by the
    integer rule, so a bool or None (fresh OS entropy) is refused."""
    if not isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        _check_int(seed, _SEED)


def _check_finite(values, what: str, nonneg: bool = False) -> None:
    """The one array rule: every entry of ``values`` finite and, with ``nonneg``, none below 0."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")
    if nonneg and np.minimum.reduce(values, axis=None) < 0:
        raise ValueError(f"{what} cannot be negative")


def _as_array(values, what: str, dtype=float) -> np.ndarray:
    """``values`` as np.asarray converts them; an int too large for a float breaks the
    array rule, not numpy's conversion.  A float array takes real entries only: an ndarray
    by its dtype, anything else entry by entry by the real rule's type test."""
    if dtype is float and not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        for v in np.asarray(values, dtype=object).flat:
            if not _is_real(v) and type(v) is not int:  # a huge int fails as not finite
                raise ValueError(f"{what} must be real numbers, got {v!r}")
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{what} must be finite") from None


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only in place; pass a .view() to leave the caller's array writeable."""
    arr.setflags(write=False)
    return arr


def _canonical_phase(amps: np.ndarray, floor: float = PHASE_PIVOT) -> np.ndarray:
    """``amps`` turned so its first amplitude above ``floor`` is real positive."""
    mags = np.abs(amps)
    pivot = int((mags > floor).argmax())
    if not mags[pivot] > floor:
        return amps
    phase = float(np.arctan2(amps[pivot].imag, amps[pivot].real))  # np.angle's formula
    if phase == 0.0:
        return amps
    rotated = amps * np.exp(-1j * phase)
    # Pin the pivot exactly real so a second pass sees phase == 0.0.
    rotated[pivot] = mags[pivot]
    return rotated


def normalize(amps) -> PureState:
    """Scale an amplitude vector to unit norm.

    Raises ZeroVector when every amplitude is below 1e-15 in modulus.
    """
    arr = _as_array(amps, "amplitudes", np.complex128)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a 1-D amplitude vector of length >= 2")
    norm = _norm(arr)
    # Every |c_k| < 1e-15 bounds the norm by sqrt(d) * 1e-15; the factor 2 absorbs rounding.
    if norm <= 2e-15 * math.sqrt(arr.size) and np.maximum.reduce(np.abs(arr)) < 1e-15:
        raise ZeroVector("cannot normalize a zero amplitude vector")
    return PureState(arr / norm, _owned=True)


def _norm(amps: np.ndarray) -> float:
    """Euclidean norm of a contiguous complex vector, summed as np.linalg.norm sums it."""
    return math.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))


def haar_random(dim: int, seed) -> PureState:
    """Draw one state from the unitarily invariant (Haar) ensemble.

    Real and imaginary parts are i.i.d. standard normal, then the vector is
    normalized; the resulting direction is uniform on the unit sphere in C^d.
    ``seed`` may be a non-negative int, a SeedSequence, or a Generator.
    """
    _check_int(dim, "qudit dimension must be at least 2", 2)
    _check_seed(seed)
    return _haar(np.random.default_rng(seed), 1, dim)[0]


def _haar(rng, rows: int, dim: int) -> list[PureState]:
    """The one Haar draw: ``rows`` states from one (rows, 2, dim) array of normals, real
    then imaginary parts, each row normalized."""
    try:
        z = rng.standard_normal((rows, 2, dim))
    except (MemoryError, ValueError):
        raise ValueError(f"qudit dimension {dim} is too large: {rows}x2x{dim} Haar "
                         "normals cannot be allocated") from None
    return [normalize(v) for v in z[:, 0] + 1j * z[:, 1]]


def bloch_grid(n: int) -> list[PureState]:
    """n near-uniform qubit states from a Fibonacci lattice on the Bloch sphere.

    Point i sits at height z_i = 1 - (2i + 1)/n (so the lattice mean of z is
    exactly zero) with azimuth i * GOLDEN_ANGLE, and maps to the state
    (cos(theta/2), e^{i phi} sin(theta/2)) with theta = arccos(z).  Each size
    is built once per process; every call returns a new list of the same
    immutable states.
    """
    # Checked before the cache, which would answer 4.0 or True from the entry of 4 or 1.
    _check_int(n, "need at least one lattice point", 1)
    return list(_bloch_lattice(n))


@lru_cache(maxsize=8)
def _bloch_lattice(n: int) -> tuple[PureState, ...]:
    idx = np.arange(n)
    z = 1.0 - (2.0 * idx + 1.0) / n
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = GOLDEN_ANGLE * idx
    amps = np.stack([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1)
    return tuple(PureState(row, _owned=True) for row in amps)


def bloch_vector(psi: PureState) -> np.ndarray:
    """Bloch-sphere coordinates (x, y, z) of a qubit state."""
    if psi.dim != 2:
        raise DimensionMismatch("Bloch coordinates are defined for dim 2 only")
    c0, c1 = psi.amps
    coherence = c0 * np.conj(c1)
    return np.array(
        [2.0 * coherence.real, -2.0 * coherence.imag, abs(c0) ** 2 - abs(c1) ** 2]
    )


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>| between two pure states; 1 iff equal up to a global phase."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dims {a.dim} and {b.dim} differ")
    return min(float(np.abs(np.vdot(a.amps, b.amps))), 1.0)


def fidelity_mixed(rho: DensityMatrix, psi: PureState) -> float:
    """sqrt(<psi| rho |psi>), the pure-vs-mixed fidelity."""
    if rho.dim != psi.dim:
        raise DimensionMismatch(f"dims {rho.dim} and {psi.dim} differ")
    overlap = float(np.real(psi.amps.conj() @ rho.matrix @ psi.amps))
    return float(np.sqrt(min(max(overlap, 0.0), 1.0)))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); equals 1 exactly for pure states, 1/d for maximally mixed."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def depolarized(psi: PureState, visibility: float) -> DensityMatrix:
    """Isotropic mixture v |psi><psi| + (1 - v) I/d."""
    if not (_is_real(visibility) and 0.0 <= visibility <= 1.0):
        raise ValueError("mixing parameter must lie in [0, 1]")
    d = psi.dim
    mat = visibility * np.outer(psi.amps, psi.amps.conj())
    mat += (1.0 - visibility) * np.eye(d) / d
    return DensityMatrix(mat)
