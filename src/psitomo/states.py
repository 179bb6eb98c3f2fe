"""State vectors, density matrices, and metrics for slit-encoded qudits.

A dimension-d pure state is the complex amplitude vector (c_0, ..., c_{d-1});
|c_k|^2 is the probability that the photon passes slit k and arg(c_k) is the
phase imprinted on that slit.  Density matrices appear only as simulation
inputs and certification oracles for mixed states.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DimensionMismatch, ZeroVector

NORM_TOL = 1e-12
PSD_TOL = 1e-10
PHASE_PIVOT = 1e-9

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
        arr = amps if _owned else np.array(amps, dtype=np.complex128)
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
        arr.setflags(write=False)
        self._amps = arr

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
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
        if re.shape != (dim,) or im.shape != (dim,):
            raise ValueError("re/im length does not match dim")
        return cls(re + 1j * im)


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over d >= 2 slits."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix) -> None:
        mat = np.array(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if mat.shape[0] < 2:
            raise ValueError("qudit dimension must be at least 2")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > NORM_TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > NORM_TOL:
            raise ValueError(f"density matrix trace is {trace:.17g}, expected 1")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")
        mat.setflags(write=False)
        self._matrix = mat

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
        if dim < 2:
            raise ValueError("qudit dimension must be at least 2")
        return cls(np.eye(dim) / dim)


def _json_int(value) -> int:
    """An integer JSON field: operator.index, refusing the booleans it accepts."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, not {str(value).lower()}")
    return operator.index(value)


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
    arr = np.asarray(amps, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a 1-D amplitude vector of length >= 2")
    if np.maximum.reduce(np.abs(arr)) < 1e-15:
        raise ZeroVector("cannot normalize a zero amplitude vector")
    return PureState(arr / _norm(arr), _owned=True)


def _norm(amps: np.ndarray) -> float:
    """Euclidean norm of a contiguous complex vector, summed as np.linalg.norm sums it."""
    return math.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))


def haar_random(dim: int, seed) -> PureState:
    """Draw one state from the unitarily invariant (Haar) ensemble.

    Real and imaginary parts are i.i.d. standard normal, then the vector is
    normalized; the resulting direction is uniform on the unit sphere in C^d.
    ``seed`` may be an int, a SeedSequence, or a Generator.
    """
    if dim < 2:
        raise ValueError("qudit dimension must be at least 2")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize(z)


def bloch_grid(n: int) -> list[PureState]:
    """n near-uniform qubit states from a Fibonacci lattice on the Bloch sphere.

    Point i sits at height z_i = 1 - (2i + 1)/n (so the lattice mean of z is
    exactly zero) with azimuth i * GOLDEN_ANGLE, and maps to the state
    (cos(theta/2), e^{i phi} sin(theta/2)) with theta = arccos(z).
    """
    if n < 1:
        raise ValueError("need at least one lattice point")
    idx = np.arange(n)
    z = 1.0 - (2.0 * idx + 1.0) / n
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = GOLDEN_ANGLE * idx
    c0 = np.cos(theta / 2.0)
    c1 = np.exp(1j * phi) * np.sin(theta / 2.0)
    return [PureState(np.array([c0[i], c1[i]])) for i in range(n)]


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
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("mixing parameter must lie in [0, 1]")
    d = psi.dim
    mat = visibility * np.outer(psi.amps, psi.amps.conj())
    mat += (1.0 - visibility) * np.eye(d) / d
    return DensityMatrix(mat)
