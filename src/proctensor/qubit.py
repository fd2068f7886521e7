"""Qubit states, gates, rank-1 projectors, fidelities and local noise channels.

Conventions used throughout the package:

* Pauli operator order is (I, X, Y, Z).
* Two-qubit tensor order is system ⊗ environment; the system is the first
  factor and controls the CNOT.
* projector(theta, phi) is the matrix projecting onto cos(θ/2)|0⟩ +
  e^{iφ} sin(θ/2)|1⟩; angle arrays broadcast to a stack (..., 2, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .validation import as_square, check_normalized, qubit_count

__all__ = [
    "ID2",
    "SX",
    "SY",
    "SZ",
    "PAULIS",
    "CZ",
    "CNOT",
    "projector",
    "named_projector",
    "zy_projector",
    "PROJECTOR_ANGLES",
    "FIT_BASIS_LABELS",
    "OVERCOMPLETE_LABELS",
    "QST_AXES",
    "state_fidelity",
    "bloch_vector",
    "NoiseSpec",
    "apply_noise",
]

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
#: Read-only stack (4, 2, 2) of I, X, Y and Z.
PAULIS = np.array([ID2, SX, SY, SZ])
PAULIS.setflags(write=False)

CZ = np.diag([1, 1, 1, -1]).astype(complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

_PI = math.pi

#: Bloch angles (theta, phi) for every named projector. The six axis
#: projectors are joined by the twelve bisector projectors: "ab+" with ab in
#: alphabetical order is the internal bisector of axes a and b, the reversed
#: pair "ba+" is the exterior bisector (a rotated toward -b), and "-" marks
#: the antipode.
PROJECTOR_ANGLES: dict[str, tuple[float, float]] = {
    "z+": (0.0, 0.0),
    "z-": (_PI, 0.0),
    "x+": (_PI / 2, 0.0),
    "x-": (_PI / 2, _PI),
    "y+": (_PI / 2, _PI / 2),
    "y-": (_PI / 2, -_PI / 2),
    "xy+": (_PI / 2, _PI / 4),
    "xy-": (_PI / 2, _PI / 4 + _PI),
    "xz+": (_PI / 4, 0.0),
    "xz-": (3 * _PI / 4, _PI),
    "yz+": (_PI / 4, _PI / 2),
    "yz-": (3 * _PI / 4, -_PI / 2),
    "yx+": (_PI / 2, 3 * _PI / 4),
    "yx-": (_PI / 2, -_PI / 4),
    "zx+": (_PI / 4, _PI),
    "zx-": (3 * _PI / 4, 0.0),
    "zy+": (_PI / 4, -_PI / 2),
    "zy-": (3 * _PI / 4, _PI / 2),
}

#: Nine-element projector basis spanning the space of rank-1 projector actions.
FIT_BASIS_LABELS: tuple[str, ...] = (
    "x+", "x-", "y+", "z+", "y-", "z-", "xy+", "xz+", "yz+",
)

#: Overcomplete 18-element benchmark set (the fit basis plus nine more).
OVERCOMPLETE_LABELS: tuple[str, ...] = FIT_BASIS_LABELS + (
    "xy-", "xz-", "yz-", "yx+", "zx+", "zy+", "yx-", "zx-", "zy-",
)

QST_AXES = ("x", "y", "z")


def projector(theta, phi) -> np.ndarray:
    """Rank-1 projector |p⟩⟨p| onto the Bloch direction (theta, phi), or a
    stack (..., 2, 2) of them: the angles broadcast against each other."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    up, down = np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)
    ket = np.stack(np.broadcast_arrays(up, down), axis=-1)
    return ket[..., :, None] * ket[..., None, :].conj()


def named_projector(label: str) -> np.ndarray:
    try:
        theta, phi = PROJECTOR_ANGLES[label]
    except KeyError:
        raise ValueError(f"bad-label: unknown projector label {label!r}") from None
    return projector(theta, phi)


def zy_projector(theta) -> np.ndarray:
    """Rank-1 projector at polar angle theta in the z/(-y) great circle, or
    a stack (..., 2, 2) for an array of angles.

    This is the plane swept when conditioning the last-step process on the
    first intervention: zy_projector(0) is z+, zy_projector(pi/2) is y-, and
    zy_projector(pi/4) projects onto cos(π/8)|0⟩ - i sin(π/8)|1⟩.
    """
    return projector(theta, -_PI / 2)


#: Angles (9, 2) and read-only projector stack (9, 2, 2) of the fit basis,
#: in FIT_BASIS_LABELS order.
FIT_BASIS_ANGLES = np.array([PROJECTOR_ANGLES[label] for label in FIT_BASIS_LABELS])
FIT_BASIS = projector(*FIT_BASIS_ANGLES.T)
FIT_BASIS_ANGLES.setflags(write=False)
FIT_BASIS.setflags(write=False)


def state_fidelity(rho, sigma):
    """Uhlmann fidelity of two qubit states, or elementwise of two stacks (..., 2, 2).

    Uses the 2x2 closed form F = tr ρσ + 2 sqrt(det ρ det σ) (Jozsa, J. Mod.
    Opt. 41, 2315 (1994)), which equals (Tr sqrt(sqrt(ρ) σ sqrt(ρ)))² for
    unit-trace qubit states without taking any eigenvalue; other dimensions
    raise bad-dims. The determinants are clipped at 0 and F to [0, 1].
    Returns a float for two matrices and an array for stacks.
    """
    a = check_normalized(rho, "rho")
    b = check_normalized(sigma, "sigma")
    if a.shape[-2:] != (2, 2) or b.shape[-2:] != (2, 2):
        raise ValueError(f"bad-dims: expected qubit states, got shapes {a.shape} and {b.shape}")
    # entrywise, so a matrix gives the same bits alone as in any stack
    overlap = sum(a[..., i, j] * b[..., j, i] for i in range(2) for j in range(2)).real
    dets = [(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).real for m in (a, b)]
    f = overlap + 2 * np.sqrt(np.maximum(dets[0], 0.0) * np.maximum(dets[1], 0.0))
    f = np.clip(f, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def bloch_vector(rho) -> np.ndarray:
    """Bloch vector (tr ρX, tr ρY, tr ρZ) of a state, or (..., 3) of a stack."""
    a = as_square(rho, "rho")
    return np.einsum("...ij,kji->...k", a, PAULIS[1:]).real


@dataclass(frozen=True)
class NoiseSpec:
    """Per-location amplitude-damping and dephasing probabilities.

    Dephasing uses Kraus pair {sqrt(1-λ) I, sqrt(λ) Z}, which scales
    off-diagonals by (1 - 2λ); λ = 1/2 erases phase completely.
    """

    gamma_amp: float = 0.0
    lambda_phase: float = 0.0

    def __post_init__(self):
        for name in ("gamma_amp", "lambda_phase"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"bad-noise: {name}={v} outside [0, 1]")

    def kraus_ops(self) -> list[np.ndarray]:
        g, lam = self.gamma_amp, self.lambda_phase
        amp = [
            np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex),
            np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex),
        ]
        deph = [math.sqrt(1 - lam) * ID2, math.sqrt(lam) * SZ]
        return [d @ a for a in amp for d in deph]


def apply_noise(rho, spec: NoiseSpec) -> np.ndarray:
    """Amplitude damping then dephasing, applied to each qubit independently.

    Takes one state or a stack (..., d, d) of states."""
    a = as_square(rho, "rho")
    n = qubit_count(a.shape[-1], "rho")
    for q in range(n):
        ops = [np.kron(np.kron(np.eye(2**q), k), np.eye(2 ** (n - 1 - q)))
               for k in spec.kraus_ops()]
        a = sum(op @ a @ op.conj().T for op in ops)
    return a

