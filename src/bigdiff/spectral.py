"""Neumann cosine spectral core: domain, basis, fields, transforms, norms.

Everything downstream works in the orthonormal eigenbasis of the Neumann
Laplacian on (0, 1):

    phi_0(x) = 1,    phi_k(x) = sqrt(2) cos(k pi x),    -phi_k'' = lam_k phi_k,

with lam_k = (k pi)^2.  For a diagonal diffusion matrix E = diag(eps_1, ...,
eps_n) the elliptic operator u -> -E u_xx + u acts on coefficients as the
pure scaling c_{i,k} -> (eps_i lam_k + 1) c_{i,k}, so every operator-norm
statement in this package is exactly representable at finite mode count.

Transforms use midpoint quadrature on G uniform nodes.  Midpoint quadrature
integrates cos(l pi x) exactly for all 0 <= l < 2G, hence products of two
basis functions (frequency <= 2K) are exact once G >= 2K + 2: Gram matrices
and band-limited round trips hold to machine precision.

All types are immutable after construction and all operations are pure
functions, safe to share across parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainSpec",
    "CosineBasis",
    "DiffusionSpec",
    "SpectralField",
    "EnergyNorm",
    "build_basis",
    "diffusion",
    "energy_norm",
    "mean_free_energy",
    "l2_norm",
    "average_projection",
    "constant_field",
    "mode_field",
    "random_field",
]


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DomainSpec:
    """The unit interval (0, 1).

    The interval length is fixed at 1 so that averages and L2 inner products
    need no measure factors; everything downstream relies on |domain| = 1.
    """

    length: float = 1.0

    def __post_init__(self):
        if self.length != 1.0:
            raise ValueError("domain length is fixed at 1.0")


class CosineBasis:
    """Orthonormal Neumann cosine basis truncated to modes 0..K.

    Holds the eigenvalues lam_k = (k pi)^2, the midpoint quadrature nodes and
    the synthesis matrix phi[k, j] = phi_k(x_j).  `to_grid`/`to_spectral` are
    mutually inverse on band-limited data; `to_spectral` is the discrete L2
    projection (truncation) otherwise.  Transforms are direct matrix products;
    at the mode counts used here (K <= a few hundred) fast transforms buy
    nothing.
    """

    def __init__(self, domain: DomainSpec, mode_count: int, quad_points: int | None = None):
        if mode_count < 2:
            raise ValueError("mode_count must be >= 2")
        if quad_points is None:
            quad_points = 2 * mode_count + 2
        if quad_points < 2 * mode_count + 2:
            raise ValueError("quad_points must be >= 2*mode_count + 2 for exact quadratic products")
        self.domain = domain
        self.mode_count = int(mode_count)
        self.quad_points = int(quad_points)
        self.nodes = _freeze((np.arange(self.quad_points) + 0.5) / self.quad_points)
        k = np.arange(self.mode_count + 1)
        self.eigenvalues = _freeze((k * np.pi) ** 2)
        phi = np.sqrt(2.0) * np.cos(np.pi * np.outer(k, self.nodes))
        phi[0, :] = 1.0
        self._phi = _freeze(phi)

    @property
    def lambda1(self) -> float:
        """First nonzero Neumann eigenvalue pi^2."""
        return float(self.eigenvalues[1])

    def synthesis_matrix(self) -> np.ndarray:
        return self._phi

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(coeffs) @ self._phi

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values) @ self._phi.T / self.quad_points

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CosineBasis)
            and self.mode_count == other.mode_count
            and self.quad_points == other.quad_points
            and self.domain == other.domain
        )

    def __hash__(self):
        return hash((self.mode_count, self.quad_points, self.domain))

    def __repr__(self):
        return f"CosineBasis(K={self.mode_count}, G={self.quad_points})"


def build_basis(domain: DomainSpec, mode_count: int, quad_points: int | None = None) -> CosineBasis:
    return CosineBasis(domain, mode_count, quad_points)


@dataclass(frozen=True)
class DiffusionSpec:
    """Diagonal diffusion E = diag(eps_1..eps_n) with lower bound m0.

    `d_eps = min(eps)` is the quantity every convergence rate is measured
    against; the per-mode operator gains eps_i*lam_k + 1 come from `gains`.
    """

    eps: np.ndarray
    m0: float

    def __post_init__(self):
        object.__setattr__(self, "eps", _freeze(np.atleast_1d(self.eps)))
        if self.eps.ndim != 1 or self.eps.size < 1:
            raise ValueError("eps must be a nonempty 1-d sequence")
        if self.m0 <= 0:
            raise ValueError("m0 must be positive")
        if np.any(self.eps < self.m0):
            raise ValueError("every eps_i must satisfy eps_i >= m0 > 0")

    @property
    def components(self) -> int:
        return self.eps.size

    @property
    def d_eps(self) -> float:
        return float(np.min(self.eps))

    def gains(self, basis: CosineBasis) -> np.ndarray:
        """Per-mode eigenvalues eps_i*lam_k + 1 of -E d^2/dx^2 + I, shape (n, K+1)."""
        return self.eps[:, None] * basis.eigenvalues + 1.0

    def second_eigenvalue(self, basis: CosineBasis) -> float:
        """Smallest operator eigenvalue above 1, equal to d_eps*lam_1 + 1 exactly."""
        return self.d_eps * basis.eigenvalues[1] + 1.0


def diffusion(eps, m0: float | None = None) -> DiffusionSpec:
    """Build a DiffusionSpec; m0 defaults to min(eps)."""
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    if m0 is None:
        m0 = float(np.min(eps))
    return DiffusionSpec(eps=eps, m0=m0)


@dataclass(frozen=True)
class SpectralField:
    """n x (K+1) coefficient array in the cosine basis; the universal state."""

    coeffs: np.ndarray
    basis: CosineBasis

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if c.shape[1] != self.basis.mode_count + 1:
            raise ValueError(
                f"coefficient count {c.shape[1]} does not match basis modes {self.basis.mode_count + 1}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficients")
        object.__setattr__(self, "coeffs", _freeze(c))

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_basis(self, other)
        return SpectralField(self.coeffs + other.coeffs, self.basis)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_basis(self, other)
        return SpectralField(self.coeffs - other.coeffs, self.basis)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.coeffs * scalar, self.basis)

    __rmul__ = __mul__


def _check_same_basis(a, b):
    if a.basis != b.basis:
        raise ValueError("fields do not share a basis")


def constant_field(value, basis: CosineBasis) -> SpectralField:
    """Lift a vector v in R^n to the spatially constant field v * phi_0."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    coeffs = np.zeros((v.size, basis.mode_count + 1))
    coeffs[:, 0] = v
    return SpectralField(coeffs, basis)


def mode_field(basis: CosineBasis, mode: int, amplitude: float = 1.0,
               component: int = 0, components: int = 1) -> SpectralField:
    """Field equal to amplitude * phi_mode in one component, zero elsewhere."""
    coeffs = np.zeros((components, basis.mode_count + 1))
    coeffs[component, mode] = amplitude
    return SpectralField(coeffs, basis)


def random_field(basis: CosineBasis, components: int, rng: np.random.Generator,
                 l2_norm_value: float | None = None) -> SpectralField:
    """Gaussian random coefficients in every mode, optionally L2-normalized."""
    coeffs = rng.standard_normal((components, basis.mode_count + 1))
    if l2_norm_value is not None:
        size = np.sqrt(np.sum(coeffs**2))
        if size == 0.0:
            raise ValueError("cannot normalize an all-zero draw")
        coeffs *= l2_norm_value / size
    return SpectralField(coeffs, basis)


def l2_norm(f: SpectralField) -> float:
    """L2(0,1) norm; by Parseval just the Euclidean coefficient norm."""
    return float(np.sqrt(np.sum(f.coeffs**2)))


def energy_norm(f: SpectralField, E: DiffusionSpec) -> float:
    """Energy norm: sqrt(sum_i sum_k (eps_i lam_k + 1) c_{i,k}^2).

    This is the graph norm of the square root of -E d^2/dx^2 + I, i.e.
    integral of E |grad u|^2 + |u|^2, and dominates the L2 norm.
    """
    return float(np.sqrt(np.sum(E.gains(f.basis) * f.coeffs**2)))


def mean_free_energy(coeffs: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Energy norm of the mean-free part (modes 1..K) of each (n, K+1) row of `coeffs`.

    `gains` is `E.gains(basis)` for every row, or those of one E per row
    stacked to the shape of `coeffs`.  The one temporary is the squared copy,
    which matters for the clouds of a whole sweep.
    """
    w = np.array(coeffs, dtype=float)
    w[..., 0] = 0.0
    w *= w
    w *= gains
    return np.sqrt(np.sum(w, axis=(-2, -1)))


def average_projection(f: SpectralField) -> np.ndarray:
    """Component averages over (0,1); exactly the mode-0 coefficients."""
    return f.coeffs[:, 0].copy()


class EnergyNorm:
    """Energy-norm embedding bound to one (diffusion, basis) pair.

    Used for distance computations on point clouds: the weighted coefficient
    embedding turns the energy norm into a plain Euclidean norm.
    """

    def __init__(self, E: DiffusionSpec, basis: CosineBasis):
        self._weights = _freeze(np.sqrt(E.gains(basis)))

    def embed(self, coeffs: np.ndarray) -> np.ndarray:
        """Scale stacked coefficient arrays (m, n, K+1) into Euclidean space."""
        c = np.asarray(coeffs)
        return (c * self._weights).reshape(c.shape[0], -1)
