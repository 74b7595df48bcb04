"""Equilibria, unstable manifolds, attractor clouds, and manifold estimates.

For the limiting ODE v' + v = F(v) the global attractor is the union of the
unstable manifolds of its (finitely many, hyperbolic) equilibria, so an
ODE attractor cloud is built by damped Newton root finding plus shooting
along unstable eigendirections.  The PDE attractor cloud combines

* PDE equilibria refined in coefficient space (every constant lift of an
  ODE equilibrium is one exactly, since the mean-free forcing vanishes on
  constants),
* unstable-manifold arcs shot with the exponential integrator, and
* long-time tail states of perturbed initial data, which carry the residual
  mean-free content that homogenization is squeezing out.

Arc sampling between the ODE and PDE clouds is synchronized (same offsets,
same sampling times), so cloud-to-cloud Hausdorff distances measure the
PDE-vs-ODE deviation rather than mesh placement artifacts.

Arcs, tails and long-time seeds run through `dynamics.propagate` with a
stepper that carries its dt (`EtdStepper`, or the RK4 `_OdeStepper`), so a
duration T takes ceil(T/dt - 1e-9) whole steps (60,000 for an arc to
ARC_HORIZON at dt = 1e-3) and the long-time cloud includes t_burn.  Every
arc, ODE or PDE, is shot by `_shoot_arcs`; `attractor_pde`, given the d of
a sweep, shoots the arcs of every d in one batch and steps the tails of
every d in one more, each row under its own exact propagator, and a
blow-up fails only the d whose rows blew up (`EtdStepper.failed`).

`graph_iteration` keeps a time loop of its own.  Its trapezoid sum needs
the forcing of every state of the backward flow, and that forcing is also
the next RK4 step's k1, so each step evaluates the forcing four times.
Through `propagate`, an RK4 step knows nothing of the sum and would need a
fifth evaluation, a quarter more of the work that dominates a `manifold`
run: a cProfile'd `perfbench` `manifold` execution (seed 11, 2-core x86-64
host) spent 1.20 of 2.76 s in `graph_iteration`, 1.09 s of it in 9,360
forcing evaluations.

Distances are Hausdorff distances in the energy norm; ODE points are lifted
to constant fields first.  All clouds carry a declared resolution (their max
nearest-neighbor spacing) so every distance statement can be read against
the sampling accuracy.

Every nearest-neighbor maximum (resolution, Hausdorff) goes through
`_farthest_nearest`: an exact k-d tree query screens all rows, then the
few rows tied with the largest tree distance are settled with `cdist`
against the whole reference set, so each result is bit-identical to a
brute-force `cdist` over all pairs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .dynamics import (
    EtdStepper,
    Nonlinearity,
    _galerkin_F,
    _OdeStepper,
    _rk4_step,
    _step_count,
    compute_M_and_mu,
    evolve_pde,  # noqa: F401 -- perfbench traces calls through attractors.evolve_pde
    propagate,
)
from .spectral import (
    CosineBasis,
    DiffusionSpec,
    EnergyNorm,
    SpectralField,
    constant_field,
    mean_free_energy,
)

__all__ = [
    "EquilibriumPoint",
    "AttractorCloud",
    "GraphEstimate",
    "HausdorffResult",
    "NoEquilibriaError",
    "EscapeError",
    "SpectralGapError",
    "ContractionError",
    "find_equilibria_ode",
    "hyperbolicity_check",
    "unstable_manifold_ode",
    "attractor_ode",
    "attractor_ode_longtime",
    "find_equilibria_pde",
    "attractor_pde",
    "hausdorff_distance",
    "manifold_deflection",
    "graph_iteration",
    "save_cloud",
]


class NoEquilibriaError(RuntimeError):
    """No equilibrium found; contradicts dissipativity of -u + F(u)."""


class EscapeError(RuntimeError):
    """An orbit left the absorbing box; contradicts dissipativity."""


class SpectralGapError(RuntimeError):
    """Spectral-gap precondition for the graph iteration fails."""


class ContractionError(RuntimeError):
    """Graph iteration failed to contract."""


HYPERBOLICITY_TOL = 1e-8
LEADING_MODES = 50  # Galerkin modes per component diagonalized in PDE linearizations
NEWTON_TOL = 1e-12  # residual at which a Newton root counts as converged
MERGE_TOL = 1e-8    # roots closer than this are one root
# every unstable-manifold arc, ODE or PDE, starts ARC_OFFSET from its equilibrium
# and runs until it comes within STOP_BALL of another one or ARC_HORIZON runs out
ARC_OFFSET = 1e-5
STOP_BALL = 1e-6
ARC_HORIZON = 60.0


@dataclass(frozen=True)
class EquilibriumPoint:
    """A root of the steady-state equation with its linearization spectrum.

    `location` is a vector (ODE) or a SpectralField (PDE); `eigenvalues` are
    those of the flow linearization, so stability means all real parts
    negative.
    """

    location: object
    eigenvalues: np.ndarray
    residual: float
    kind: str  # "ode" | "pde"

    @property
    def unstable_count(self) -> int:
        return int(np.sum(self.eigenvalues.real > HYPERBOLICITY_TOL))

    @property
    def stability(self) -> str:
        if not hyperbolicity_check(self):
            return "nonhyperbolic"
        if self.unstable_count == 0:
            return "stable"
        return f"unstable({self.unstable_count})"

    def vector(self) -> np.ndarray:
        if self.kind == "ode":
            return np.asarray(self.location, dtype=float)
        return self.location.coeffs[:, 0].copy()


def absorbing_bound(F: Nonlinearity) -> float:
    """The size every absorbing box is built from: F's bound B, or 10 if it declares none."""
    return 10.0 if F.bound is None else F.bound


def hyperbolicity_check(eq: EquilibriumPoint) -> bool:
    """True iff the linearization spectrum stays away from the imaginary axis."""
    return bool(np.min(np.abs(eq.eigenvalues.real)) > HYPERBOLICITY_TOL)


def _damped_newton(residual, jacobian, x0, tol: float, max_iter: int):
    """Newton with backtracking line search; returns (root, |residual|) or None.

    Converged roots are polished with a few full Newton steps so the final
    residual sits at machine level rather than just below tol; downstream
    manifold shooting amplifies any equilibrium offset exponentially.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual(x)
    size = np.linalg.norm(r)
    for _ in range(max_iter):
        if size < tol:
            break
        try:
            step = np.linalg.solve(jacobian(x), -r)
        except np.linalg.LinAlgError:
            return None
        alpha = 1.0
        while alpha > 2.0**-30:
            trial = x + alpha * step
            r_trial = residual(trial)
            size_trial = np.linalg.norm(r_trial)
            if size_trial < (1.0 - 1e-4 * alpha) * size or size_trial < tol:
                x, r, size = trial, r_trial, size_trial
                break
            alpha *= 0.5
        else:
            return None
    if size >= tol:
        return None
    for _ in range(3):
        if size == 0.0:
            break
        try:
            trial = x + np.linalg.solve(jacobian(x), -r)
        except np.linalg.LinAlgError:
            break
        r_trial = residual(trial)
        size_trial = np.linalg.norm(r_trial)
        if size_trial >= size:
            break
        x, r, size = trial, r_trial, size_trial
    return x, size


def _newton_roots(residual, jacobian, seeds, tol: float, merge_tol: float,
                  max_iter: int) -> list[tuple[np.ndarray, float]]:
    """(root, |residual|) from every seed whose damped Newton converges.

    Non-convergent seeds are dropped (their basins are covered by neighbors);
    a root within `merge_tol` of an earlier one is dropped as a duplicate.
    """
    roots = []
    for seed in seeds:
        hit = _damped_newton(residual, jacobian, seed, tol=tol, max_iter=max_iter)
        if hit is None:
            continue
        if not any(np.linalg.norm(hit[0] - r) < merge_tol for r, _ in roots):
            roots.append(hit)
    return roots


def find_equilibria_ode(F: Nonlinearity, box: float, grid_density: int = 11,
                        tol: float = NEWTON_TOL, merge_tol: float = MERGE_TOL,
                        components: int = 1) -> list[EquilibriumPoint]:
    """Damped Newton on -u + F(u) = 0 from every node of a grid over [-box, box]^n.

    Roots outside the search box are dropped: a dissipative field has none
    there.  Finding nothing at all is an error.
    """
    axes = [np.linspace(-box, box, grid_density)] * components
    seeds = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, components)

    def residual(u):
        return -u + F(u)

    def jacobian(u):
        return -np.eye(components) + F.jac(u)

    roots = _newton_roots(residual, jacobian, seeds, tol, merge_tol, max_iter=100)
    roots = [(root, size) for root, size in roots if np.max(np.abs(root)) <= box + merge_tol]
    if not roots:
        raise NoEquilibriaError("no equilibrium found in the search box")
    out = []
    for root, size in sorted(roots, key=lambda item: tuple(item[0])):
        eigs = np.linalg.eigvals(-np.eye(components) + F.jac(root))
        out.append(EquilibriumPoint(location=root, eigenvalues=eigs, residual=size, kind="ode"))
    return out


def _clean_direction(vec: np.ndarray) -> np.ndarray:
    """Normalize an eigendirection, zeroing roundoff-level entries.

    Shooting amplifies the direction by e^{lambda t} over tens of time units,
    so 1e-17 eigensolver noise in structurally-zero entries would grow into
    visible arc perturbations (and break bitwise agreement of arcs across
    diffusion strengths).
    """
    out = vec.copy()
    out[np.abs(out) < 1e-12 * np.max(np.abs(out))] = 0.0
    return out / np.linalg.norm(out)


def _unstable_directions(matrix: np.ndarray) -> list[np.ndarray]:
    """Cleaned real eigenvectors of `matrix` whose eigenvalues lie right of the axis."""
    eigvals, eigvecs = np.linalg.eig(matrix)
    directions = []
    for lam, vec in zip(eigvals, eigvecs.T):
        if lam.real > HYPERBOLICITY_TOL:
            if abs(lam.imag) > HYPERBOLICITY_TOL:
                raise NotImplementedError("complex unstable pairs are not supported")
            directions.append(_clean_direction(vec.real))
    return directions


def _shoot_arcs(stepper, starts, sample_dt: float, horizon: float, targets, stop_ball: float,
                check=None):
    """Shoot every row of `starts` in lockstep until it stops; return each row's samples.

    `propagate` steps the rows with `stepper` in the whole steps of its dt
    that cover `horizon`.  Every `sample_dt` each active row is passed to
    `check(row, t)`, sampled, and retired once it lies within `stop_ball` of
    one of its own targets (`targets[i]`, a list of states, for row i); the
    others run until the horizon.  The rows of a d that blew up
    (`EtdStepper.failed`) retire at the next sample.

    `samples[i]` holds row i's samples, led by its start state, exactly as
    shooting the row alone would produce them.
    """
    starts = np.array(starts, dtype=float)
    rows = len(starts)
    steps = _step_count(horizon, stepper.dt)
    stride = max(1, round(sample_dt / stepper.dt))
    # one buffer per row, sized for the whole horizon; only the pages the
    # samples fill are ever touched, and each row's buffer is freed on its own
    samples = [np.empty((steps // stride + 1,) + starts.shape[1:]) for _ in range(rows)]
    for buffer, start in zip(samples, starts):
        buffer[0] = start
    counts = np.zeros(rows, dtype=int)  # set as each row retires
    taken = 1  # samples of every active row
    # every row's targets in one (rows, targets, state size) array; an
    # absent target lies at infinity
    ends = np.full((rows, max(map(len, targets), default=0), starts[0].size), np.inf)
    for i, own in enumerate(targets):
        if own:
            ends[i, :len(own)] = np.reshape(own, (len(own), -1))
    near_limit = (2.0 * stop_ball) ** 2
    active = np.arange(rows)

    def sample(batch, t):
        nonlocal active, ends, taken
        for r, row in zip(active, batch):
            if check is not None:
                check(row, t)
            samples[r][taken] = row
        taken += 1
        # a screen far wider than the rounding of either norm sends only the
        # rows near a target to the exact per-target test
        gaps = batch.reshape(len(batch), 1, -1) - ends
        near = np.einsum("ijk,ijk->ij", gaps, gaps) < near_limit
        if not stepper.failed and not near.any():
            return None
        running = np.ones(len(active), dtype=bool)
        if stepper.failed:
            running = ~np.isin(stepper.owner[active], list(stepper.failed))
        for i in np.flatnonzero(near.any(axis=1) & running):
            running[i] = not any(np.linalg.norm(batch[i] - tgt) < stop_ball
                                 for tgt in targets[active[i]])
        if not running.all():
            counts[active[~running]] = taken
            active, ends = active[running], ends[running]
        return running

    propagate(stepper, starts, steps, stride, sample)
    counts[active] = taken
    return [buffer[:count] for buffer, count in zip(samples, counts)]


def unstable_manifold_ode(eq: EquilibriumPoint, F: Nonlinearity, others=(),
                          dt: float = 1e-3, sample_dt: float = 1e-2,
                          horizon: float = ARC_HORIZON, box: float | None = None) -> np.ndarray:
    """Shoot the 1-d unstable directions of a hyperbolic equilibrium.

    Integrates v' = -v + F(v) from eq +- ARC_OFFSET*xi along each unstable
    eigendirection xi, sampling every `sample_dt` until the orbit comes within
    STOP_BALL of another equilibrium or the horizon runs out.  Orbits
    escaping the absorbing box abort the computation.
    """
    if eq.unstable_count == 0:
        raise ValueError("equilibrium has no unstable direction")
    if not hyperbolicity_check(eq):
        raise ValueError("equilibrium is not hyperbolic")
    base = eq.vector()
    directions = _unstable_directions(-np.eye(base.size) + F.jac(base))
    if box is None:
        box = absorbing_bound(F) + 2.0

    def inside_box(v, t):
        if np.linalg.norm(v) > box:
            raise EscapeError(f"manifold orbit escaped |v| <= {box} at t={t:.3g}")

    starts = [base + sign * ARC_OFFSET * direction
              for direction in directions for sign in (+1.0, -1.0)]
    ends = [o.vector() for o in others]
    arcs = _shoot_arcs(_OdeStepper(F, dt), starts, sample_dt, horizon, [ends] * len(starts),
                       STOP_BALL, inside_box)
    return np.concatenate(arcs)


@dataclass
class AttractorCloud:
    """Finite sample of an attractor with provenance and sampling metadata.

    `points` has shape (m, n) for ODE clouds and (m, n, K+1) for PDE clouds.
    The declared resolution is the maximum nearest-neighbor spacing in the
    cloud's own norm; every distance statement should be read against it.
    `equilibria` holds the EquilibriumPoints an ODE manifold-union cloud was
    built from; it is not written by `save_cloud`.
    """

    points: np.ndarray
    kind: str  # "ode" | "pde"
    provenance: list[str]
    meta: dict = field(default_factory=dict)
    basis: CosineBasis | None = None
    diffusion: DiffusionSpec | None = None
    equilibria: list = field(default_factory=list)
    _resolution: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.shape[0] == 0:
            raise ValueError("attractor cloud must be nonempty")
        if self.kind == "pde" and (self.basis is None or self.diffusion is None):
            raise ValueError("pde clouds need basis and diffusion handles")

    def __len__(self) -> int:
        return self.points.shape[0]

    def embedded(self, E: DiffusionSpec | None = None, basis: CosineBasis | None = None) -> np.ndarray:
        """Points as rows in the weighted-coefficient (energy) embedding."""
        if self.kind == "ode":
            if basis is None:
                return self.points.reshape(len(self), -1)
            lifted = np.zeros((len(self), self.points.shape[1], basis.mode_count + 1))
            lifted[:, :, 0] = self.points
            coeffs = lifted
        else:
            coeffs = self.points
            basis = self.basis if basis is None else basis
        E = self.diffusion if E is None else E
        return EnergyNorm(E, basis).embed(coeffs)

    def resolution(self) -> float:
        """Max nearest-neighbor spacing (energy norm for PDE, Euclidean for ODE).

        Never reported below the builder's quantization floor (e.g. the dedup
        cell of long-time sampling), which bounds the cloud's accuracy even
        when the surviving points happen to sit close together.  Computed
        once per cloud: a cloud is not changed after it is built.
        """
        if self._resolution is None:
            floor = float(self.meta.get("resolution_floor", 0.0))
            if len(self) < 2:
                self._resolution = floor
            else:
                emb = self.embedded()
                self._resolution = max(_farthest_nearest(emb, emb, skip_self=True), floor)
        return self._resolution


def attractor_ode(F: Nonlinearity, grid_density: int = 11, components: int = 1,
                  dt: float = 1e-3, sample_dt: float = 1e-2) -> AttractorCloud:
    """ODE attractor as the union of equilibria and unstable-manifold arcs."""
    box = absorbing_bound(F) + 1.0
    equilibria = find_equilibria_ode(F, box, grid_density, components=components)
    for eq in equilibria:
        if not hyperbolicity_check(eq):
            raise ValueError(f"non-hyperbolic equilibrium at {eq.vector()}; manifold union undefined")
    points = [eq.vector() for eq in equilibria]
    provenance = ["equilibrium"] * len(points)
    for eq in equilibria:
        if eq.unstable_count == 0:
            continue
        arc = unstable_manifold_ode(eq, F, others=[o for o in equilibria if o is not eq],
                                    dt=dt, sample_dt=sample_dt, box=box + 1.0)
        points.extend(arc)
        provenance.extend(["manifold_union"] * len(arc))
    meta = {"F": F.name, "params": F.params, "sample_dt": sample_dt, "offset": ARC_OFFSET}
    return AttractorCloud(np.array(points), "ode", provenance, meta, equilibria=equilibria)


def attractor_ode_longtime(F: Nonlinearity, n_seeds: int = 2000, box: float | None = None,
                           components: int = 1, t_burn: float = 4.0, t_end: float = 20.0,
                           dt: float = 1e-3, sample_dt: float = 1e-2,
                           dedup_cell: float = 1.25e-3, seed: int = 0) -> AttractorCloud:
    """Long-time sampling: post-burn-in orbit segments of many seeds.

    Orbits are integrated in lockstep; states for t in [t_burn, t_end], both
    ends included, are sampled every `sample_dt` and deduplicated on cells
    of size `dedup_cell` (first occupant wins, in sample then row order).
    The dedup streams: each sample is checked against a sorted array of the
    cells seen so far and only the rows in new cells are kept, so memory
    grows with the cloud, not with seeds x samples, and no grid over the box
    is needed however small the cell.  `meta["samples"]` counts the rows
    the dedup saw.

    Seed magnitudes are geometric over the eight decades below `box`
    rather than uniform: uniform seeds all escape the neighborhood of an
    unstable equilibrium before the burn-in ends, leaving the slow middle of
    the attractor uncovered, while geometric magnitudes put some orbit in
    every region at every post-burn-in time.
    """
    if box is None:
        box = absorbing_bound(F) + 1.0
    decades = 8.0
    if components == 1:
        half = n_seeds // 2
        mags = box * 10.0 ** np.linspace(0.0, -decades, half)
        parts = [mags, -mags]
        if n_seeds % 2:
            parts.append(np.zeros(1))
        v = np.concatenate(parts)[None, :].copy()
    else:
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal((components, n_seeds))
        direction /= np.sqrt(np.sum(direction**2, axis=0))
        radius = box * 10.0 ** rng.uniform(-decades, 0.0, size=n_seeds)
        v = direction * radius
    stride = max(1, round(sample_dt / dt))
    burn = _step_count(t_burn, dt)
    step_index = itertools.count(stride, stride)
    key_type = np.dtype((np.void, 8 * components))  # one row's int64 cells as one key
    seen = np.empty(0, key_type)  # sorted
    kept = []

    def sample(batch, t):
        nonlocal seen
        if next(step_index) < burn:
            return
        cells = np.ascontiguousarray(np.round(batch / dedup_cell).astype(np.int64))
        keys, first = np.unique(cells.view(key_type).ravel(), return_index=True)
        pos = np.searchsorted(seen, keys)
        new = pos == len(seen)
        new[~new] = seen[pos[~new]] != keys[~new]
        kept.append(batch[np.sort(first[new])])
        seen = np.insert(seen, pos[new], keys[new])

    propagate(_OdeStepper(F, dt), v.T, _step_count(t_end, dt), stride, sample)
    points = np.concatenate(kept, axis=0)
    meta = {"F": F.name, "params": F.params, "n_seeds": n_seeds, "t_burn": t_burn,
            "t_end": t_end, "dedup_cell": dedup_cell,
            "resolution_floor": dedup_cell * np.sqrt(components),
            "samples": len(kept) * v.shape[1]}
    return AttractorCloud(points, "ode", ["long_time_sampling"] * len(points), meta)


def _galerkin_head(c: np.ndarray, basis: CosineBasis, E: DiffusionSpec, F: Nonlinearity,
                   m: int) -> tuple[np.ndarray, np.ndarray]:
    """Galerkin matrix of -A + F'(u) on the leading m modes of each component.

    `c` holds the coefficients of u; returns (head, jvals), with jvals = F'(u)
    on the grid.
    """
    n = c.shape[0]
    phi = basis.synthesis_matrix()[:m]
    jvals = F.jac(basis.to_grid(c))
    head = np.zeros((n * m, n * m))
    for i in range(n):
        for j in range(n):
            block = (phi * jvals[i, j][None, :]) @ phi.T / basis.quad_points
            head[i * m:(i + 1) * m, j * m:(j + 1) * m] = block
    head -= np.diag(E.gains(basis)[:, :m].ravel())
    return head, jvals


def pde_linearization_spectrum(u: SpectralField, E: DiffusionSpec, F: Nonlinearity) -> np.ndarray:
    """Eigenvalues of the flow linearization -A + F'(u) at a state u.

    A Galerkin matrix on the leading modes is diagonalized exactly; the far
    tail is diagonal-dominated and appended analytically as
    -(eps_i lam_k + 1) + mean(F'_ii).
    """
    m = min(LEADING_MODES, u.basis.mode_count + 1)
    head, jvals = _galerkin_head(u.coeffs, u.basis, E, F, m)
    eigs = np.linalg.eigvals(head)
    gains = E.gains(u.basis)
    tail = []
    for i in range(u.components):
        diag_avg = float(np.mean(jvals[i, i]))
        tail.extend(-gains[i, m:] + diag_avg)
    return np.concatenate([eigs, np.array(tail, dtype=complex)])


def find_equilibria_pde(E: DiffusionSpec, F: Nonlinearity,
                        seeds: list[SpectralField]) -> list[EquilibriumPoint]:
    """Newton on A u = F(u) in coefficient space from the given seed fields.

    The diagonal operator preconditions the linear solves (the system is
    scaled by 1/gains).  Seeds that do not converge are skipped; callers who
    care pass better seeds.
    """
    if not seeds:
        raise ValueError("need at least one seed field")
    basis = seeds[0].basis
    n = E.components
    K1 = basis.mode_count + 1
    gains = E.gains(basis)
    inv_gains = 1.0 / gains.ravel()

    def residual(flat):
        c = flat.reshape(n, K1)
        return (gains * c - _galerkin_F(F, c, basis)).ravel()

    def residual_pc(flat):
        return inv_gains * residual(flat)

    def jacobian_pc(flat):
        return inv_gains[:, None] * -_galerkin_head(flat.reshape(n, K1), basis, E, F, K1)[0]

    roots = _newton_roots(residual_pc, jacobian_pc, [seed.coeffs.ravel() for seed in seeds],
                          NEWTON_TOL, MERGE_TOL, max_iter=60)
    if not roots:
        raise NoEquilibriaError("no PDE equilibrium found from the given seeds")
    out = []
    for root, _ in sorted(roots, key=lambda item: tuple(np.round(item[0], 12))):
        u = SpectralField(root.reshape(n, K1), basis)
        res = float(np.linalg.norm(residual(root)))
        eigs = pde_linearization_spectrum(u, E, F)
        out.append(EquilibriumPoint(location=u, eigenvalues=eigs, residual=res, kind="pde"))
    return out


def _pde_unstable_directions(eq: EquilibriumPoint, E: DiffusionSpec,
                             F: Nonlinearity) -> list[np.ndarray]:
    u = eq.location
    m = min(LEADING_MODES, u.basis.mode_count + 1)
    directions = []
    for vec in _unstable_directions(_galerkin_head(u.coeffs, u.basis, E, F, m)[0]):
        full = np.zeros_like(u.coeffs)
        full[:, :m] = vec.reshape(u.components, m)
        directions.append(full)
    return directions


def attractor_pde(Es, F: Nonlinearity, basis: CosineBasis, ode_cloud: AttractorCloud,
                  n_tails: int = 24, w_amplitude: float = 0.1, t_trans: float = 1.0,
                  dt: float = 1e-3, sample_dt: float = 1e-2, seed: int = 0):
    """PDE attractor cloud: equilibria + shot unstable manifolds + tail states.

    `ode_cloud` must come from `attractor_ode`: its equilibria, lifted to
    constants, seed the PDE Newton solve.  Tails start from its points
    (already on the limit attractor) lifted to constants and perturbed by a
    mean-free field in modes 1..8 with L2 norm `w_amplitude`; evolving them
    for `t_trans` leaves exactly the mean-free content the homogenization
    estimates control (`t_trans = 0` keeps them as drawn).  `t_trans` and
    `sample_dt` should stay commensurate so tails stay synchronized with the
    arc sampling of the reference ODE cloud.

    `Es` is a sequence of DiffusionSpecs (the d of a sweep), and every cloud
    is built in one lockstep flow: after each E's Newton solve, one
    `propagate` steps the arc rows of every E (E x equilibrium x direction x
    sign), each under its own exact propagator, and one more steps the tail
    rows of every E.  A row steps bit for bit as it would alone, so each
    cloud equals the one its E builds alone.  Returns one entry per E: its
    cloud, or the error that failed that E only (its Newton solve, or a
    blow-up of its rows, with its own time and norm).
    """
    failed = {}
    equilibria = {}
    starts, owner, targets = [], [], []
    seeds = [constant_field(eq.vector(), basis) for eq in ode_cloud.equilibria]
    for i, Ei in enumerate(Es):
        try:
            eqs = find_equilibria_pde(Ei, F, seeds)
            for eq in eqs:
                if eq.unstable_count == 0 or not hyperbolicity_check(eq):
                    continue
                ends = [o.location.coeffs for o in eqs if o is not eq]
                for direction in _pde_unstable_directions(eq, Ei, F):
                    for sign in (+1.0, -1.0):
                        starts.append(eq.location.coeffs + sign * ARC_OFFSET * direction)
                        owner.append(i)
                        targets.append(ends)
        except (RuntimeError, ValueError) as err:  # what fails one point of a sweep
            failed[i] = err
            continue
        equilibria[i] = eqs

    arcs = []
    if starts:
        stepper = EtdStepper(basis, Es, F, dt, owner)
        arcs = _shoot_arcs(stepper, starts, sample_dt, ARC_HORIZON, targets, STOP_BALL)
        failed.update(stepper.failed)

    alive = [i for i in range(len(Es)) if i not in failed]
    rng = np.random.default_rng(seed)
    n, K1 = Es[0].components, basis.mode_count + 1
    tails = np.zeros((n_tails, n, K1))
    kmax = min(8, basis.mode_count)
    for c, idx in zip(tails, np.linspace(0, len(ode_cloud) - 1, n_tails).astype(int)):
        c[:, 0] = ode_cloud.points[idx]
        w = np.zeros_like(c)
        w[:, 1:kmax + 1] = rng.standard_normal((n, kmax))
        w *= w_amplitude / np.sqrt(np.sum(w**2))
        c += w
    moved = {}
    if n_tails > 0 and alive:
        stepper = EtdStepper(basis, Es, F, dt, np.repeat(alive, n_tails))
        batch, _ = propagate(stepper, np.concatenate([tails] * len(alive)),
                             _step_count(t_trans, dt))
        failed.update(stepper.failed)
        moved = {i: batch[k * n_tails:(k + 1) * n_tails] for k, i in enumerate(alive)}

    clouds = []
    for i, Ei in enumerate(Es):
        own = [r for r, o in enumerate(owner) if o == i]
        if i in failed:
            clouds.append(failed[i])
        else:
            eqs = equilibria[i]
            parts = [np.array([eq.location.coeffs for eq in eqs]), *(arcs[r] for r in own),
                     moved.get(i, tails)]
            provenance = (["equilibrium"] * len(eqs)
                          + ["manifold_union"] * sum(len(arcs[r]) for r in own)
                          + ["long_time_sampling"] * n_tails)
            meta = {"F": F.name, "params": F.params, "d_eps": Ei.d_eps, "K": basis.mode_count,
                    "t_trans": t_trans, "w_amplitude": w_amplitude, "n_tails": n_tails,
                    "sample_dt": sample_dt}
            clouds.append(AttractorCloud(np.concatenate(parts), "pde", provenance, meta,
                                         basis=basis, diffusion=Ei))
        for r in own:
            arcs[r] = None  # free each row's samples once its cloud holds them
    return clouds


@dataclass(frozen=True)
class HausdorffResult:
    sym: float
    a_to_b: float
    b_to_a: float
    resolution_a: float
    resolution_b: float


# the cdist settle of _farthest_nearest computes at most this many distances at once
SETTLE_BLOCK = 2**22


def _farthest_nearest(query: np.ndarray, ref: np.ndarray, skip_self: bool = False) -> float:
    """max over rows of `query` of the distance to the nearest row of `ref`.

    With `skip_self`, `query` is `ref` and each row's own pair is excluded.
    An exact k-d tree query screens every row; only rows within a relative
    1e-9 of the largest tree distance (the tree may round differently in
    the last bits) are recomputed with `cdist` against all of `ref`, so the
    result equals a brute-force `cdist` maximum bit for bit.  Rows tied at
    the maximum (every row of a cloud of equally spaced points) are settled
    in blocks of at most SETTLE_BLOCK distances.
    """
    dist, _ = cKDTree(ref).query(query, k=2 if skip_self else 1)
    nearest = dist[:, -1] if skip_self else dist
    top = float(nearest.max())
    if top == 0.0:
        return 0.0
    rows = np.flatnonzero(nearest >= top * (1.0 - 1e-9))
    size = max(1, SETTLE_BLOCK // len(ref))
    best = 0.0
    for block in np.split(rows, range(size, rows.size, size)):
        d = cdist(query[block], ref)
        if skip_self:
            d[np.arange(block.size), block] = np.inf
        best = max(best, float(d.min(axis=1).max()))
    return best


def hausdorff_distance(cloud_a: AttractorCloud, cloud_b: AttractorCloud,
                       E: DiffusionSpec, basis: CosineBasis) -> HausdorffResult:
    """Both one-sided deviations and their max, in the energy norm.

    ODE clouds are lifted to constant fields first (constants have a pure
    L2 norm, so ODE-to-ODE distances reduce to Euclidean ones).
    """
    emb_a = cloud_a.embedded(E, basis)
    emb_b = cloud_b.embedded(E, basis)
    if emb_a.shape[1] != emb_b.shape[1]:
        raise ValueError("clouds do not embed into a common space")
    ab = _farthest_nearest(emb_a, emb_b)
    ba = _farthest_nearest(emb_b, emb_a)
    return HausdorffResult(sym=max(ab, ba), a_to_b=ab, b_to_a=ba,
                           resolution_a=cloud_a.resolution(),
                           resolution_b=cloud_b.resolution())


def manifold_deflection(cloud: AttractorCloud) -> float:
    """sup over cloud points of the mean-free energy norm |(I-P)u|.

    A lower proxy for the graph sup-norm of the invariant manifold,
    restricted to the attractor sample.
    """
    if cloud.kind != "pde":
        raise ValueError("deflection needs a PDE cloud")
    return float(np.max(mean_free_energy(cloud.points, cloud.diffusion.gains(cloud.basis))))


def save_cloud(cloud: AttractorCloud, csv_path) -> None:
    """CSV with one row per point (provenance + coefficients) plus a JSON sidecar."""
    from .rates import write_table  # rates imports this module

    csv_path = str(csv_path)
    flat = cloud.points.reshape(len(cloud), -1)
    write_table(csv_path, ["provenance", *(f"c{j}" for j in range(flat.shape[1]))],
                [[prov, *row] for prov, row in zip(cloud.provenance, flat.tolist())])
    sidecar = {
        "kind": cloud.kind,
        "shape": list(cloud.points.shape),
        "meta": cloud.meta,
        "resolution": cloud.resolution(),
        "basis_modes": cloud.basis.mode_count if cloud.basis else None,
        "eps": list(cloud.diffusion.eps) if cloud.diffusion else None,
    }
    with open(csv_path + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


@dataclass
class GraphEstimate:
    """Grid-restricted graph of the invariant manifold over the constants."""

    v_grid: np.ndarray          # (m, n) flattened grid nodes
    w_coeffs: np.ndarray        # (m, n, K+1), mode 0 identically zero
    sup_norm: float
    contraction_factors: list[float]
    clamped: int
    horizon: float
    iterations: int


def graph_iteration(E: DiffusionSpec, F: Nonlinearity, basis: CosineBasis,
                    iters: int = 8, dt: float = 1e-3, mu: float | None = None,
                    initial: np.ndarray | None = None, box: float | None = None,
                    grid_points: int = 41) -> GraphEstimate:
    """Fixed-point iteration of the manifold graph map on a grid of base points.

    Each sweep integrates the base flow v' = v - S(v, w(v)) backward from
    every grid node over the horizon 10/gap and accumulates the mean-free
    forcing Q(v, w(v)) against the exact decaying propagator (composite
    trapezoid in time); the graph values w are grid-interpolated.  Requires
    the spectral gap d*lam_1 + 1 - mu > Lip(F); aborts if the iteration fails
    to contract, and stops early once a sweep changes the graph by less than
    1e-14.  Backward-flow states leaving the grid hull are clamped to it for
    the interpolation; each such state is counted once in `clamped`.
    """
    n = E.components
    lam2 = E.second_eigenvalue(basis)
    if mu is None:
        mu = compute_M_and_mu(E, basis, horizon=10.0).mu
    gap = lam2 - mu - F.lip
    if gap <= 0:
        raise SpectralGapError(
            f"spectral-gap precondition fails: d*lam1+1 - mu = {lam2 - mu:.4g} "
            f"must exceed Lip(F) = {F.lip:.4g}")
    horizon = 10.0 / gap
    if box is None:
        box = 1.2 * (absorbing_bound(F) + 0.5)
    axes = (np.linspace(-box, box, grid_points),) * n
    v_grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)  # (m, n)
    m = v_grid.shape[0]
    K1 = basis.mode_count + 1
    gains = E.gains(basis)

    s = np.zeros((m, n, K1)) if initial is None else np.array(initial, dtype=float).copy()
    if s.shape != (m, n, K1):
        raise ValueError("initial graph values have the wrong shape")
    s[:, :, 0] = 0.0

    steps = _step_count(horizon, dt)
    step_decay = np.exp(-gains * dt)
    clamped = 0
    factors: list[float] = []
    prev_diff = None

    for sweep in range(iters):
        interp = RegularGridInterpolator(
            axes, s.reshape((grid_points,) * n + (n * K1,)),
            method="linear", bounds_error=False, fill_value=None)

        def forcing(v):
            # coefficients of F(v + w(v)): mode 0 is S, the others Q
            c = interp(np.clip(v, -box, box)).reshape(-1, n, K1)
            c[:, :, 0] = v
            return _galerkin_F(F, c, basis)

        def backward_rhs(v):
            return v - forcing(v)[:, :, 0]

        v = v_grid.copy()
        decay = np.ones((n, K1))
        accum = np.zeros((m, n, K1))
        for j in range(steps + 1):
            if j:
                # the last state's forcing, already evaluated, is the step's k1
                v = _rk4_step(v, dt, backward_rhs, k1)
                decay = decay * step_decay
            clamped += int(np.count_nonzero(np.any(np.abs(v) > box, axis=1)))
            q = forcing(v)
            k1 = v - q[:, :, 0]
            q[:, :, 0] = 0.0
            weight = 0.5 * dt if j in (0, steps) else dt
            accum = accum + weight * decay[None] * q

        diff = float(np.max(mean_free_energy(accum - s, gains)))
        s = accum
        if prev_diff is not None and prev_diff > 0:
            factor = diff / prev_diff
            factors.append(float(factor))
            if factor >= 1.0:
                raise ContractionError(
                    f"graph iteration is not contracting (factor {factor:.3g} at sweep {sweep})")
        prev_diff = diff
        if diff < 1e-14:
            break

    return GraphEstimate(v_grid=v_grid, w_coeffs=s,
                         sup_norm=float(np.max(mean_free_energy(s, gains))),
                         contraction_factors=factors, clamped=clamped, horizon=horizon,
                         iterations=sweep + 1)
