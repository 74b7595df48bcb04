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

Arcs, tails and long-time seeds, ODE and PDE, are stepped by one
integrator, ETD2RK: `EtdStepper` for the PDE and `OdeEtdStepper`, its mode
0, for the limit ODE.  They run through `dynamics.propagate` with a stepper
that carries its dt, so a duration T takes ceil(T/dt - 1e-9) whole steps
(60,000 for an arc to ARC_HORIZON at dt = 1e-3, 120,000 at dt = 5e-4) and
the long-time cloud includes t_burn.  Each equilibrium's finder decomposes
its linearization once (`_spectrum`), and every arc, ODE or PDE, leaves
along one of the unstable directions the equilibrium carries
(`_arc_shots`, which refuses a non-hyperbolic one) and is shot by
`_shoot_arcs`.  `unstable_manifold_ode` shoots the arcs of all equilibria
in one batch; `attractor_pde`, given the d of a sweep, shoots the arcs of
every d in one batch and steps the tails of every d in one more, each row
under its own exact propagator, and a blow-up fails only the d whose rows
blew up (`EtdStepper.failed`).

`graph_iteration` keeps a time loop of its own.  It steps the limit flow
backward by the same ETD2RK, at step -dt, and its trapezoid sum needs the
forcing of every state it passes.  That forcing is also the first stage of
the step from the state, so each step evaluates the forcing twice.  Through
`propagate`, a step knows nothing of the sum and would need a third
evaluation, half again the work that dominates a `manifold` run: a
cProfile'd `perfbench` `manifold` execution (seed 11, 2-core x86-64 host)
spent 0.56 of 1.25 s in `graph_iteration`, 0.46 s of it in 4,688 forcing
evaluations, 0.22 s of those in the grid blend.

Distances are Hausdorff distances in the energy norm; ODE points are lifted
to constant fields first.  All clouds carry a declared resolution (their max
nearest-neighbor spacing) so every distance statement can be read against
the sampling accuracy.

Every nearest-neighbor maximum (resolution, Hausdorff) goes through
`_farthest_nearest`: a sort-and-sweep screen in numpy finds each row's
nearest distance among the few rows of its window, summing the squares of
each pair once, in scipy `cdist`'s order, so each result is bit-identical
to a brute-force `cdist` over all pairs.  The clouds are arcs, equilibria
and a few tails, close to one-dimensional, so a row's window on the sorted
coordinate holds a handful of rows.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .dynamics import (
    POINT_ERRORS,
    EtdStepper,
    Nonlinearity,
    OdeEtdStepper,
    _etd_weights,
    _galerkin_F,
    _step_count,
    compute_M_and_mu,
    evolve_pde,  # noqa: F401 -- perfbench traces calls through attractors.evolve_pde
    propagate,
    try_point,
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
    "NonHyperbolicError",
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


class NonHyperbolicError(RuntimeError):
    """An equilibrium has an eigenvalue on the imaginary axis; its unstable manifold is undefined."""


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
    negative.  `directions` holds a real unit eigenvector of each unstable
    eigenvalue, shaped like the state (a PDE one zero-padded to K+1 modes).
    """

    location: object
    eigenvalues: np.ndarray
    directions: list
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

    def state(self) -> np.ndarray:
        return self.vector() if self.kind == "ode" else self.location.coeffs


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
    return [EquilibriumPoint(root, *_spectrum(-np.eye(components) + F.jac(root)),
                             residual=size, kind="ode")
            for root, size in sorted(roots, key=lambda item: tuple(item[0]))]


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


def _spectrum(matrix: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Eigenvalues of a linearization and the cleaned real eigenvectors of its unstable ones."""
    eigvals, eigvecs = np.linalg.eig(matrix)
    directions = []
    for lam, vec in zip(eigvals, eigvecs.T):
        if lam.real > HYPERBOLICITY_TOL:
            if abs(lam.imag) > HYPERBOLICITY_TOL:
                raise NotImplementedError("complex unstable pairs are not supported")
            directions.append(_clean_direction(vec.real))
    return eigvals, directions


def _arc_shots(equilibria) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Start and targets of each arc: every unstable direction, both ways, toward the others.

    A non-hyperbolic equilibrium leaves the manifold union undefined.
    """
    neutral = [eq.vector() for eq in equilibria if not hyperbolicity_check(eq)]
    if neutral:
        raise NonHyperbolicError(f"non-hyperbolic equilibrium at {neutral[0]}; "
                                 "manifold union undefined")
    return [(eq.state() + sign * ARC_OFFSET * direction,
             [o.state() for o in equilibria if o is not eq])
            for eq in equilibria for direction in eq.directions for sign in (+1.0, -1.0)]


def _shoot_arcs(stepper, starts, sample_dt: float, horizon: float, targets, stop_ball: float,
                check=None):
    """Shoot every row of `starts` in lockstep until it stops; return each row's samples.

    `propagate` steps the rows with `stepper` in the whole steps of its dt
    that cover `horizon`.  Every `sample_dt` the batch of active rows is
    passed to `check(batch, t)`, each row is sampled, and a row retires once
    its squared gap to one of its own targets (`targets[i]`, a list of
    states, for row i) is below `stop_ball**2`; the others run until the
    horizon.  The rows of a d that blew up (`EtdStepper.failed`) retire at
    the next sample.

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
    stop_sq = stop_ball**2
    active = np.arange(rows)

    def sample(batch, t):
        nonlocal active, ends, taken
        if check is not None:
            check(batch, t)
        for r, row in zip(active, batch):
            samples[r][taken] = row
        taken += 1
        gaps = batch.reshape(len(batch), 1, -1) - ends
        done = (np.einsum("ijk,ijk->ij", gaps, gaps) < stop_sq).any(axis=1)
        if stepper.failed:
            done |= np.isin(stepper.owner[active], list(stepper.failed))
        if not done.any():
            return None
        counts[active[done]] = taken
        active, ends = active[~done], ends[~done]
        return ~done

    propagate(stepper, starts, steps, stride, sample)
    counts[active] = taken
    return [buffer[:count] for buffer, count in zip(samples, counts)]


def unstable_manifold_ode(equilibria: list[EquilibriumPoint], F: Nonlinearity,
                          dt: float = 1e-3, sample_dt: float = 1e-2,
                          horizon: float = ARC_HORIZON, box: float | None = None) -> np.ndarray:
    """Shoot the 1-d unstable directions of every equilibrium, in one batch.

    Integrates v' = -v + F(v) with ETD2RK (`OdeEtdStepper`) in whole steps
    of `dt` from eq +- ARC_OFFSET*xi along each unstable eigendirection xi
    of each equilibrium, sampling every `sample_dt` until the orbit comes
    within STOP_BALL of another equilibrium or the horizon runs out.  Orbits
    escaping the absorbing box abort the computation.
    """
    shots = _arc_shots(equilibria)
    if not shots:
        return np.empty((0, equilibria[0].vector().size))
    if box is None:
        box = absorbing_bound(F) + 2.0

    def inside_box(batch, t):
        if (np.linalg.norm(batch, axis=1) > box).any():
            raise EscapeError(f"manifold orbit escaped |v| <= {box} at t={t:.3g}")

    arcs = _shoot_arcs(OdeEtdStepper(F, dt), [start for start, _ in shots], sample_dt, horizon,
                       [ends for _, ends in shots], STOP_BALL, inside_box)
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
    arcs = unstable_manifold_ode(equilibria, F, dt=dt, sample_dt=sample_dt, box=box + 1.0)
    points = np.concatenate([[eq.vector() for eq in equilibria], arcs])
    provenance = ["equilibrium"] * len(equilibria) + ["manifold_union"] * len(arcs)
    meta = {"F": F.name, "params": F.params, "sample_dt": sample_dt, "offset": ARC_OFFSET}
    return AttractorCloud(points, "ode", provenance, meta, equilibria=equilibria)


def attractor_ode_longtime(F: Nonlinearity, n_seeds: int = 2000, box: float | None = None,
                           components: int = 1, t_burn: float = 4.0, t_end: float = 20.0,
                           dt: float = 1e-3, sample_dt: float = 1e-2,
                           dedup_cell: float = 1.25e-3, seed: int = 0) -> AttractorCloud:
    """Long-time sampling: post-burn-in orbit segments of many seeds.

    Orbits are integrated in lockstep with ETD2RK (`OdeEtdStepper`); states
    for t in [t_burn, t_end], both ends included, are sampled every
    `sample_dt` and deduplicated on cells of size `dedup_cell` (first
    occupant wins, in sample then row order).
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
        rng = default_rng(seed)
        direction = rng.standard_normal((components, n_seeds))
        direction /= np.sqrt(np.sum(direction**2, axis=0))
        radius = box * 10.0 ** rng.uniform(-decades, 0.0, size=n_seeds)
        v = direction * radius
    stride = max(1, round(sample_dt / dt))
    burn = _step_count(t_burn, dt)
    step_index = itertools.count(stride, stride)
    # one row's int64 cells as one key; int64 itself sorts faster than a void key
    key_type = np.int64 if components == 1 else np.dtype((np.void, 8 * components))
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

    propagate(OdeEtdStepper(F, dt), v.T, _step_count(t_end, dt), stride, sample)
    points = np.concatenate(kept, axis=0)
    meta = {"F": F.name, "params": F.params, "n_seeds": n_seeds, "t_burn": t_burn,
            "t_end": t_end, "dedup_cell": dedup_cell,
            "resolution_floor": dedup_cell * np.sqrt(components),
            "samples": len(kept) * v.shape[1]}
    return AttractorCloud(points, "ode", ["long_time_sampling"] * len(points), meta)


def _galerkin_head(jvals: np.ndarray, basis: CosineBasis, E: DiffusionSpec,
                   m: int) -> np.ndarray:
    """Galerkin matrix of -A + F'(u) on the leading m modes of each component.

    `jvals` holds F'(u) on the grid, shaped (n, n, grid points).
    """
    n = jvals.shape[0]
    phi = basis.synthesis_matrix()[:m]
    head = np.zeros((n * m, n * m))
    for i in range(n):
        for j in range(n):
            block = (phi * jvals[i, j][None, :]) @ phi.T / basis.quad_points
            head[i * m:(i + 1) * m, j * m:(j + 1) * m] = block
    head -= np.diag(E.gains(basis)[:, :m].ravel())
    return head


def pde_linearization_spectrum(u: SpectralField, E: DiffusionSpec, F: Nonlinearity) -> tuple:
    """Eigenvalues and unstable directions of the flow linearization -A + F'(u) at a state u.

    A Galerkin matrix on the leading modes is diagonalized exactly, its
    unstable directions zero-padded to K+1 modes; the far tail is
    diagonal-dominated and appended analytically as -(eps_i lam_k + 1) + mean(F'_ii).
    The head holds LEADING_MODES modes per component, or more where a tail
    value would be unstable, so that every unstable eigenvalue has a direction.
    """
    jvals = F.jac(u.basis.to_grid(u.coeffs))
    gains = E.gains(u.basis)
    diag_avg = np.array([np.mean(jvals[i, i]) for i in range(u.components)])
    tail = diag_avg[:, None] - gains  # (n, K+1), the analytic value of every mode
    unstable = np.flatnonzero(np.any(tail > HYPERBOLICITY_TOL, axis=0))
    m = min(max(LEADING_MODES, unstable[-1] + 1 if unstable.size else 0),
            u.basis.mode_count + 1)
    eigs, directions = _spectrum(_galerkin_head(jvals, u.basis, E, m))
    padding = ((0, 0), (0, u.basis.mode_count + 1 - m))
    return (np.concatenate([eigs, tail[:, m:].ravel().astype(complex)]),
            [np.pad(vec.reshape(u.components, m), padding) for vec in directions])


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
        jvals = F.jac(basis.to_grid(flat.reshape(n, K1)))
        return inv_gains[:, None] * -_galerkin_head(jvals, basis, E, K1)

    roots = _newton_roots(residual_pc, jacobian_pc, [seed.coeffs.ravel() for seed in seeds],
                          NEWTON_TOL, MERGE_TOL, max_iter=60)
    if not roots:
        raise NoEquilibriaError("no PDE equilibrium found from the given seeds")
    out = []
    for root, _ in sorted(roots, key=lambda item: tuple(np.round(item[0], 12))):
        u = SpectralField(root.reshape(n, K1), basis)
        res = float(np.linalg.norm(residual(root)))
        out.append(EquilibriumPoint(u, *pde_linearization_spectrum(u, E, F), residual=res,
                                    kind="pde"))
    return out


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
    seeds = [constant_field(eq.vector(), basis) for eq in ode_cloud.equilibria]

    def shots_of(Ei):
        """Ei's equilibria, and the start and the targets of each arc they shoot."""
        eqs = find_equilibria_pde(Ei, F, seeds)
        return eqs, _arc_shots(eqs)

    failed, equilibria = {}, {}
    starts, owner, targets = [], [], []
    for i, Ei in enumerate(Es):
        found = try_point(shots_of, Ei)
        if isinstance(found, POINT_ERRORS):
            failed[i] = found
            continue
        equilibria[i], shots = found
        starts += [start for start, _ in shots]
        targets += [ends for _, ends in shots]
        owner += [i] * len(shots)

    arcs = []
    if starts:
        stepper = EtdStepper(basis, Es, F, dt, owner)
        arcs = _shoot_arcs(stepper, starts, sample_dt, ARC_HORIZON, targets, STOP_BALL)
        failed.update(stepper.failed)

    alive = [i for i in range(len(Es)) if i not in failed]
    rng = default_rng(seed)
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


# the most numbers _farthest_nearest holds in one array: a chunk of pairs
# times the dimension
PAIR_BLOCK = 2**22


def _pair_sq(query: np.ndarray, ref: np.ndarray, row: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Squared distances of the pairs (query[row], ref[slot]).

    The squares are summed one coordinate at a time, in the order and so
    with the rounding of scipy's `cdist`, so each square root equals the
    `cdist` entry of its pair.
    """
    gaps = query[row] - ref[slot]
    np.square(gaps, out=gaps)
    sq = gaps[:, 0].copy()
    for j in range(1, gaps.shape[1]):
        sq += gaps[:, j]
    return sq


def _window_min(query: np.ndarray, ref: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per query row, the least squared distance to the rows lo..hi-1 of `ref`.

    A row with an empty window reads inf.  The pairs are laid out flat, row
    after row, in chunks of whole rows holding at most PAIR_BLOCK numbers
    (at least one row, however wide its window).
    """
    counts = hi - lo
    ends = np.cumsum(counts)
    best = np.full(len(query), np.inf)
    budget = max(1, PAIR_BLOCK // query.shape[1])
    r0 = 0
    while r0 < len(query):
        done = ends[r0] - counts[r0]
        r1 = max(r0 + 1, int(np.searchsorted(ends, done + budget, side="right")))
        taken = counts[r0:r1]
        offsets = ends[r0:r1] - taken - done
        row = np.repeat(np.arange(r0, r1), taken)
        slot = np.repeat(lo[r0:r1] - offsets, taken) + np.arange(ends[r1 - 1] - done)
        sq = _pair_sq(query, ref, row, slot)
        some = taken > 0
        best[r0:r1][some] = np.minimum.reduceat(sq, offsets[some])
        r0 = r1
    return best


def _farthest_nearest(query: np.ndarray, ref: np.ndarray, skip_self: bool = False) -> float:
    """max over rows of `query` of the distance to the nearest row of `ref`.

    With `skip_self`, `query` is `ref` and each row's own pair is excluded.
    A sort-and-sweep screen (Friedman, Baskett & Shustek, IEEE Trans.
    Computers C-24, 1975) finds every row's nearest distance: `ref` is
    sorted on its coordinate of largest spread, the sorted neighbour on
    each side of a row gives an upper bound, and every row of `ref` whose
    coordinate lies within that bound, widened by a relative 1e-9, is a
    candidate.  Rounding drops no nearer row, even where squares underflow:
    a row outside the window has a wider gap in the sorted coordinate, and
    a computed sum of squares is at least each of its rounded terms, so it
    reads no nearer than the neighbour that set the bound.  `_pair_sq`
    sums each pair's squares in `cdist`'s order, so every row's minimum,
    and the result, equals a brute-force `cdist` maximum bit for bit.
    """
    n = len(ref)
    axis = int(np.argmax(np.ptp(ref, axis=0)))
    order = np.argsort(ref[:, axis])
    keys, sorted_ref = ref[order, axis], ref[order]
    x = query[:, axis]
    if skip_self:  # a row's neighbours are the slots either side of its own
        below = np.empty(n, dtype=np.intp)
        below[order] = np.arange(n)
        above = below + 1
    else:
        below = above = np.searchsorted(keys, x)
    near_lo, near_hi = np.maximum(below - 1, 0), np.minimum(above + 1, n)
    sq = np.minimum(_window_min(query, sorted_ref, near_lo, below),
                    _window_min(query, sorted_ref, above, near_hi))
    width = np.sqrt(sq) * (1.0 + 1e-9)
    lo = np.searchsorted(keys, x - width, side="left")
    hi = np.searchsorted(keys, x + width, side="right")
    # of each window, only the rows beyond the neighbours are new
    sq = np.minimum(sq, _window_min(query, sorted_ref, lo, np.clip(near_lo, lo, hi)))
    sq = np.minimum(sq, _window_min(query, sorted_ref, np.clip(near_hi, lo, hi), hi))
    return float(np.sqrt(sq.max()))


def hausdorff_distance(cloud_a: AttractorCloud, cloud_b: AttractorCloud,
                       E: DiffusionSpec | None = None,
                       basis: CosineBasis | None = None) -> HausdorffResult:
    """Both one-sided deviations and their max, in the energy norm.

    Against a PDE cloud, `E` and `basis` lift an ODE cloud to constant fields
    (constants have a pure L2 norm).  Two ODE clouds need neither: their
    distance is the Euclidean one.
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


def _grid_blend(node: np.ndarray, table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of `table` on the grid `node` x ... x `node` at the rows of `x`.

    `table` has shape (len(node),) * n + (columns,) and each row of `x` (shape
    (queries, n)) lies in the grid's hull.  A query's cell starts at the last
    node at or below it; a query on the top node falls in the last cell.  The
    2**n corners are summed in the order, and their weights multiplied in the
    order, of scipy's `RegularGridInterpolator` linear method, so every value
    equals what it returns, bit for bit.
    """
    cell = np.minimum(np.searchsorted(node, x, side="right") - 1, len(node) - 2)
    y = (x - node[cell]) / (node[cell + 1] - node[cell])
    out = 0.0
    for corner in itertools.product((0, 1), repeat=x.shape[1]):
        weight = 1.0
        for axis, upper in enumerate(corner):
            weight = weight * (y[:, axis] if upper else 1 - y[:, axis])
        out = out + table[tuple((cell + corner).T)] * weight[:, None]
    return out


def graph_iteration(E: DiffusionSpec, F: Nonlinearity, basis: CosineBasis,
                    iters: int = 8, dt: float = 1e-3, mu: float | None = None,
                    initial: np.ndarray | None = None, box: float | None = None,
                    grid_points: int = 41) -> GraphEstimate:
    """Fixed-point iteration of the manifold graph map on a grid of base points.

    Each sweep steps the limit flow v' + v = S(v, w(v)) backward in time
    from every grid node over the horizon 10/gap, by ETD2RK at step -dt,
    and accumulates the mean-free forcing Q(v, w(v)) against the exact
    decaying propagator (composite trapezoid in time); the graph values w
    are blended linearly between the nodes of the uniform grid
    (`_grid_blend`).  Requires
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
    node = np.linspace(-box, box, grid_points)
    v_grid = np.stack([m.ravel() for m in np.meshgrid(*(node,) * n, indexing="ij")],
                      axis=-1)  # (m, n)
    m = v_grid.shape[0]
    K1 = basis.mode_count + 1
    gains = E.gains(basis)

    s = np.zeros((m, n, K1)) if initial is None else np.array(initial, dtype=float).copy()
    if s.shape != (m, n, K1):
        raise ValueError("initial graph values have the wrong shape")
    s[:, :, 0] = 0.0

    steps = _step_count(horizon, dt)
    step_decay = np.exp(-gains * dt)
    # the limit flow's ETD2RK weights (gain 1) at step -dt: exp(dt), -dt phi1(dt), -dt phi2(dt)
    e, w1, w2 = (w[0] for w in _etd_weights(-dt, np.ones(1)))
    clamped = 0
    factors: list[float] = []
    prev_diff = None

    for sweep in range(iters):
        table = s.reshape((grid_points,) * n + (n * K1,))

        def forcing(v):
            # coefficients of F(v + w(v)): mode 0 is S, the others Q
            c = _grid_blend(node, table, np.clip(v, -box, box)).reshape(-1, n, K1)
            c[:, :, 0] = v
            return _galerkin_F(F, c, basis)

        v = v_grid.copy()
        decay = np.ones((n, K1))
        accum = np.zeros((m, n, K1))
        for j in range(steps + 1):
            if j:
                # ETD2RK of v' + v = S(v, w(v)) at step -dt; S at the last
                # state, already evaluated for the sum, is its first stage
                a = e * v + w1 * s0
                v = a + w2 * (forcing(a)[:, :, 0] - s0)
                decay = decay * step_decay
            clamped += int(np.count_nonzero(np.any(np.abs(v) > box, axis=1)))
            q = forcing(v)
            s0 = q[:, :, 0].copy()
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
