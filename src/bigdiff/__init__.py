"""Numerical laboratory for reaction-diffusion systems with large diffusion.

The system under study is u_t - E u_xx + u = F(u) on (0, 1) with Neumann
boundary conditions, together with its large-diffusion limit, the ODE
v' + v = F(v) in R^n.  The package measures how fast the PDE objects
(resolvent, spectrum, solutions, attractors, invariant manifolds) collapse
onto their ODE counterparts as the smallest diffusion coefficient d grows,
and fits every measured quantity against the predicted d^(-1/2) rate.
"""

__version__ = "0.1.0"
