"""lapscat: Laplace-domain wave scattering and factorization-style
reconstruction of obstacles and screens from near-field data.

The package assembles boundary-integral operators for (-Delta + lambda)
on smooth closed curves, synthesizes the measurement data operator via
the factorized resolvent formula, reconstructs scatterer supports with
Picard-series and constrained-minimization indicators, and verifies a
closed-form error bound for time-truncated measurements on spectral
surrogate models.
"""
