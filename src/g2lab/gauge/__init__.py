"""Gauge fields: Fourier continuum fields, lattice link fields, and the
fibered-connection curvature decomposition."""
