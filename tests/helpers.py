"""Helpers shared by several test modules: reference draws written in plain numpy, and the CNOT error scenario."""

import math

import numpy as np

from nogosim.measurement import JointObservable, MeasurementScenario


def random_hermitian(dim, rng):
    """(G + G^dag)/2 with G = (A + iB)/sqrt(2), A and B standard normal (dim, dim) draws, in that order."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    return (g + g.conj().T) / 2


def random_ket(dim, rng):
    """A unit ket: real parts, then imaginary parts, drawn standard normal, over the norm."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def cnot_error_scenario(s, theta=np.pi / 4, varphi=0.0):
    """Squared-noise observable of the controlled-NOT family, 4 I (x) |1><1|, postselected on
    cos(theta)|0> + e^(-i varphi) sin(theta)|1>."""
    psi = np.array([1.0, 1.0j]) / np.sqrt(2)
    xi = np.array([np.sqrt((1 + s) / 2), np.sqrt((1 - s) / 2)], dtype=complex)
    phi = np.array([math.cos(theta), np.exp(-1j * varphi) * math.sin(theta)])
    obs = JointObservable(n=2, m=2, terms=((4 * np.eye(2, dtype=complex), np.diag([0.0, 1.0]).astype(complex)),))
    return MeasurementScenario(psi=psi, xi=xi, observable=obs, postselect=phi)
