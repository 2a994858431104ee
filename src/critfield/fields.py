"""Synthesis of unit-variance isotropic Gaussian fields on R^2 and S^2.

Planar fields are random trig sums X(t) = sqrt(2/K) sum_k cos(<w_k, t> + p_k)
whose covariance is the spectral average of cos(<w, h>); choosing the law of
w fixes the covariance exactly, so each synthesized field knows its own
EuclideanModel with no estimation involved.  Spherical fields are degree-l
random harmonics with covariance P_l(<t, s>).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, ParameterError
from .euclidean import EuclideanModel, model_from_rho
from .goi import _gauss_legendre
from .sphere import SphereModel, model_from_legendre

KINDS = ("gaussian-covariance", "plane-wave", "custom-spectral",
         "spherical-harmonic")


@dataclass(frozen=True)
class SynthesisSpec:
    """Recipe for one random field; see the preset constructors."""

    kind: str
    n_waves: int = 2000
    length_scale: float = 0.0       # gaussian-covariance
    wavenumber: float = 0.0         # plane-wave
    radii: tuple = ()               # custom-spectral
    weights: tuple = ()             # custom-spectral
    degree: int = 0                 # spherical-harmonic

    @classmethod
    def gaussian_covariance(cls, length_scale: float, n_waves: int = 2000):
        """cov(h) = exp(-|h|^2 / (2 ell^2)): eta^2 = 2 ell^2, kappa^2 = 1."""
        if length_scale <= 0:
            raise ParameterError("length_scale must be positive")
        return cls(kind="gaussian-covariance", n_waves=n_waves,
                   length_scale=float(length_scale))

    @classmethod
    def plane_wave(cls, wavenumber: float, n_waves: int = 2000):
        """cov(h) = J0(r |h|): a random Helmholtz solution, kappa^2 = 2."""
        if wavenumber <= 0:
            raise ParameterError("wavenumber must be positive")
        return cls(kind="plane-wave", n_waves=n_waves,
                   wavenumber=float(wavenumber))

    @classmethod
    def custom_spectral(cls, radii, weights, n_waves: int = 2000):
        """Ring mixture: cov(h) = sum_i w_i J0(r_i |h|), weights normalized."""
        radii = tuple(float(r) for r in radii)
        weights = tuple(float(w) for w in weights)
        if len(radii) != len(weights) or not radii:
            raise ParameterError("radii and weights must be equal-length, nonempty")
        if any(r <= 0 for r in radii) or any(w <= 0 for w in weights):
            raise ParameterError("radii and weights must be positive")
        tot = sum(weights)
        return cls(kind="custom-spectral", n_waves=n_waves, radii=radii,
                   weights=tuple(w / tot for w in weights))

    @classmethod
    def spherical_harmonic(cls, degree: int):
        """Degree-l random harmonic on S^2: cov(t, s) = P_l(<t, s>)."""
        if degree < 2:
            raise ParameterError("degree must be >= 2")
        return cls(kind="spherical-harmonic", degree=int(degree))


class PlanarWaveField:
    """Finite trig sum on R^2 with exact derivatives of all orders."""

    def __init__(self, omegas: np.ndarray, phases: np.ndarray,
                 model: EuclideanModel):
        self.omegas = np.asarray(omegas, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        self.scale = math.sqrt(2.0 / len(phases))
        self._model = model
        ww = (self.omegas[:, :, None] * self.omegas[:, None, :]).reshape(-1, 4)
        # the wave vectors and their outer products in each precision the
        # phase helpers compute in
        self._waves = {np.dtype(np.float64): (self.omegas, ww),
                       np.dtype(np.float32): (self.omegas.astype(np.float32),
                                              ww.astype(np.float32))}

    @property
    def model(self) -> EuclideanModel:
        return self._model

    def phase(self, pts: np.ndarray) -> np.ndarray:
        """The phase matrix <w_k, t> + p_k; shape (..., K)."""
        return np.asarray(pts, dtype=float) @ self.omegas.T + self.phases

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self.scale * np.cos(self.phase(pts)).sum(axis=-1)

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        return self.gradient_at_phase(self.phase(pts))

    def hessian(self, pts: np.ndarray) -> np.ndarray:
        return self.hessian_at_phase(self.phase(pts))

    def value_and_hessian(self, pts: np.ndarray):
        """Value and Hessian from one phase matrix and one cosine."""
        c = np.cos(self.phase(pts))
        return self.scale * c.sum(axis=-1), self._hessian_at_cos(c)

    def gradient_at_phase(self, arg: np.ndarray) -> np.ndarray:
        """Gradient from a phase matrix, so callers can share one.  The
        trig and the sums run in the precision of arg (float64 or
        float32); the result is float64."""
        w, _ = self._waves[arg.dtype]
        return -self.scale * (np.sin(arg) @ w).astype(float, copy=False)

    def hessian_at_phase(self, arg: np.ndarray, rows=None) -> np.ndarray:
        """Hessian from a phase matrix, at the given rows of it only (a
        mask or index array over the leading axis) if rows is set; in the
        precision of arg, returned as float64 like the gradient."""
        if rows is None:
            c = np.cos(arg)
        else:
            c = arg[rows]               # a copy, so cos can run in place
            np.cos(c, out=c)
        return self._hessian_at_cos(c)

    def _hessian_at_cos(self, c: np.ndarray) -> np.ndarray:
        _, ww = self._waves[c.dtype]
        h = -self.scale * (c @ ww).astype(float, copy=False)
        return h.reshape(c.shape[:-1] + (2, 2))

    def translated(self, shift) -> "PlanarWaveField":
        """The field t -> f(t + shift), its phases reduced mod 2 pi."""
        phases = np.mod(self.phases + self.omegas @ np.asarray(shift, dtype=float),
                        2.0 * math.pi)
        return PlanarWaveField(self.omegas, phases, self._model)

    def grid_gradient(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Gradient at every (xs[a], ys[b]); shape (len(xs), len(ys), 2).

        On a grid the phase factorizes, e^{i(<w, (x_a, y_b)> + p)} =
        e^{i(w_x x_a + p)} e^{i w_y y_b}, so each component is the
        imaginary part of one complex matrix product (EX diag(w)) @ EY^T
        instead of a sine per grid point and wave.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        wx, wy = self.omegas[:, 0], self.omegas[:, 1]
        ex = np.exp(1j * (np.multiply.outer(xs, wx) + self.phases))
        ey_t = np.exp(1j * np.multiply.outer(wy, ys))
        g = np.empty((len(xs), len(ys), 2))
        g[..., 0] = ((ex * wx) @ ey_t).imag
        g[..., 1] = ((ex * wy) @ ey_t).imag
        g *= -self.scale
        return g


def _legendre_q_tables(l: int, z: np.ndarray):
    """Q_m(z) = P_l^m(z) / (1-z^2)^{m/2} with first two z-derivatives.

    Polynomial in z, so the usual n-upward recurrence (n = m..l at fixed m)
    is stable here and differentiates term by term; only its last two terms
    are kept.  Returns three (l+1, ...) arrays indexed by m.
    """
    z = np.asarray(z, dtype=float)
    Q = np.empty((l + 1,) + z.shape)
    dQ = np.empty_like(Q)
    d2Q = np.empty_like(Q)
    zero = np.zeros(z.shape)
    dfact = 1.0
    for m in range(l + 1):
        if m:
            dfact *= 2 * m - 1
        q0 = np.full(z.shape, ((-1) ** m) * dfact)
        if m == l:
            Q[m], dQ[m], d2Q[m] = q0, zero, zero
            break
        q1 = z * (2 * m + 1) * q0
        dq0, dq1 = zero, (2 * m + 1) * q0
        d2q0 = d2q1 = zero
        # each step shifts (q0, q1) from (Q_{n-2}, Q_{n-1}) to (Q_{n-1}, Q_n),
        # so the derivative updates read the already-shifted q0 = Q_{n-1}
        for n in range(m + 2, l + 1):
            a = (2 * n - 1) / (n - m)
            b = (n + m - 1) / (n - m)
            q0, q1 = q1, a * z * q1 - b * q0
            dq0, dq1 = dq1, a * (q0 + z * dq1) - b * dq0
            d2q0, d2q1 = d2q1, a * (2 * dq0 + z * d2q1) - b * d2q0
        Q[m], dQ[m], d2Q[m] = q1, dq1, d2q1
    return Q, dQ, d2Q


def _sector_tables(l: int, x: np.ndarray, y: np.ndarray):
    # C_m + i S_m = (x + i y)^m
    shape = (l + 1,) + np.asarray(x).shape
    C = np.ones(shape)
    S = np.zeros(shape)
    for m in range(1, l + 1):
        C[m] = C[m - 1] * x - S[m - 1] * y
        S[m] = S[m - 1] * x + C[m - 1] * y
    return C, S


def _sh_norms(l: int) -> np.ndarray:
    """Normalizers per m, for Y = nn * Q_m(z) * {C_m, S_m}(x, y)."""
    out = np.empty(l + 1)
    out[0] = math.sqrt((2 * l + 1) / (4 * math.pi))
    for m in range(1, l + 1):
        lognn = 0.5 * (math.log(2 * l + 1) - math.log(2 * math.pi)
                       + gammaln(l - m + 1) - gammaln(l + m + 1))
        out[m] = math.exp(lognn)
    return out


def sh_basis(l: int, pts: np.ndarray) -> np.ndarray:
    """Real orthonormal degree-l harmonics at unit vectors pts: (2l+1, n)."""
    pts = np.asarray(pts, dtype=float)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    Q, _, _ = _legendre_q_tables(l, z)
    C, S = _sector_tables(l, x, y)
    nn = _sh_norms(l)
    rows = [nn[0] * Q[0]]
    for m in range(1, l + 1):
        rows.append(nn[m] * Q[m] * C[m])
        rows.append(nn[m] * Q[m] * S[m])
    return np.array(rows)


class SphericalHarmonicField:
    """Random degree-l harmonic on S^2, evaluated through its ambient
    polynomial extension so that intrinsic derivatives come out exact.

    coefficients are iid N(0, 4 pi / (2l + 1)) on the orthonormal basis,
    giving covariance P_l(<t, s>) by the addition theorem.
    """

    def __init__(self, degree: int, coeffs: np.ndarray, model: SphereModel):
        self.degree = int(degree)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (2 * self.degree + 1,):
            raise ParameterError("coefficient vector has wrong length")
        self._model = model

    @property
    def model(self) -> SphereModel:
        return self._model

    def _split_coeffs(self):
        l = self.degree
        a0 = self.coeffs[0]
        ac = self.coeffs[1::2]
        as_ = self.coeffs[2::2]
        assert len(ac) == l and len(as_) == l
        return a0, ac, as_

    def ambient(self, pts: np.ndarray):
        """Value, gradient, Hessian of the ambient extension at pts (n, 3)."""
        pts = np.asarray(pts, dtype=float)
        x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
        l = self.degree
        Q, dQ, d2Q = _legendre_q_tables(l, z)
        C, S = _sector_tables(l, x, y)
        nn = _sh_norms(l)
        a0, ac, as_ = self._split_coeffs()

        shape = x.shape
        val = nn[0] * a0 * Q[0]
        g = np.zeros(shape + (3,))
        h = np.zeros(shape + (3, 3))
        g[..., 2] += nn[0] * a0 * dQ[0]
        h[..., 2, 2] += nn[0] * a0 * d2Q[0]
        for m in range(1, l + 1):
            wc = nn[m] * ac[m - 1]
            ws = nn[m] * as_[m - 1]
            # angular part A = wc*C_m + ws*S_m and its (x, y) derivatives
            A = wc * C[m] + ws * S[m]
            Ax = m * (wc * C[m - 1] + ws * S[m - 1])
            Ay = m * (-wc * S[m - 1] + ws * C[m - 1])
            if m >= 2:
                mm = m * (m - 1)
                Axx = mm * (wc * C[m - 2] + ws * S[m - 2])
                Axy = mm * (-wc * S[m - 2] + ws * C[m - 2])
            else:
                Axx = Axy = np.zeros(shape)
            val = val + Q[m] * A
            g[..., 0] += Q[m] * Ax
            g[..., 1] += Q[m] * Ay
            g[..., 2] += dQ[m] * A
            h[..., 0, 0] += Q[m] * Axx
            h[..., 0, 1] += Q[m] * Axy
            h[..., 1, 1] += -Q[m] * Axx
            h[..., 0, 2] += dQ[m] * Ax
            h[..., 1, 2] += dQ[m] * Ay
            h[..., 2, 2] += d2Q[m] * A
        h[..., 1, 0] = h[..., 0, 1]
        h[..., 2, 0] = h[..., 0, 2]
        h[..., 2, 1] = h[..., 1, 2]
        return val, g, h

    def value(self, pts: np.ndarray) -> np.ndarray:
        v, _, _ = self.ambient(pts)
        return v

    def chart_gradient(self, theta: np.ndarray, phi: np.ndarray):
        """Frame components of the gradient on the lat-long grid
        (theta[a], phi[b]): df/dtheta and (1/sin theta) df/dphi, each of
        shape (len(theta), len(phi)); theta must avoid the poles.

        f = sum_m nn_m Q_m(cos t) sin^m t (a_m cos m phi + b_m sin m phi),
        so each component is a (len(theta), l+1) latitude table times an
        (l+1, len(phi)) longitude table: one small matrix product instead
        of Legendre and Hessian tables at every grid point.
        """
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        l = self.degree
        m = np.arange(l + 1)
        ct, st = np.cos(theta), np.sin(theta)
        Q, dQ, _ = _legendre_q_tables(l, ct)
        a0, ac, as_ = self._split_coeffs()
        a = np.concatenate([[a0], ac])
        b = np.concatenate([[0.0], as_])
        # nn_m sin^{m-1} theta, shape (l+1, len(theta))
        ns = _sh_norms(l)[:, None] * st ** (m - 1)[:, None]
        lat_th = (ns * (m[:, None] * ct * Q - st * st * dQ)).T
        lat_ph = (ns * m[:, None] * Q).T
        mp = np.multiply.outer(m, phi)
        cos_mp, sin_mp = np.cos(mp), np.sin(mp)
        lon_th = a[:, None] * cos_mp + b[:, None] * sin_mp
        lon_ph = b[:, None] * cos_mp - a[:, None] * sin_mp
        return lat_th @ lon_th, lat_ph @ lon_ph

    def rotated(self, rot: np.ndarray) -> "SphericalHarmonicField":
        """The degree-l harmonic p -> f(rot p), by projection onto sh_basis.

        Every product of two degree-l harmonics is a polynomial of degree
        2l, which l+1 Gauss-Legendre nodes in z times 2l+1 equispaced
        longitudes integrate exactly, so the projection is exact.
        """
        l = self.degree
        z, wz = _gauss_legendre(l + 1)
        dphi = 2.0 * math.pi / (2 * l + 1)
        zz, pp = np.meshgrid(z, dphi * np.arange(2 * l + 1), indexing="ij")
        s = np.sqrt(1.0 - zz * zz)
        pts = np.stack([s * np.cos(pp), s * np.sin(pp), zz],
                       axis=-1).reshape(-1, 3)
        w = np.repeat(wz * dphi, 2 * l + 1)
        vals = self.coeffs @ sh_basis(l, pts @ np.asarray(rot, dtype=float).T)
        return SphericalHarmonicField(l, sh_basis(l, pts) @ (w * vals),
                                      self._model)

    def tangent_gradient(self, pts: np.ndarray) -> np.ndarray:
        """Riemannian gradient as an ambient 3-vector tangent to the sphere."""
        pts = np.asarray(pts, dtype=float)
        _, g, _ = self.ambient(pts)
        return g - (g * pts).sum(axis=-1, keepdims=True) * pts

    def covariant_hessian(self, pts: np.ndarray, frames: np.ndarray,
                          ambient=None) -> np.ndarray:
        """2x2 covariant Hessian in the given orthonormal tangent frames.

        frames has shape (..., 2, 3); the sphere's curvature enters as
        -(grad . p) I on top of the ambient second derivative.  ambient,
        if given, is ambient(pts) already computed, to be reused.
        """
        pts = np.asarray(pts, dtype=float)
        _, g, h = self.ambient(pts) if ambient is None else ambient
        radial = (g * pts).sum(axis=-1)
        out = np.einsum("...ak,...kl,...bl->...ab", frames, h, frames)
        out[..., 0, 0] -= radial
        out[..., 1, 1] -= radial
        return out


def tangent_frames(pts: np.ndarray) -> np.ndarray:
    """An orthonormal tangent pair at each unit vector; (..., 2, 3)."""
    pts = np.asarray(pts, dtype=float)
    # seed with whichever axis is least aligned to avoid degeneracy
    seed = np.zeros_like(pts)
    small = np.abs(pts).argmin(axis=-1)
    seed[np.arange(len(pts)), small] = 1.0
    e1 = np.cross(seed, pts)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(pts, e1)
    return np.stack([e1, e2], axis=-2)


def synthesize(spec: SynthesisSpec, rng) -> PlanarWaveField | SphericalHarmonicField:
    """Draw one field realization; rng is a seed or numpy Generator."""
    rng = np.random.default_rng(rng)
    k = spec.n_waves
    if spec.kind == "gaussian-covariance":
        ell = spec.length_scale
        omegas = rng.normal(0.0, 1.0 / ell, size=(k, 2))
        model = model_from_rho(2, rho1=-1.0 / (2 * ell * ell),
                               rho2=1.0 / (4 * ell ** 4))
    elif spec.kind == "plane-wave":
        r = spec.wavenumber
        th = rng.uniform(0.0, 2.0 * math.pi, k)
        omegas = r * np.stack([np.cos(th), np.sin(th)], axis=-1)
        model = model_from_rho(2, rho1=-r * r / 4.0, rho2=r ** 4 / 32.0)
    elif spec.kind == "custom-spectral":
        radii = np.array(spec.radii)
        weights = np.array(spec.weights)
        pick = rng.choice(len(radii), size=k, p=weights)
        th = rng.uniform(0.0, 2.0 * math.pi, k)
        omegas = radii[pick, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)
        model = model_from_rho(
            2,
            rho1=-float((weights * radii ** 2).sum()) / 4.0,
            rho2=float((weights * radii ** 4).sum()) / 32.0)
    elif spec.kind == "spherical-harmonic":
        l = spec.degree
        sigma = math.sqrt(4.0 * math.pi / (2 * l + 1))
        coeffs = rng.normal(0.0, sigma, size=2 * l + 1)
        return SphericalHarmonicField(l, coeffs, model_from_legendre(l))
    else:
        raise ConfigError(f"unknown synthesis kind {spec.kind!r}; "
                          f"expected one of {KINDS}")
    phases = rng.uniform(0.0, 2.0 * math.pi, k)
    return PlanarWaveField(omegas, phases, model)
