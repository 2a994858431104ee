"""Synthesis of unit-variance isotropic Gaussian fields on R^2 and S^2.

Planar fields are random trig sums X(t) = sqrt(2/K) sum_k cos(<w_k, t> + p_k)
whose covariance is the spectral average of cos(<w, h>); choosing the law of
w fixes the covariance exactly, so each synthesized field knows its own
EuclideanModel with no estimation involved.  Spherical fields are degree-l
random harmonics with covariance P_l(<t, s>).
"""
from __future__ import annotations

import functools
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

# (2l-1)!!, the top of the Legendre-derivative table, overflows float64 at
# l = 151, and the normalizers of high orders leave the normal floats there.
MAX_DEGREE = 150
# largest total degree of a planar Taylor model, and nodes per block of
# matrix products when building them (PlanarWaveField.taylor_models).  On
# the benchmark's plane-wave fields at order 21 (2-core x86-64, one BLAS
# thread) a build took 22-25 ms per field in blocks of 8-16 nodes and 28 ms
# in blocks of 32-64 through the ring's modes, and 69-87 ms against 53 ms
# through the full tables of other spectra: 32 serves both
MAX_TAYLOR_ORDER = 32
TAYLOR_NODE_BLOCK = 32
# the largest spread of wave-vector lengths, relative to the longest, that
# PlanarWaveField.taylor_models treats as one circle
RING_SPREAD = 4 * np.finfo(float).eps


def _check_degree(degree: int) -> int:
    """degree as an int if 2 <= degree <= MAX_DEGREE; ParameterError otherwise."""
    if not 2 <= degree <= MAX_DEGREE:
        raise ParameterError(f"spherical harmonic degree must be in "
                             f"[2, {MAX_DEGREE}], got {degree}")
    return int(degree)


def _positive(name: str, value: float) -> float:
    """value as a float if it is finite and > 0; ParameterError otherwise."""
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise ParameterError(f"{name} must be finite and > 0, got {value}")
    return v


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

    def __post_init__(self):
        if self.n_waves < 1:
            raise ParameterError(f"n_waves must be >= 1, got {self.n_waves}")

    @classmethod
    def gaussian_covariance(cls, length_scale: float, n_waves: int = 2000):
        """cov(h) = exp(-|h|^2 / (2 ell^2)): eta^2 = 2 ell^2, kappa^2 = 1."""
        return cls(kind="gaussian-covariance", n_waves=n_waves,
                   length_scale=_positive("length_scale", length_scale))

    @classmethod
    def plane_wave(cls, wavenumber: float, n_waves: int = 2000):
        """cov(h) = J0(r |h|): a random Helmholtz solution, kappa^2 = 2."""
        return cls(kind="plane-wave", n_waves=n_waves,
                   wavenumber=_positive("wavenumber", wavenumber))

    @classmethod
    def custom_spectral(cls, radii, weights, n_waves: int = 2000):
        """Ring mixture: cov(h) = sum_i w_i J0(r_i |h|), weights normalized."""
        radii = tuple(_positive("radius", r) for r in radii)
        weights = tuple(_positive("weight", w) for w in weights)
        if len(radii) != len(weights) or not radii:
            raise ParameterError("radii and weights must be equal-length, nonempty")
        tot = sum(weights)
        return cls(kind="custom-spectral", n_waves=n_waves, radii=radii,
                   weights=tuple(w / tot for w in weights))

    @classmethod
    def spherical_harmonic(cls, degree: int):
        """Degree-l random harmonic on S^2: cov(t, s) = P_l(<t, s>)."""
        return cls(kind="spherical-harmonic", degree=_check_degree(degree))


class PlanarWaveField:
    """Finite trig sum on R^2 with exact derivatives of all orders."""

    def __init__(self, omegas: np.ndarray, phases: np.ndarray,
                 model: EuclideanModel):
        self.omegas = np.asarray(omegas, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        self.scale = math.sqrt(2.0 / len(phases))
        self._model = model
        # [w^T; p]: the phase matrix is one product [t, 1] @ this table
        self._phase_table = np.vstack([self.omegas.T, self.phases])
        self._ww = (self.omegas[:, :, None] * self.omegas[:, None, :]).reshape(-1, 4)

    @property
    def model(self) -> EuclideanModel:
        return self._model

    def phase(self, pts: np.ndarray) -> np.ndarray:
        """The phase matrix <w_k, t> + p_k; shape (..., K)."""
        pts = np.asarray(pts, dtype=float)
        ones = np.ones(pts.shape[:-1] + (1,))
        return np.concatenate([pts, ones], axis=-1) @ self._phase_table

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self.scale * np.cos(self.phase(pts)).sum(axis=-1)

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        return -self.scale * (np.sin(self.phase(pts)) @ self.omegas)

    def hessian(self, pts: np.ndarray) -> np.ndarray:
        return self._hessian_at_cos(np.cos(self.phase(pts)))

    def value_and_hessian(self, pts: np.ndarray):
        """Value and Hessian from one phase matrix and one cosine."""
        c = np.cos(self.phase(pts))
        return self.scale * c.sum(axis=-1), self._hessian_at_cos(c)

    def _hessian_at_cos(self, c: np.ndarray) -> np.ndarray:
        return (-self.scale * (c @ self._ww)).reshape(c.shape[:-1] + (2, 2))

    def translated(self, shift) -> "PlanarWaveField":
        """The field t -> f(t + shift), its phases reduced mod 2 pi."""
        phases = np.mod(self.phases + self.omegas @ np.asarray(shift, dtype=float),
                        2.0 * math.pi)
        return PlanarWaveField(self.omegas, phases, self._model)

    def grid_factors(self, xs: np.ndarray, ys: np.ndarray):
        """The separable factors of the field on the grid (xs[a], ys[b]):
        ex[a] = e^{i(w_x xs[a] + p)} and ey[b] = e^{i w_y ys[b]}, of shapes
        (len(xs), K) and (len(ys), K), whose product ex[a] * ey[b] is
        e^{i(<w, (xs[a], ys[b])> + p)}.  xs and ys must be evenly spaced,
        as every grid of a scan is: each factor is built by angle addition
        (_phasors), with about 2 sqrt(n) rows of exp for n grid lines."""
        return (_phasors(xs, self.omegas[:, 0], self.phases),
                _phasors(ys, self.omegas[:, 1]))

    def factor_gradient(self, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
        """Gradient on the grid of the factors ex, ey (see grid_factors):
        each component is the imaginary part of one complex matrix product
        (EX diag(w)) @ EY^T instead of a sine per grid point and wave."""
        wx, wy = self.omegas[:, 0], self.omegas[:, 1]
        g = np.empty((len(ex), len(ey), 2))
        g[..., 0] = ((ex * wx) @ ey.T).imag
        g[..., 1] = ((ex * wy) @ ey.T).imag
        g *= -self.scale
        return g

    def taylor_order(self, radius: float, tol) -> int | None:
        """The smallest total degree m <= MAX_TAYLOR_ORDER whose local Taylor
        model (taylor_models) is within tol = (value, gradient, Hessian)
        tolerances of the field everywhere within radius of its center;
        None if no such m exists.

        With x_k = |w_k| radius and T_n(x) = sum_{j >= n} x^j / j!
        <= x^n / n! / (1 - x / (n + 1)), the remainders are at most
        scale sum_k |w_k|^d T_{m+1-d}(x_k) for d = 0, 1, 2 derivatives.
        """
        w = np.linalg.norm(self.omegas, axis=1)
        x = w * radius
        for m in range(2, MAX_TAYLOR_ORDER + 1):
            if np.all(x < m):
                bounds = [self.scale * (w ** d * _exp_tail(x, m + 1 - d)).sum()
                          for d in range(3)]
                if all(b <= t for b, t in zip(bounds, tol)):
                    return m
        return None

    def taylor_models(self, ex: np.ndarray, ey: np.ndarray, nodes: np.ndarray,
                      h: float, order: int) -> np.ndarray:
        """Local Taylor models of total degree m = order about the grid
        nodes (n, 2), integer indices into the factors ex, ey of
        grid_factors: coefficient blocks B of shape (n, m+1, m+1), zero
        above degree m, for taylor_evaluate.

        About a center c, in steps u = (t - c) / h, with E_k = e^{i(<w_k, c>
        + p_k)} = ex[a] * ey[b],

            f(c + h u) = scale Re sum_k E_k e^{i h <w_k, u>}
                       = sum_{i + j <= m} B_ij u_x^i u_y^j + remainder,

        B_ij = scale Re(i^{i+j} A_ij), A_ij = sum_k E_k (h w_kx)^i (h w_ky)^j
        / (i! j!).  i^{i+j} is real for even i + j and imaginary for odd, so
        the even-degree coefficients are Re E @ one per-field table (K, .)
        and the odd ones Im E @ another.  taylor_order bounds the remainder.

        When the wave vectors lie on one circle |w| = r, their lengths
        spreading by at most RING_SPREAD of the longest (plane waves do, to
        two ulps), r is taken as their mean and each table factors exactly
        through the circle's Fourier modes (Jacobi-Anger): the column
        (h w_kx)^i (h w_ky)^j = (h r)^{i+j} cos^i phi_k sin^j phi_k is a trig
        polynomial in the wave angle phi_k of degree at most m with only
        frequencies of the parity of i + j.  So the table is F @ M, F the
        cos n phi_k and sin n phi_k of those frequencies n <= m (2m+1
        columns over both parities, against (m+1)(m+2)/2 for the tables),
        and M is fitted to the table sampled at 2m+2 equispaced angles,
        which determine it exactly.  Other spectra take the tables as they
        are.

        The products run in blocks of TAYLOR_NODE_BLOCK nodes, which
        gather E into buffers made once per call, the last, partial block
        using them in part, and hand BLAS contiguous planes of Re E and
        Im E.
        """
        m = order
        out = np.zeros((len(nodes), m + 1, m + 1))
        k = np.arange(m + 1)
        i, j = np.nonzero(np.add.outer(k, k) <= m)
        n = i + j
        inv_fact = 1.0 / np.cumprod(np.maximum(k, 1.0))
        # Re(i^n A) is Re A, -Im A, -Re A, Im A for n = 0, 1, 2, 3 mod 4
        sign = np.array([1.0, -1.0, -1.0, 1.0])[n % 4]
        c = self.scale * sign * inv_fact[i] * inv_fact[j]
        radius = _ring_radius(self.omegas)
        if radius is None:
            px = _powers(h * self.omegas[:, 0], m)
            py = _powers(h * self.omegas[:, 1], m)
        else:
            # the tables are sampled on the circle, at 2m+2 equispaced angles
            angles = np.arange(2 * m + 2) * (math.pi / (m + 1))
            px = _powers(h * radius * np.cos(angles), m)
            py = _powers(h * radius * np.sin(angles), m)
            # cos n phi for n = 0..m, then sin n phi, at the waves' angles
            # and at the samples
            waves = _powers(np.exp(1j * np.arctan2(self.omegas[:, 1],
                                                   self.omegas[:, 0])), m)
            samples = _powers(np.exp(1j * angles), m)
            waves, samples = (np.hstack([z.real, z.imag]) for z in (waves, samples))
        parts = []
        for parity in (0, 1):
            part = n % 2 == parity
            table = px[:, i[part]] * py[:, j[part]]
            table *= c[part]
            if radius is None:
                factors = (table,)
            else:
                freq = np.arange(parity, m + 1, 2)
                modes = np.concatenate([freq, m + 1 + freq[freq > 0]])
                factors = (waves[:, modes],
                           np.linalg.lstsq(samples[:, modes], table, rcond=None)[0])
            parts.append((i[part], j[part], factors))
        e = np.empty((TAYLOR_NODE_BLOCK, ex.shape[1]), dtype=complex)
        planes = np.empty((2,) + e.shape)
        for s in range(0, len(nodes), TAYLOR_NODE_BLOCK):
            a, b = nodes[s:s + TAYLOR_NODE_BLOCK].T
            r = len(a)
            np.multiply(ex[a], ey[b], out=e[:r])
            planes[0, :r] = e[:r].real
            planes[1, :r] = e[:r].imag
            for plane, (ib, jb, factors) in zip(planes, parts):
                v = plane[:r]
                for factor in factors:
                    v = v @ factor
                out[s:s + r, ib, jb] = v
        return out


def _ring_radius(omegas: np.ndarray) -> float | None:
    """The mean length of the wave vectors omegas (K, 2) if they lie on one
    circle, their lengths spreading by at most RING_SPREAD of the longest;
    None otherwise.  Against the mean, a degree-d Taylor coefficient moves
    by at most d times the spread, relative: rounding level."""
    w = np.linalg.norm(omegas, axis=1)
    return float(w.mean()) if w.max() - w.min() <= RING_SPREAD * w.max() else None


def _phasors(xs, w: np.ndarray, p=0.0) -> np.ndarray:
    """e^{i(w xs[a] + p)}, shape (len(xs), len(w)), for evenly spaced xs.

    With B = ceil(sqrt(n)), row qB + r is the coarse row e^{i(w xs[qB] + p)}
    times the fine row e^{i w (xs[r] - xs[0])}, one complex multiply per
    entry written into the output, which is the only array of its size.
    The coarse angles come from the grid's own values xs[qB], not from
    multiples of a spacing, so that against the exact points xs[0] + a d
    the rows keep the accuracy of a direct exp; against the rounded values
    xs[a] they may differ from it by w times an ulp of xs[a].
    """
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    b = math.isqrt(max(n - 1, 0)) + 1
    coarse = np.multiply.outer(xs[::b], w)
    coarse += p
    coarse = np.exp(1j * coarse)
    fine = np.exp(1j * np.multiply.outer(xs[:b] - xs[:1], w))
    out = np.empty((n, len(w)), dtype=complex)
    for q, row in enumerate(coarse):
        rows = out[q * b:(q + 1) * b]
        np.multiply(fine[:len(rows)], row, out=rows)
    return out


def _exp_tail(x: np.ndarray, n: int) -> np.ndarray:
    """An upper bound on sum_{j >= n} x^j / j! for 0 <= x < n + 1."""
    return x ** n / math.factorial(n) / (1.0 - x / (n + 1))


def _powers(x: np.ndarray, m: int) -> np.ndarray:
    """x^k for k = 0..m along a new last axis."""
    out = np.empty(np.shape(x) + (m + 1,), dtype=np.result_type(x, 1.0))
    out[..., 0] = 1.0
    out[..., 1:] = np.asarray(x)[..., None]
    return np.cumprod(out, axis=-1, out=out)


def taylor_evaluate(coef: np.ndarray, u: np.ndarray, h: float):
    """Value (n,), gradient (n, 2) and Hessian (n, 2, 2) of the local Taylor
    models coef (n, m+1, m+1) (PlanarWaveField.taylor_models) at the
    offsets u (n, 2) from their centers, in steps of h."""
    m = coef.shape[-1] - 1
    k = np.arange(m + 1)
    p = _powers(u, m)
    # d[:, a, s] = d^s/du_a^s of the powers of u_a
    d = np.zeros(p.shape[:2] + (3, m + 1))
    d[..., 0, :] = p
    d[..., 1, 1:] = k[1:] * p[..., :-1]
    d[..., 2, 2:] = (k[2:] * (k[2:] - 1)) * p[..., :-2]
    # z[:, s, t] = d^s/du_x^s d^t/du_y^t of the model
    z = d[:, 0] @ coef @ d[:, 1].swapaxes(-1, -2)
    grad = np.stack([z[:, 1, 0], z[:, 0, 1]], axis=-1) / h
    hess = z[:, [[2, 1], [1, 0]], [[0, 1], [1, 2]]] / (h * h)
    return z[:, 0, 0], grad, hess


def _legendre_q_tables(l: int, z: np.ndarray):
    """Q_m(z) = P_l^m(z) / (1-z^2)^{m/2} with first two z-derivatives.

    Q_m = (-1)^m D_m with D_m the m-th derivative of P_l, so dQ_m = -Q_{m+1}
    and d2Q_m = Q_{m+2}: one table of l+3 rows, built in l steps of the
    differentiated Legendre equation (DLMF 14.10), (l-m)(l+m+1) D_m =
    2(m+1) z D_{m+1} - (1-z^2) D_{m+2}, down from D_l = (2l-1)!!.  Scalar
    coefficients come first, so nothing overflows for l <= MAX_DEGREE.
    Returns three (l+1, ...) arrays indexed by m.
    """
    z = np.asarray(z, dtype=float)
    D = np.zeros((l + 3,) + z.shape)
    D[l] = math.prod(range(1, 2 * l, 2))
    w = (1.0 - z) * (1.0 + z)
    for m in range(l - 1, -1, -1):
        k = 1.0 / ((l - m) * (l + m + 1))
        D[m] = (2 * (m + 1) * k) * z * D[m + 1] - k * w * D[m + 2]
    D[1::2] *= -1.0
    return D[:l + 1], -D[1:l + 2], D[2:]


def _sector_tables(l: int, x: np.ndarray, y: np.ndarray):
    # C_m + i S_m = (x + i y)^m
    shape = (l + 1,) + np.asarray(x).shape
    C = np.ones(shape)
    S = np.zeros(shape)
    for m in range(1, l + 1):
        C[m] = C[m - 1] * x - S[m - 1] * y
        S[m] = S[m - 1] * x + C[m - 1] * y
    return C, S


@functools.lru_cache(maxsize=None)
def _sh_norms(l: int) -> np.ndarray:
    """Normalizers per m, for Y = nn * Q_m(z) * {C_m, S_m}(x, y); computed
    once per degree and returned read-only."""
    out = np.empty(l + 1)
    out[0] = math.sqrt((2 * l + 1) / (4 * math.pi))
    for m in range(1, l + 1):
        lognn = 0.5 * (math.log(2 * l + 1) - math.log(2 * math.pi)
                       + gammaln(l - m + 1) - gammaln(l + m + 1))
        out[m] = math.exp(lognn)
    out.setflags(write=False)
    return out


def sh_basis(l: int, pts: np.ndarray) -> np.ndarray:
    """Real orthonormal degree-l harmonics at unit vectors pts: (2l+1, n)."""
    pts = np.asarray(pts, dtype=float)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    Q, _, _ = _legendre_q_tables(l, z)
    C, S = _sector_tables(l, x, y)
    nnq = _sh_norms(l).reshape((-1,) + (1,) * z.ndim) * Q
    out = np.empty((2 * l + 1,) + z.shape)
    out[0] = nnq[0]
    out[1::2] = nnq[1:] * C[1:]
    out[2::2] = nnq[1:] * S[1:]
    return out


class SphericalHarmonicField:
    """Random degree-l harmonic on S^2, evaluated through its ambient
    polynomial extension so that intrinsic derivatives come out exact.

    coefficients are iid N(0, 4 pi / (2l + 1)) on the orthonormal basis,
    giving covariance P_l(<t, s>) by the addition theorem.
    """

    def __init__(self, degree: int, coeffs: np.ndarray, model: SphereModel):
        self.degree = _check_degree(degree)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (2 * self.degree + 1,):
            raise ParameterError("coefficient vector has wrong length")
        self._model = model

    @property
    def model(self) -> SphereModel:
        return self._model

    def _sector_coeffs(self):
        """Coefficients of C_m and of S_m for m = 0..l (that of S_0 is 0)."""
        c = self.coeffs
        return np.concatenate([c[:1], c[1::2]]), np.concatenate([[0.0], c[2::2]])

    def ambient(self, pts: np.ndarray):
        """Value, gradient, Hessian of the ambient extension at pts (n, 3).

        f = sum_m Q_m(z) (wc_m C_m + ws_m S_m), and d/dx (x+iy)^m =
        m (x+iy)^{m-1} = -i d/dy (x+iy)^m, so every derivative is a sum over
        m of a Q, dQ or d2Q row times the sector row of order m - s, s the
        number of derivatives in x and y.
        """
        pts = np.asarray(pts, dtype=float)
        x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
        l = self.degree
        Q, dQ, d2Q = _legendre_q_tables(l, z)
        C, S = _sector_tables(l, x, y)
        a, b = self._sector_coeffs()
        wc, ws = _sh_norms(l) * a, _sh_norms(l) * b
        m = np.arange(l + 1)
        falling = (np.ones(l + 1), m, m * (m - 1))

        def part(P, s, u, v):
            # sum over m >= s of P_m (m)_s (u_m C_{m-s} + v_m S_{m-s})
            f, P = falling[s][s:], P[s:]
            return (np.einsum("m,m...,m...->...", f * u[s:], P, C[:l + 1 - s])
                    + np.einsum("m,m...,m...->...", f * v[s:], P, S[:l + 1 - s]))

        def dx(P, s):
            return part(P, s, wc, ws)

        def dy(P, s):
            return part(P, s, ws, -wc)

        hxx, hxy = dx(Q, 2), dy(Q, 2)
        hxz, hyz = dx(dQ, 1), dy(dQ, 1)
        g = np.stack([dx(Q, 1), dy(Q, 1), dx(dQ, 0)], axis=-1)
        h = np.stack([np.stack([hxx, hxy, hxz], axis=-1),
                      np.stack([hxy, -hxx, hyz], axis=-1),
                      np.stack([hxz, hyz, dx(d2Q, 0)], axis=-1)], axis=-2)
        return dx(Q, 0), g, h

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
        a, b = self._sector_coeffs()
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
