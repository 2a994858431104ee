"""References computed apart from critfield, and the checks built on them.

Every reference here comes from one of two outside results:

* the source paper's closed forms (Cheng & Schwartzman, arXiv 1511.06835):
  N = 2 totals on R^2 and S^2, and the N = 3 Euclidean totals
  (29 -+ 6 sqrt 6) / (6 sqrt 6 pi^2 eta^3) for extrema and saddles;
* the Gaussian kinematic formula (Adler & Taylor, Random Fields and
  Geometry, 2007), which fixes the alternating index sum of thresholded
  counts:

      R^N:  sum_i (-1)^(N-i) E[mu_i > u]
                = lam^(N/2) (2 pi)^(-(N+1)/2) He_(N-1)(u) exp(-u^2/2),
            lam = -2 rho'(0);
      S^2:  area * sum_i (-1)^i E[mu_i > u]
                = 2 Phibar(u) + 4 pi lam (2 pi)^(-3/2) u exp(-u^2/2),
            lam = C'(1);

  and, differentiating in u, the height densities:
      sum_i (-1)^(N-i) E[mu_i] h_i(u)
                = lam^(N/2) (2 pi)^(-(N+1)/2) He_N(u) exp(-u^2/2).

Detected critical points are re-checked with the benchmark's own field
evaluation (complex-exponential trig sums on the plane, scipy's associated
Legendre functions on the sphere), not with critfield's.

Each check returns a list of failure messages; an empty list means the
rows or points passed.
"""
from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
from scipy.special import lpmv, ndtr

SQRT6 = math.sqrt(6.0)

# Quadrature rows agree with exact references to ~1e-12 today; 1e-6 is the
# stated relative tolerance (relative to the sum of absolute terms).
QUAD_RTOL = 1e-6
# Monte Carlo rows must lie within this many of their own standard errors.
MC_SIGMAS = 5.0
# Per-field counts of detected points: within this many Poisson standard
# deviations of the expected count (a gross check; true spread is smaller).
COUNT_SIGMAS = 6.0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def hermite_he(n: int, u: float) -> float:
    """Probabilists' Hermite polynomial He_n(u)."""
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, u * cur - k * prev
    return cur


def euclid_lambda(eta2: float, kappa2: float) -> float:
    """-2 rho'(0) for the shape pair: rho'(0) = -kappa^2 / eta^2."""
    return 2.0 * kappa2 / eta2


def sphere_lambda(eta2: float, kappa2: float) -> float:
    """C'(1) for the shape pair: C'(1) = kappa^2 / eta^2."""
    return kappa2 / eta2


def euclid_totals_n2(eta2: float) -> list[float]:
    base = 1.0 / (math.sqrt(3.0) * math.pi * eta2)
    return [base, 2.0 * base, base]


def euclid_totals_n3(eta2: float) -> list[float]:
    denom = 6.0 * SQRT6 * math.pi ** 2 * eta2 ** 1.5
    ext = (29.0 - 6.0 * SQRT6) / denom
    sad = (29.0 + 6.0 * SQRT6) / denom
    return [ext, sad, sad, ext]


def sphere_totals_n2(eta2: float) -> list[float]:
    root = math.sqrt(3.0 + eta2)
    sad = 1.0 / (math.pi * eta2 * root)
    ext = 1.0 / (4.0 * math.pi) + 0.5 * sad
    return [ext, sad, ext]


def euclid_saddle_above_n2(eta2: float, kappa2: float, u: float) -> float:
    """E[mu_1 > u] on R^2: saddle heights are N(0, (3 - kappa^2) / 3)."""
    return euclid_totals_n2(eta2)[1] * float(ndtr(-u * math.sqrt(3.0 / (3.0 - kappa2))))


def gkf_euclid(n: int, lam: float, u: float) -> float:
    return (lam ** (0.5 * n) * (2.0 * math.pi) ** (-0.5 * (n + 1))
            * hermite_he(n - 1, u) * math.exp(-0.5 * u * u))


def gkf_euclid_pdf(n: int, lam: float, u: float) -> float:
    return (lam ** (0.5 * n) * (2.0 * math.pi) ** (-0.5 * (n + 1))
            * hermite_he(n, u) * math.exp(-0.5 * u * u))


def gkf_sphere2(lam: float, u: float) -> float:
    return (2.0 * float(ndtr(-u))
            + 4.0 * math.pi * lam * (2.0 * math.pi) ** -1.5 * u * math.exp(-0.5 * u * u))


SPHERE2_AREA = 4.0 * math.pi


# ---------------------------------------------------------------------------
# row checks (rows are dicts parsed from the CLI's CSV)
# ---------------------------------------------------------------------------


def _num(row, key):
    return float(row[key]) if row[key] != "" else 0.0


def _close(label: str, got: float, ref: float, tol: float) -> list[str]:
    if math.isfinite(got) and abs(got - ref) <= tol:
        return []
    return [f"{label}: got {got:.12g}, reference {ref:.12g}, tolerance {tol:.3g}"]


def rows_by_index(rows, quantity: str) -> dict:
    """{grid_value: {index: (value, error)}} for one quantity."""
    out: dict = defaultdict(dict)
    for r in rows:
        if r["quantity"] == quantity:
            out[float(r["grid_value"])][int(r["index"])] = (_num(r, "value"), _num(r, "error"))
    return dict(out)


def _need(table: dict, n: int, what: str) -> list[str]:
    bad = [f"{what} at {g}: indices {sorted(t)} instead of 0..{n}"
           for g, t in table.items() if sorted(t) != list(range(n + 1))]
    return bad if table else [f"{what}: no rows"]


def check_totals(rows, refs: list[float]) -> list[str]:
    """Expected-count rows (no threshold) against exact per-index totals."""
    table = rows_by_index(rows, "expected-count")
    bad = _need(table, len(refs) - 1, "totals")
    for g, t in table.items():
        for i, ref in enumerate(refs):
            if i in t:
                bad += _close(f"total[{i}]", t[i][0], ref, QUAD_RTOL * abs(ref))
    return bad


def _alternating(t: dict, n: int, weights=None, sign_from_top=True):
    s = err = scale = 0.0
    for i in range(n + 1):
        sign = (-1) ** (n - i) if sign_from_top else (-1) ** i
        w = 1.0 if weights is None else weights[i]
        v, e = t[i]
        s += sign * w * v
        err += w * e
        scale += abs(w * v)
    return s, err, scale


def check_euler_zero(rows, n: int, mc: bool = False) -> list[str]:
    """Alternating index sum of totals vanishes: R^N, and chi(S^3) = 0."""
    table = rows_by_index(rows, "expected-count")
    bad = _need(table, n, "euler sum")
    if bad:
        return bad
    for g, t in table.items():
        s, err, scale = _alternating(t, n)
        tol = MC_SIGMAS * err if mc else QUAD_RTOL * scale
        bad += _close(f"alternating sum at {g}", s, 0.0, tol)
    return bad


def check_gkf_euclid(rows, n: int, lam: float, quantity: str, mc: bool,
                     weights=None) -> list[str]:
    """Thresholded counts (or weights * upper-tail fractions) on R^N.

    With weights = exact totals E[mu_i], height-cdf rows F_i(u) become
    counts E[mu_i > u]; height-pdf rows h_i(u) are checked against the
    density identity (He_N in place of He_(N-1)).
    """
    table = rows_by_index(rows, quantity)
    bad = _need(table, n, f"{quantity} rows")
    if bad:
        return bad
    ref_fn = gkf_euclid_pdf if quantity == "height-pdf" else gkf_euclid
    for u, t in sorted(table.items()):
        s, err, scale = _alternating(t, n, weights)
        ref = ref_fn(n, lam, u)
        tol = MC_SIGMAS * err if mc else QUAD_RTOL * max(scale, abs(ref))
        bad += _close(f"GKF {quantity} at u={u}", s, ref, tol + 1e-14)
    return bad


def check_gkf_sphere2(rows, lam: float, mc: bool) -> list[str]:
    table = rows_by_index(rows, "expected-count")
    bad = _need(table, 2, "sphere counts")
    if bad:
        return bad
    for u, t in sorted(table.items()):
        s, err, scale = _alternating(t, 2, sign_from_top=False)
        ref = gkf_sphere2(lam, u)
        tol = SPHERE2_AREA * (MC_SIGMAS * err if mc else QUAD_RTOL * scale)
        bad += _close(f"S2 GKF at u={u}", SPHERE2_AREA * s, ref, tol + 1e-14)
    return bad


def check_saddles_n2(rows, eta2: float, kappa2: float) -> list[str]:
    bad = []
    for r in rows:
        if int(r["index"]) == 1:
            u = float(r["grid_value"])
            ref = euclid_saddle_above_n2(eta2, kappa2, u)
            bad += _close(f"saddles above {u}", _num(r, "value"), ref, QUAD_RTOL * abs(ref))
    return bad


# ---------------------------------------------------------------------------
# detected points, plane
# ---------------------------------------------------------------------------


def plane_grad_hess(omegas: np.ndarray, phases: np.ndarray, pts: np.ndarray):
    """Gradient and Hessian of sqrt(2/K) sum_k cos(<w_k, t> + p_k)."""
    scale = math.sqrt(2.0 / len(phases))
    e = np.exp(1j * (pts @ omegas.T + phases))        # (n, K)
    grad = -scale * (e.imag @ omegas)
    hess = -scale * np.einsum("nk,ka,kb->nab", e.real, omegas, omegas)
    return grad, hess


def _newton(starts: np.ndarray, grad_hess, move, tol: float, cap: float,
            iters: int = 40) -> np.ndarray:
    """Newton from each start; grad_hess(pts) gives the gradient and Hessian
    in local coordinates, move(pts, d) takes a step d in them.  Returns the
    points where |grad| fell below tol."""
    pts = np.array(starts, dtype=float)
    done = np.zeros(len(pts), dtype=bool)
    live = np.ones(len(pts), dtype=bool)
    for _ in range(iters):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        g, h = grad_hess(pts[idx])
        hit = np.linalg.norm(g, axis=1) < tol
        done[idx[hit]] = True
        live[idx[hit]] = False
        idx, g, h = idx[~hit], g[~hit], h[~hit]
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        live[idx[det == 0.0]] = False
        ok = det != 0.0
        idx, g, h = idx[ok], g[ok], h[ok]
        if idx.size == 0:
            continue
        d = np.linalg.solve(h, -g[..., None])[..., 0]
        dn = np.linalg.norm(d, axis=1)
        d *= np.minimum(1.0, cap / np.maximum(dn, 1e-300))[:, None]
        pts[idx] = move(pts[idx], d)
    return pts[done]


# start offsets of the merge search, in units of the merge radius: the
# point itself and two rings
_RING = np.array([[math.cos(a), math.sin(a)] for a in np.arange(8) * math.pi / 4.0])
_OFFSETS = np.vstack([[[0.0, 0.0]], 0.5 * _RING, _RING])


def _merge_signature(p: np.ndarray, grad_hess, move, dist, tol: float,
                     radius: float) -> bool:
    """True if Newton on the benchmark's own field evaluation, started in
    the merge radius around p, finds two distinct critical points within that
    radius of p: p is then the mean a merge made of them, not a point the
    field has."""
    starts = move(np.repeat(p[None, :], len(_OFFSETS), axis=0), radius * _OFFSETS)
    found = _newton(starts, grad_hess, move, tol, 0.5 * radius)
    found = found[dist(found, p) < radius]
    distinct: list = []
    for q in found:
        if all(dist(q[None, :], r)[0] > 1e-3 * radius for r in distinct):
            distinct.append(q)
    return len(distinct) >= 2


def _critical(grad: np.ndarray, tol: float, locs: np.ndarray, merged_at) -> tuple:
    """(failure, problems) for the recomputed gradients at detected points.
    A point whose gradient does not vanish is the known merge fault when
    merged_at(point) shows the merge signature (the operation fails), and
    wrong output otherwise."""
    norms = np.linalg.norm(grad, axis=1)
    off = np.flatnonzero(~(norms <= tol))
    merged = [k for k in off if merged_at(locs[k])]
    other = sorted(set(off) - set(merged))
    failure, problems = "", []
    if merged:
        failure = (f"{len(merged)} detected points are the mean of distinct critical points "
                   f"within the merge radius (|grad| up to {norms[merged].max():.3g}, "
                   f"tolerance {tol:.3g})")
    if other:
        problems = [f"{len(other)} of {len(norms)} detected points are not critical and "
                    f"not merges (|grad| up to {norms[other].max():.3g}, tolerance {tol:.3g})"]
    return failure, problems


def _index_mismatches(hess: np.ndarray, indices, gap: float, label: str) -> list[str]:
    eigs = np.linalg.eigvalsh(hess)
    clear = np.abs(eigs).min(axis=1) > gap
    miss = int((clear & ((eigs < 0.0).sum(axis=1) != np.asarray(indices))).sum())
    return [f"{miss} {label} points with an index the Hessian contradicts"] if miss else []


def plane_points(omegas, phases, rho1: float, rho2: float, locs, indices,
                 merge_radius: float):
    """(failure, problems): failure names detected points that a merge made
    out of distinct critical points; problems lists any other non-critical
    point and index disagreements."""
    if len(locs) == 0:
        return "", ["no points detected"]
    locs = np.asarray(locs, dtype=float)
    tol = 1e-7 * math.sqrt(-2.0 * rho1)
    grad, hess = plane_grad_hess(omegas, phases, locs)

    def merged_at(p):
        return _merge_signature(p, lambda x: plane_grad_hess(omegas, phases, x),
                                lambda x, d: x + d,
                                lambda x, q: np.linalg.norm(x - q, axis=-1),
                                tol, merge_radius)

    failure, problems = _critical(grad, tol, locs, merged_at)
    return failure, problems + _index_mismatches(hess, indices,
                                                 1e-4 * math.sqrt(12.0 * rho2), "plane")


def check_counts(counts, expected, label: str) -> list[str]:
    bad = []
    for i, (c, mu) in enumerate(zip(counts, expected)):
        tol = COUNT_SIGMAS * math.sqrt(mu) + 1.0
        bad += _close(f"{label} count of index {i}", float(c), mu, tol)
    return bad


# ---------------------------------------------------------------------------
# detected points, sphere
# ---------------------------------------------------------------------------


def sphere_values(degree: int, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Real degree-l harmonic sum at unit vectors; coefficient order is
    (m=0, cos 1, sin 1, cos 2, sin 2, ...) on the orthonormal basis with the
    Condon-Shortley phase."""
    pts = np.asarray(pts, dtype=float)
    z = np.clip(pts[..., 2], -1.0, 1.0)
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    l = degree
    out = math.sqrt((2 * l + 1) / (4.0 * math.pi)) * coeffs[0] * lpmv(0, l, z)
    for m in range(1, l + 1):
        norm = math.exp(0.5 * (math.log(2 * l + 1) - math.log(2.0 * math.pi)
                               + math.lgamma(l - m + 1) - math.lgamma(l + m + 1)))
        p = norm * lpmv(m, l, z)
        out = out + p * (coeffs[2 * m - 1] * np.cos(m * phi) + coeffs[2 * m] * np.sin(m * phi))
    return out


def _frames(pts: np.ndarray) -> np.ndarray:
    helper = np.where(np.abs(pts[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    e1 = np.cross(helper, pts)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return np.stack([e1, np.cross(pts, e1)], axis=1)


def sphere_grad_hess(degree: int, coeffs: np.ndarray, pts: np.ndarray,
                     h_grad: float = 1e-6, h_hess: float = 1e-4):
    """Tangent gradient and Hessian by central differences in the chart
    t -> normalize(p + t1 e1 + t2 e2); at a critical point that chart's
    Hessian is the covariant one."""
    pts = np.asarray(pts, dtype=float)
    fr = _frames(pts)

    def f(d1, d2):
        q = pts + d1 * fr[:, 0] + d2 * fr[:, 1]
        return sphere_values(degree, coeffs, q / np.linalg.norm(q, axis=1, keepdims=True))

    hg = h_grad
    grad = np.stack([(f(hg, 0) - f(-hg, 0)) / (2 * hg), (f(0, hg) - f(0, -hg)) / (2 * hg)], axis=1)
    h = h_hess
    f0 = f(0, 0)
    h11 = (f(h, 0) - 2 * f0 + f(-h, 0)) / h ** 2
    h22 = (f(0, h) - 2 * f0 + f(0, -h)) / h ** 2
    h12 = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h ** 2)
    hess = np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -2)
    return grad, hess


def _sphere_move(pts: np.ndarray, d: np.ndarray) -> np.ndarray:
    q = pts + np.einsum("ka,kai->ki", d, _frames(pts))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _angle(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.arccos(np.clip(x @ q, -1.0, 1.0))


def sphere_points(degree: int, coeffs, c1: float, c2: float, locs, indices,
                  merge_radius: float):
    """As plane_points (merge_radius is angular), with a broken Morse
    identity n0 - n1 + n2 != 2 added to the failure (a Morse function on S^2
    has Euler characteristic 2)."""
    if len(locs) == 0:
        return "", ["no points detected"]
    coeffs, locs = np.asarray(coeffs), np.asarray(locs, dtype=float)
    tol = 1e-5 * math.sqrt(c1)
    grad, hess = sphere_grad_hess(degree, coeffs, locs)

    def merged_at(p):
        return _merge_signature(p, lambda x: sphere_grad_hess(degree, coeffs, x),
                                _sphere_move, _angle, tol, merge_radius)

    failure, problems = _critical(grad, tol, locs, merged_at)
    chi = sphere_euler(indices)
    if chi != 2:
        failure = "; ".join(filter(None, [f"n0 - n1 + n2 = {chi}, not 2", failure]))
    return failure, problems + _index_mismatches(hess, indices,
                                                 1e-3 * math.sqrt(3.0 * c2 + c1), "sphere")


def sphere_euler(indices) -> int:
    """Morse sum n0 - n1 + n2; a Morse function on S^2 gives exactly 2."""
    c = np.bincount(np.asarray(indices, dtype=int), minlength=3)
    return int(c[0] - c[1] + c[2])
