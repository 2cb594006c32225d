"""Exact linear algebra and polynomial arithmetic over GF(q), q prime.

Matrices are numpy int64 arrays with entries reduced into [0, q). Callers
keep q small enough that products fit int64 before reduction: the character
tables require |G| (q-1)^2 < 2^63 (checked in `chartab`).
"""
from __future__ import annotations

import numpy as np

from .errors import TableConstructionFailed


def inv_mod(a, q):
    return pow(int(a) % q, q - 2, q)


def rref(M, q):
    """Reduced row echelon form mod q; returns (R, pivot_columns)."""
    R = np.array(M, dtype=np.int64) % q
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.flatnonzero(R[r:, c])
        if hits.size == 0:
            continue
        k = r + int(hits[0])
        if k != r:
            R[[r, k]] = R[[k, r]]
        R[r] = (R[r] * inv_mod(R[r, c], q)) % q
        other = np.flatnonzero(R[:, c])
        other = other[other != r]
        if other.size:
            R[other] = (R[other] - np.outer(R[other, c], R[r])) % q
        pivots.append(c)
        r += 1
    return R, pivots


def solve_right(B, M, q):
    """Solve B @ R = M (mod q) for R, with B of full column rank."""
    m, d = B.shape
    aug = np.concatenate([B, M], axis=1) % q
    R, pivots = rref(aug, q)
    if pivots[:d] != list(range(d)):
        raise ValueError("matrix does not have full column rank")
    return R[:d, d:]


def nullspace(A, q):
    """Basis (columns) of {v : A v = 0 mod q}."""
    A = np.asarray(A, dtype=np.int64)
    rows, cols = A.shape
    R, pivots = rref(A, q)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for r, pc in enumerate(pivots):
            basis[pc, k] = (-R[r, fc]) % q
    return basis


# --- dense polynomials mod q, little-endian coefficient lists ---

def poly_trim(f):
    while len(f) > 1 and f[-1] == 0:
        f = f[:-1]
    return f


def poly_add(f, g, q):
    n = max(len(f), len(g))
    return poly_trim([((f[i] if i < len(f) else 0)
                       + (g[i] if i < len(g) else 0)) % q for i in range(n)])


def poly_scale(f, c, q):
    return poly_trim([v * c % q for v in f])


def poly_mul(f, g, q):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % q
    return poly_trim(out)


def poly_divmod(f, g, q):
    f = list(f)
    g = poly_trim(list(g))
    if g == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    inv_lead = inv_mod(g[-1], q)
    quot = [0] * max(1, len(f) - dg)
    rem = list(f)
    for i in range(len(f) - dg - 1, -1, -1):
        c = rem[i + dg] * inv_lead % q
        if c:
            quot[i] = c
            for j, b in enumerate(g):
                rem[i + j] = (rem[i + j] - c * b) % q
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(f, g, q):
    f, g = poly_trim(list(f)), poly_trim(list(g))
    while g != [0]:
        f, g = g, poly_divmod(f, g, q)[1]
    if f != [0]:
        f = poly_scale(f, inv_mod(f[-1], q), q)
    return f


def poly_deriv(f, q):
    return poly_trim([i * f[i] % q for i in range(1, len(f))] or [0])


def poly_pow_mod(base, exp, mod, q):
    result = [1]
    base = poly_divmod(base, mod, q)[1]
    while exp:
        if exp & 1:
            result = poly_divmod(poly_mul(result, base, q), mod, q)[1]
        base = poly_divmod(poly_mul(base, base, q), mod, q)[1]
        exp >>= 1
    return result


def charpoly(A, q):
    """Characteristic polynomial det(xI - A) mod q, by Faddeev-LeVerrier.

    With c_d = 1 and M_0 = 0: M_k = A M_(k-1) + c_(d-k+1) I and
    c_(d-k) = -tr(A M_k) / k for k = 1..d, so 1..d must be invertible mod q.
    Entries stay in [0, q), so each product A M_k sums d <= |G| products of
    two residues, within the |G| (q-1)^2 < 2^63 headroom that `chartab`
    checks.
    """
    A = np.asarray(A, dtype=np.int64) % q
    d = A.shape[0]
    if d >= q:
        raise TableConstructionFailed(
            f"charpoly of a {d} x {d} matrix needs q > {d}, got q = {q}")
    eye = np.eye(d, dtype=np.int64)
    coeffs = [1]                       # c_d, c_(d-1), ..., c_0
    AM = np.zeros_like(A)              # A M_0
    for k in range(1, d + 1):
        AM = A @ ((AM + coeffs[-1] * eye) % q) % q
        coeffs.append(-int(AM.trace()) * inv_mod(k, q) % q)
    return coeffs[::-1]


def _split_roots(f, q, out):
    """Collect roots of a squarefree monic f that splits into linears mod q.

    Splits with g = gcd((x+a)^((q-1)/2) - 1, f) for a = 0, 1, 2, ...; the
    sweep is deterministic, so runs are reproducible. g holds the roots r
    with r + a a nonzero square, so a splits f once it separates two roots
    r != s. For odd q, at most (q+1)/2 values of a fail to separate them:
    sum_a chi((a+r)(a+s)) = -1 for the quadratic character chi, so of the
    q - 2 values with r + a and s + a both nonzero, (q-3)/2 give equal
    characters, and the only other failures can be a = -r and a = -s. So
    one of the first (q+3)/2 values splits f, and the sweep stops there.
    """
    deg = len(f) - 1
    if deg == 0:
        return
    if deg == 1:
        out.append((-f[0]) % q)
        return
    for a in range((q + 3) // 2):
        h = poly_pow_mod([a, 1], (q - 1) // 2, f, q)
        h = poly_add(h, [q - 1], q)
        g = poly_gcd(h, f, q)
        if 0 < len(g) - 1 < deg:
            _split_roots(g, q, out)
            _split_roots(poly_divmod(f, g, q)[0], q, out)
            return
    raise TableConstructionFailed(
        "root splitting failed within (q+3)/2 tries; roots not in GF(q)?")


def roots_in_field(f, q):
    """Distinct roots of f in GF(q), sorted ascending.

    Assumes every root of f lies in GF(q) (true for class-matrix eigenvalues
    once q = 1 mod exp(G)).
    """
    f = poly_trim([int(c) % q for c in f])
    f = poly_scale(f, inv_mod(f[-1], q), q)
    sf = poly_divmod(f, poly_gcd(f, poly_deriv(f, q), q), q)[0]
    sf = poly_scale(sf, inv_mod(sf[-1], q), q)
    out = []
    _split_roots(sf, q, out)
    if len(out) != len(sf) - 1:
        raise TableConstructionFailed("polynomial does not split over GF(q)")
    return sorted(out)
