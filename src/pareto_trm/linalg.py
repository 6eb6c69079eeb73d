"""Dense numerical kernels.

Everything here is deterministic: the simplex uses Bland's rule, all sampling
is Halton-based, and no global RNG state is touched. These routines are pure
functions of their inputs and safe to call from multiple threads.

The package's one pivot rule lives in one elimination routine,
`_eliminate`: Gaussian elimination with partial pivoting that rejects a
pivot at or below 1e-12 max|A| (SingularMatrix). `solve_linear` eliminates
the augmented matrix [A | b] with it and back-substitutes.

The descent LP starts at the basis its first pivot always reaches and
writes that basis's W = B^-1 A down. Every later basis it solves once with
LAPACK (`np.linalg.solve`) for the quantities its pivoting decisions read;
LAPACK's bits are fixed for a given numpy build. Only the final basis, the
one the answer is read from, meets the pivot rule: its basic solution is
eliminated once with `_eliminate` and back-substituted as `solve_linear`
does.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, LPFailure, SingularMatrix


def first_primes(count: int) -> list[int]:
    """The first `count` primes, by trial division."""
    primes: list[int] = []
    cand = 2
    while len(primes) < count:
        if all(cand % p for p in primes if p * p <= cand):
            primes.append(cand)
        cand += 1
    return primes


def _radical_inverse(i: int, base: int) -> float:
    inv, denom = 0.0, 1.0
    while i > 0:
        i, digit = divmod(i, base)
        denom *= base
        inv += digit / denom
    return inv


def halton(count: int, dim: int, offset: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy points in (0,1)^dim, shifted by `offset`.

    The result is cached and shared between callers, so it is read-only.
    """
    return _halton(int(count), int(dim), int(offset))


@lru_cache(maxsize=64)
def _halton(count: int, dim: int, offset: int) -> np.ndarray:
    out = np.empty((count, dim))
    for j, base in enumerate(first_primes(dim)):
        out[:, j] = [_radical_inverse(offset + i + 1, base) for i in range(count)]
    out.flags.writeable = False
    return out


def axis_differences(fn, Z, h, lo, hi, f0=None) -> np.ndarray:
    """Difference quotients along every coordinate axis at every row of Z.

    With up = min(z_i + h, hi_i) and dn = max(z_i - h, lo_i), axis i of row z
    is differenced centrally, (f(up) - f(dn)) / (up - dn), when both ends move;
    one-sidedly against f(z) when only one does, at a box face; and is zero
    where the clipped stencil is flat. Stencil points never leave [lo, hi].

    fn maps an (N, n) array of points to N values, scalars or arrays. It is
    called once: on the stencil rows in the order row, axis, up before down,
    then on the rows of Z whose one-sided differences need f(z), unless f0
    (f at every row of Z) is passed. The result's [k, i] is the quotient of
    row k along axis i.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    m, n = Z.shape
    up = np.minimum(Z + h, hi)
    dn = np.maximum(Z - h, lo)
    live = ~(up - dn <= 0)  # not `> 0`: a NaN span is differenced, not zeroed
    go_up = live & (up > Z)
    central = go_up & (dn < Z)
    # [k, i, 0] is the end read first (up, or dn when up is stuck at a face),
    # [k, i, 1] the down end of a central difference
    take = np.stack([live, central], axis=2)
    first = np.where(go_up, up, dn)
    S = np.repeat(Z, 2 * n, axis=0).reshape(m, n, 2, n)
    axes = np.arange(n)
    S[:, axes, 0, axes] = first
    S[:, axes, 1, axes] = dn
    P = np.compress(take.ravel(), S.reshape(-1, n), axis=0)
    need_f0 = np.any(live != central, axis=1) if f0 is None else np.zeros(m, dtype=bool)
    V = np.asarray(fn(np.concatenate([P, Z[need_f0]])), dtype=float)
    tail = V.shape[1:]
    F = np.zeros((m * n * 2,) + tail)
    F[take.ravel()] = V[: len(P)]
    F = F.reshape((m, n, 2) + tail)
    if f0 is None:
        f0 = np.zeros((m,) + tail)
        f0[need_f0] = V[len(P):]
    # a one-sided difference runs from z, so its second end holds f(z)
    shape = (m, n) + (1,) * len(tail)
    np.copyto(F[:, :, 1], np.reshape(f0, (m, 1) + tail), where=~central.reshape(shape))
    span = (first - np.where(central, dn, Z)).reshape(shape)
    live = live.reshape(shape)
    D = np.subtract(F[:, :, 0], F[:, :, 1], out=np.zeros((m, n) + tail), where=live)
    return np.divide(D, span, out=D, where=live)


def _eliminate(M) -> np.ndarray:
    """Gaussian elimination with partial pivoting of the first n columns of the
    finite n-row matrix M: a square A, or A augmented with right-hand sides
    [A | b]. Returns the eliminated matrix: its first n columns hold the upper
    triangle, and any further columns the eliminated right-hand sides. The
    strict lower part is never read, so it is left unswapped and unzeroed.
    Raises SingularMatrix on a pivot at or below 1e-12 max|A|. This is the
    package's one elimination routine."""
    U = np.array(M, dtype=float)
    n = U.shape[0]
    piv_floor = 1e-12 * np.abs(U[:, :n]).max(initial=0.0)
    for col in range(n):
        p = col + int(np.abs(U[col:, col]).argmax())
        pivot = U[p, col]
        if abs(pivot) <= piv_floor:
            raise SingularMatrix(f"pivot {pivot!r} below threshold in column {col}")
        row = U[p, col:]
        if p != col:  # swap the rows' live columns by plain slicing
            tail = U[col, col:].copy()
            U[col, col:] = row
            U[p, col:] = tail
            row = U[col, col:]
        if col + 1 < n:
            below = U[col + 1:]
            factors = below[:, col] / pivot
            below[:, col:] -= factors[:, None] * row
    return U


def solve_linear(A, b) -> np.ndarray:
    """Solve Ax = b by Gaussian elimination with partial pivoting.

    b is one right-hand side (n,) or k of them as the columns of (n, k).
    Validates, eliminates [A | b] in one pass with `_eliminate` and
    back-substitutes each column on its own, so it gets the bits of a solve
    with that column alone.
    """
    A = np.array(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("A must be square")
    n = A.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise DimensionMismatch("b must have one row per row of A")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("entries must be finite")
    X = _back_substitute(_eliminate(np.hstack([A, b.reshape(n, -1)])))
    return X.T if b.ndim == 2 else X[0]


def _back_substitute(U) -> np.ndarray:
    """The solutions of an eliminated [U | c], one row per column of c."""
    n = U.shape[0]
    X = np.zeros((U.shape[1] - n, n))
    for x, rhs in zip(X, U[:, n:].T):
        for i in range(n - 1, -1, -1):
            x[i] = (rhs[i] - U[i, i + 1: n] @ x[i + 1:]) / U[i, i]
    return X


def _forced_w(A) -> np.ndarray:
    """W = B2^-1 A for the LP's second basis B2 = [1 | e_1 .. e_{k-1}] (bt and
    every slack but the first): row 0 of A, then each row minus row 0. B2 is
    unit lower triangular with ones in column 0, so these are LAPACK's values,
    each one rounded subtraction; only the sign of a zero may differ."""
    W = A - A[0]
    W[0] = A[0]
    return W


def solve_descent_lp(gradients, box_lo, box_hi) -> tuple[np.ndarray, float]:
    """min beta s.t. g_l . d <= beta for all l, box_lo <= d <= box_hi, by a
    bounded-variable simplex with Bland's rule; returns (d, beta), beta <= 0.
    The box is the unit inf-norm ball cut by the shifted feasible set, so it
    holds 0 and |d_i| <= 1; the input is checked once, here.

    Variables are split d = dp - dm with dp, dm >= 0 and beta = -bt with
    bt in [0, B], so the initial all-zero point is basic feasible with the
    slack basis. Bland's pivoting makes the output deterministic.

    The simplex runs on the rows G 2^-e, with e = round(log2 max|G|), and
    returns beta 2^e. The scaling is exact, so (d, beta) is exactly scale
    covariant in powers of two, and the tolerances, which compare unitless
    ratio-test entries with reduced costs in G's units, see rows of size
    about 1. Rows whose max|G| lies in [2^-1/2, 2^1/2] are solved unscaled.

    The first pivot is forced: from the slack basis only bt is eligible,
    every ratio is 0, and Bland's rule swaps bt for the first slack. The
    simplex starts after it, at B2 = [bt, s_2, .., s_k], whose W = B2^-1 A is
    written down (`_forced_w`), and the pivot counts toward the iteration
    cap. Every later basis B is solved once by LAPACK for W = B^-1 A. W
    holds every reduced cost, cost - c_B W, every ratio-test column W[:, j]
    and the basic values -W x_N of the nonbasic values x_N; they are read
    only through comparisons with +-tol and max(x_B, 0), so the sign of a
    zero in W decides nothing. Only the final basis meets the pivot rule:
    its basic solution is solve_linear's arithmetic on B x_B = -A x_N, and
    the floor is taken over B's columns, so a basis LAPACK or the rule finds
    singular raises LPFailure("singular basis: ...").
    Most iterations are bound flips, which keep the basis: the entering
    variable moves to its opposite bound. After a flip the scan for the next
    entering variable resumes after the flipped one. That is exact: W and the
    reduced costs are unchanged, and so are the bound states of the columns
    before it, none of which was eligible; the flipped column's reduced cost
    now has the wrong sign for its new bound. Flips and pivots both count
    toward the iteration cap.

    Postcondition: d lies in its box and |max_l g_l.d - beta| <= 1e-9
    max(2^e, |beta|), that is 1e-9 max(1, |beta|) on the scaled rows;
    otherwise the LP raises LPFailure rather than return a wrong direction.
    """
    G = np.atleast_2d(np.asarray(gradients, dtype=float))
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    if lo.shape != hi.shape or G.shape[1] != lo.size:
        raise DimensionMismatch("gradient/box shapes disagree")
    if not np.isfinite(G).all():
        raise ValueError("gradients must be finite")
    if (lo > 0).any() or (hi < 0).any():
        raise ValueError("d = 0 must be feasible (box_lo <= 0 <= box_hi)")
    if (lo < -1 - 1e-12).any() or (hi > 1 + 1e-12).any():
        raise ValueError("box must lie inside the unit ball")
    lo, hi = np.clip(lo, -1.0, 0.0), np.clip(hi, 0.0, 1.0)
    k, n = G.shape
    gmax = float(np.abs(G).max(initial=0.0))
    e = int(np.rint(np.log2(gmax))) if gmax > 0.0 else 0
    G = np.ldexp(G, -e)
    abs_g = np.abs(G)
    nv = 2 * n + 1 + k  # dp, dm, bt, slacks
    big = max(1.0, float(abs_g.sum(axis=1).max()) + 1.0)
    upper = np.concatenate([hi, -lo, [big], np.full(k, np.inf)])
    cost = np.zeros(nv)
    cost[2 * n] = -1.0
    A = np.zeros((k, nv))
    A[:, :n] = G
    A[:, n: 2 * n] = -G
    A[:, 2 * n] = 1.0
    A[:, 2 * n + 1:] = np.eye(k)

    basis = [2 * n, *range(2 * n + 2, nv)]  # after the forced pivot: bt in, s_1 out
    at_upper = np.zeros(nv, dtype=bool)  # nonbasic status; basics ignored
    in_basis = np.zeros(nv, dtype=bool)
    in_basis[basis] = True
    xn = np.zeros(nv)  # nonbasic values, 0 at basics

    tol = 1e-11 * max(1.0, float(abs_g.max(initial=0.0)))
    priced = upper > tol  # variables with room to move
    caps = upper.tolist()  # for the scalar ratio and flip tests

    B, W = A[:, basis], _forced_w(A)
    candidates = None
    max_iters = 500 + 50 * nv  # pivots and bound flips together, the forced pivot first
    for _ in range(max_iters - 1):
        if candidates is None:  # a new basis: solve it and price it once
            if W is None:
                B = A[:, basis]
                try:
                    W = np.linalg.solve(B, A)
                except np.linalg.LinAlgError as exc:
                    raise LPFailure(f"singular basis: {exc}") from exc
            red = cost - cost[basis] @ W
            eligible = priced & ~in_basis & np.where(at_upper, red > tol, red < -tol)
            # the entering candidates in Bland's order; a flip moves to the next
            candidates = iter(np.flatnonzero(eligible).tolist())
        entering = next(candidates, -1)
        if entering < 0:
            break
        xb = (-(W @ xn)).tolist()
        # the entering column of W, signed by the direction the variable moves
        w = (-W[:, entering] if at_upper[entering] else W[:, entering]).tolist()
        t_best, leave_pos, leave_to_upper = np.inf, -1, False
        for i, bi in enumerate(basis):
            dw = w[i]
            if dw > tol:
                t = max(xb[i], 0.0) / dw  # basic variable drops to 0
                hit_upper = False
            elif dw < -tol and caps[bi] < np.inf:
                t = max(caps[bi] - xb[i], 0.0) / (-dw)  # basic rises to its cap
                hit_upper = True
            else:
                continue
            # smaller ratio wins; ties go to the smallest variable index (Bland)
            if t < t_best - 1e-13 or (
                t <= t_best + 1e-13 and leave_pos >= 0 and bi < basis[leave_pos]
            ):
                t_best, leave_pos, leave_to_upper = min(t, t_best), i, hit_upper
        if caps[entering] < t_best - 1e-13:
            # entering variable reaches its opposite bound first: flip, no pivot;
            # no column up to it is eligible now, so the scan resumes after it
            at_upper[entering] = not at_upper[entering]
            xn[entering] = caps[entering] if at_upper[entering] else 0.0
            continue
        if leave_pos < 0:
            raise LPFailure("unbounded direction encountered")
        leaving = basis[leave_pos]
        basis[leave_pos] = entering
        in_basis[entering] = True
        in_basis[leaving] = False
        at_upper[leaving] = leave_to_upper
        at_upper[entering] = False
        xn[leaving] = upper[leaving] if leave_to_upper else 0.0
        xn[entering] = 0.0
        W = candidates = None
    else:
        raise LPFailure("simplex iteration cap reached")
    try:
        U = _eliminate(np.column_stack([B, -A @ xn]))
    except SingularMatrix as exc:
        raise LPFailure(f"singular basis: {exc}") from exc
    x = xn  # optimal: nonbasics at their bounds, basics solved
    x[basis] = _back_substitute(U)[0]
    d = x[:n] - x[n: 2 * n]
    beta = -float(x[2 * n])
    gap = float((G @ d).max()) - beta
    if not ((d >= lo).all() and (d <= hi).all() and abs(gap) <= 1e-9 * max(1.0, abs(beta))):
        raise LPFailure(f"basic solution leaves its box or misstates beta: gap {gap!r}")
    return d, float(np.ldexp(beta, e))


# Armijo halvings per start in one iteration of box_multistart_minimize, and
# how many consecutive halvings of every pending start one value_fn call
# tests. A model call costs about the same at 13 rows as at 52, so testing
# several halvings at once trades a few spare rows for fewer calls. One
# seed-0 step-solve bench pass (2-core Xeon VM shared with other jobs; median
# of 10 rounds of 3 passes) took 1.12 / 1.07 / 0.91 / 1.05 s at 2 / 4 / 6 / 8
# halvings per call, in 7,222 / 4,394 / 4,029 / 3,880 value calls of 102k /
# 176k / 260k / 344k rows. Rounds spread from 0.70 to 1.52 s, and no length
# beat 4 in more than 6 of the 10 rounds.
MAX_HALVINGS = 40
LADDER = 4


def box_multistart_minimize(
    value_fn: Callable[[np.ndarray], tuple[np.ndarray, Optional[np.ndarray]]],
    grad_fn: Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray],
    lo,
    hi,
    n_starts: int = 10,
    seed: int = 0,
    max_iters: int = 200,
    gtol: float = 1e-10,
    include: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, float]:
    """Projected-gradient descent with Armijo backtracking from Halton starts.

    value_fn maps a batch U (m, n) to (values (m,), aux): aux is None, or an
    array whose row i holds terms of row i of U that the gradient can reuse.
    grad_fn maps (U, aux) to the gradients (m, n), where aux holds the rows
    value_fn returned for the rows of U (None if value_fn returns None).
    Both must be row-independent: each row of a result has the bits it has
    when that row is evaluated alone, whatever the rest of the batch holds,
    so the aux rows grad_fn receives have the bits value_fn gives U itself.
    grad_fn must be pure: it is called once per accepted iterate, and that
    gradient serves both the stop test and the next iteration.

    Each iteration backtracks every start from its own step s_i, halving up
    to MAX_HALVINGS times; a start accepts the first halving b whose point
    clip(x_i - s_i 2^-b g_i) passes the Armijo test, and its next step is
    twice the accepted one. The halvings are tested as a ladder: one value_fn
    call holds LADDER consecutive halvings of every start still pending, row
    by row, and the starts that accept drop out before the next rung. Row
    independence makes this give the iterates of testing one halving per
    call. The ladder's steps are s_i 2^-b, products with exact powers of two,
    so they are the repeated halvings bit for bit while they stay above
    2^-1019, where no halving rounds.

    An iteration that ends in the state it began from (iterates, values and
    steps equal as bytes, so -0.0 never matches 0.0 and NaN matches itself)
    ends the search before its gradient call: every later iteration, stop
    test included, would repeat it, so the result is the one the iteration
    cap would give. Deterministic for fixed inputs; per-run objective
    sequences are non-increasing. Returns the best point found and its value.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.size
    X = lo + halton(max(1, n_starts), n, offset=1000 * seed) * (hi - lo)
    if include is not None:
        extra = np.atleast_2d(np.asarray(include, dtype=float))
        X = np.vstack([np.clip(extra, lo, hi), X])
    F, A = value_fn(X)
    Gr = grad_fn(X, A)
    step = np.ones(X.shape[0])
    halves = np.ldexp(1.0, -np.arange(LADDER))
    for _ in range(max_iters):
        Xn, Fn, stepn = X.copy(), F.copy(), step.copy()
        An = None if A is None else A.copy()
        pending = np.arange(X.shape[0])
        # the pending starts' iterates, gradients, values and next halving to test
        Xp, Gp, Fp, trial = X, Gr, F, step
        for b0 in range(0, MAX_HALVINGS, LADDER):
            rungs = min(LADDER, MAX_HALVINGS - b0)
            S = trial[:, None] * halves[:rungs]
            cand = Xp[:, None, :] - S[:, :, None] * Gp[:, None, :]
            np.maximum(cand, lo, out=cand)
            np.minimum(cand, hi, out=cand)
            moves = np.subtract(Xp[:, None, :], cand).reshape(-1, n)
            cand = cand.reshape(-1, n)
            Fc, Ac = value_fn(cand)
            decrease = np.einsum("ij,ij->i", Gp.repeat(rungs, axis=0), moves)
            ok = Fc.reshape(-1, rungs) <= Fp[:, None] - 1e-4 * decrease.reshape(-1, rungs)
            # each pending start's first accepted halving, as a row of cand
            pick = ok.argmax(axis=1)
            pick += np.arange(0, pick.size * rungs, rungs)
            hit = ok.ravel()[pick]
            pick = pick[hit]
            rows = pending[hit]
            Xn[rows] = cand[pick]
            Fn[rows] = Fc[pick]
            stepn[rows] = S.ravel()[pick] * 2.0
            if An is not None:
                An[rows] = Ac[pick]
            miss = ~hit
            pending = pending[miss]
            if pending.size == 0:
                break
            Xp, Gp, Fp, trial = Xp[miss], Gp[miss], Fp[miss], S[miss, -1] * 0.5
        if all(a.tobytes() == b.tobytes() for a, b in ((Xn, X), (Fn, F), (stepn, step))):
            break  # the iteration repeats its start state, and so would every later one
        X, F, A, step = Xn, Fn, An, stepn
        Gr = grad_fn(X, A)  # for the stop test and the next iteration
        D = X - Gr  # the projected gradient X - clip(X - Gr), in place
        np.maximum(D, lo, out=D)
        np.minimum(D, hi, out=D)
        np.subtract(X, D, out=D)
        if np.abs(D, out=D).max() <= gtol:
            break
    best = int(np.argmin(F))
    return X[best].copy(), float(F[best])
