"""Hot numeric kernels: route evaluation walks, dominance filtering, crowding, 2-D hypervolume.

Kernels are JIT-compiled with numba when available. Setting the environment
variable ``SURVROUTE_DISABLE_NUMBA=1`` (or numba being absent) selects the
fallback path. Scalar-walk kernels fall back to the *same* function body
interpreted by CPython, so results are bit-identical on both paths; the
dominance matrix falls back to a vectorized numpy formulation (boolean
output, hence also exact).

``walk_input`` gives ``eval_route``'s inputs the form each path walks
fastest: the compiled walk takes numpy arrays, the interpreted walk plain
tuples and lists, which CPython indexes without boxing a numpy scalar per
element. Both forms hold the same IEEE doubles and ints, so the walk gives
the same objectives either way.

``enumerate_routes``, the oracle's exhaustive enumeration, is compiled on
neither path: it is a numpy block walk over many assignments at once,
bit-identical to ``eval_route`` on each assignment.

``benchmarks/bench_kernels.py`` times both paths side by side.
"""

from __future__ import annotations

import math
import os

import numpy as np

_flag = os.environ.get("SURVROUTE_DISABLE_NUMBA", "").strip().lower()
_disabled = _flag in {"1", "true", "yes", "on"}

if _disabled:
    NUMBA_ENABLED = False
else:
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - exercised via env flag instead
        NUMBA_ENABLED = False

if NUMBA_ENABLED:

    def _jit(func):
        return _njit(cache=True)(func)

else:

    def _jit(func):
        return func


_BLOCK_ROWS = 8192  # assignments per enumerate_routes block: bounds its working arrays


if NUMBA_ENABLED:

    def walk_input(values, dtype):
        """``values`` as an ``eval_route`` input for the compiled walk: a numpy array of ``dtype``."""
        return np.asarray(values, dtype=dtype)

else:

    def walk_input(values, dtype):
        """``values`` (a tuple or list) as an ``eval_route`` input for the interpreted walk: unchanged."""
        return values


def python_impl(kernel):
    """Return the uncompiled implementation of a kernel (the kernel itself on the fallback path)."""
    return getattr(kernel, "py_func", kernel)


@_jit
def eval_route(choices, mr_link_offset, link_parent, link_cost, link_fail, ar_bs_fail, n_ar, max_depth):
    """Evaluate one route assignment; returns (z1, z2, valid).

    The sequences come as ``walk_input`` gives them: numpy arrays on the
    compiled path, plain tuples or lists on the interpreted one.
    ``choices[m]`` indexes into MR m's candidate-link block starting at
    ``mr_link_offset[m]``. ``link_parent[li] < n_ar`` means the link attaches
    to access router ``li``'s index, otherwise to MR ``link_parent[li] - n_ar``.

    z1 sums every chosen link cost along each MR's path to its access router
    (nested children pay their whole upstream path). z2 sums, per MR, the
    probability that any component on that path fails: chosen links first in
    walk order, then the base station behind the terminating access router.
    The accumulation order is part of the determinism contract.
    """
    n_mr = len(choices)
    # a walk of more than n_mr links has revisited an MR and can never reach
    # an access router, so larger depth limits need no more steps
    steps = min(max_depth, n_mr)
    z1 = 0.0
    z2 = 0.0
    for m in range(n_mr):
        cur = m
        cost = 0.0
        surv = 1.0
        ok = False
        for _step in range(steps):
            li = mr_link_offset[cur] + choices[cur]
            cost += link_cost[li]
            surv *= 1.0 - link_fail[li]
            parent = link_parent[li]
            if parent < n_ar:
                surv *= 1.0 - ar_bs_fail[parent]
                ok = True
                break
            cur = parent - n_ar
        if not ok:
            # cycle, or access router not reached within max_depth links
            return 0.0, 0.0, False
        z1 += cost
        z2 += 1.0 - surv
    return z1, z2, True


def enumerate_routes(radices, mr_link_offset, link_parent, link_cost, link_fail, ar_bs_fail, n_ar, max_depth):
    """Evaluate every assignment in the full mixed-radix space.

    Returns (valid, z1, z2) arrays of length prod(radices), indexed in
    row-major order (last MR varies fastest), matching np.unravel_index;
    z1 and z2 are 0.0 on invalid rows.

    The space is walked in blocks of ``_BLOCK_ROWS`` assignments. Within a
    block every MR's walk of every assignment advances together, one masked
    step per depth level, and the per-MR terms are summed in MR order. Each
    valid row thus sees the same floating-point operations, in the same
    order, as ``eval_route`` on that assignment, so the objectives are
    bit-identical.
    """
    n_mr = radices.shape[0]
    total = math.prod(int(r) for r in radices)
    valid = np.zeros(total, np.bool_)
    z1 = np.zeros(total, np.float64)
    z2 = np.zeros(total, np.float64)
    if n_mr == 0:  # the one, empty assignment
        valid[:] = True
        return valid, z1, z2
    steps = min(max_depth, n_mr)  # as in eval_route
    strides = np.ones(n_mr, np.int64)
    strides[:-1] = np.cumprod(radices[:0:-1])[::-1]
    link_surv = 1.0 - link_fail
    bs_surv = 1.0 - ar_bs_fail
    for start in range(0, total, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, total)
        idx = np.arange(start, stop, dtype=np.int64)
        # links[row, m]: the link MR m chooses in assignment start + row
        links = mr_link_offset + (idx[:, None] // strides) % radices
        rows = np.arange(idx.size)[:, None]
        cur = np.broadcast_to(np.arange(n_mr), links.shape)
        cost = np.zeros(links.shape)
        surv = np.ones(links.shape)
        active = np.ones(links.shape, np.bool_)
        for _step in range(steps):
            li = links[rows, cur]
            np.add(cost, link_cost[li], out=cost, where=active)
            np.multiply(surv, link_surv[li], out=surv, where=active)
            parent = link_parent[li]
            at_ar = active & (parent < n_ar)
            surv[at_ar] *= bs_surv[parent[at_ar]]
            active &= ~at_ar
            if not active.any():
                break
            cur = np.where(active, parent - n_ar, cur)
        ok = ~active.any(axis=1)
        valid[start:stop] = ok
        z1[start:stop] = np.where(ok, np.add.accumulate(cost, axis=1)[:, -1], 0.0)
        z2[start:stop] = np.where(ok, np.add.accumulate(1.0 - surv, axis=1)[:, -1], 0.0)
    return valid, z1, z2


def _dominance_matrix_loops(F):
    """dom[i, j] = vector i Pareto-dominates vector j (minimization)."""
    n, d = F.shape
    out = np.zeros((n, n), np.bool_)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            le = True
            lt = False
            for k in range(d):
                a = F[i, k]
                b = F[j, k]
                if a > b:
                    le = False
                    break
                elif a < b:
                    lt = True
            out[i, j] = le and lt
    return out


def _dominance_matrix_numpy(F):
    """Vectorized equivalent of the loop kernel; identical boolean output."""
    le = (F[:, None, :] <= F[None, :, :]).all(axis=2)
    lt = (F[:, None, :] < F[None, :, :]).any(axis=2)
    return le & lt


if NUMBA_ENABLED:
    dominance_matrix = _jit(_dominance_matrix_loops)
else:
    dominance_matrix = _dominance_matrix_numpy


def nondominated_mask(F):
    """Boolean mask of rows not dominated by any other row (duplicates all kept)."""
    n = F.shape[0]
    if n == 0:
        return np.zeros(0, np.bool_)
    return ~dominance_matrix(F).any(axis=0)


@_jit
def crowding_distance(F):
    """NSGA-II crowding distance per row of a mutually nondominated set.

    Boundary rows per objective get +inf. Ties in an objective are ordered
    stably (mergesort) so both execution paths agree bit for bit.
    """
    n, d = F.shape
    dist = np.zeros(n, np.float64)
    if n == 0:
        return dist
    for m in range(d):
        order = np.argsort(F[:, m], kind="mergesort")
        dist[order[0]] = np.inf
        dist[order[n - 1]] = np.inf
        span = F[order[n - 1], m] - F[order[0], m]
        if span > 0.0:
            for k in range(1, n - 1):
                dist[order[k]] += (F[order[k + 1], m] - F[order[k - 1], m]) / span
    return dist


@_jit
def hv2d_sweep(F, ref0, ref1):
    """2-D hypervolume of a cleaned front vs reference (ref0, ref1).

    F must be mutually nondominated, deduplicated, strictly dominating the
    reference, and sorted by the first objective ascending (so the second
    is strictly descending). Sums one slab per point in sweep order.
    """
    vol = 0.0
    prev_y = ref1
    for i in range(F.shape[0]):
        vol += (ref0 - F[i, 0]) * (prev_y - F[i, 1])
        prev_y = F[i, 1]
    return vol


def warmup():
    """Force JIT compilation of every kernel (no-op on the fallback path)."""
    choices = np.zeros(1, np.int64)
    off = np.zeros(1, np.int64)
    parent = np.zeros(1, np.int64)
    cost = np.ones(1, np.float64)
    fail = np.zeros(1, np.float64)
    bs = np.zeros(1, np.float64)
    eval_route(choices, off, parent, cost, fail, bs, 1, 2)
    pts = np.array([[0.0, 1.0], [1.0, 0.0]])
    dominance_matrix(pts)
    crowding_distance(pts)
    hv2d_sweep(pts, 2.0, 2.0)
