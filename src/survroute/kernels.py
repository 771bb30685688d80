"""Hot numeric kernels: route evaluation walks, Pareto dominance, crowding, 2-D hypervolume.

Every kernel has one form, run by CPython and numpy. ``eval_route`` walks
the link tables as plain tuples, which CPython indexes several times faster
than numpy arrays one element at a time; ``netmodel`` builds those tuples
once per instance. ``route_terms`` makes the same per-MR walk for chosen
MRs only and keeps each MR's terms instead of their sums; local search uses
it to re-walk just the subtree a move changes (``netmodel.iter_neighbors``).
``enumerate_routes``, the oracle's exhaustive enumeration, turns the same
tuples into numpy arrays and walks blocks of assignments at once. All three
make the same floating-point operations per MR in the same order, so their
objectives are bit-identical.

``benchmarks/bench_kernels.py`` times the kernels.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK_ROWS = 8192  # assignments per enumerate_routes block: bounds its working arrays


def eval_route(choices, mr_link_offset, link_parent, link_cost, link_fail, ar_bs_fail, n_ar, max_depth):
    """Evaluate one route assignment; returns (z1, z2, valid).

    ``choices`` and the tables are sequences indexed one element at a time:
    plain tuples or lists walk fastest, numpy arrays give the same result.
    ``choices[m]`` indexes into MR m's candidate-link block starting at
    ``mr_link_offset[m]``. ``link_parent[li] < n_ar`` means the link attaches
    to access router ``li``'s index, otherwise to MR ``link_parent[li] - n_ar``.

    z1 sums every chosen link cost along each MR's path to its access router
    (nested children pay their whole upstream path). z2 sums, per MR, the
    probability that any component on that path fails: chosen links first in
    walk order, then the base station behind the terminating access router.
    The accumulation order is part of the determinism contract.

    ``route_terms`` makes the same per-MR operations; the two must stay
    operation-identical, or delta-scored neighbors stop matching this walk.
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


def route_terms(choices, mrs, mr_link_offset, link_parent, link_cost, link_fail, ar_bs_fail, n_ar, max_depth, cost_out, risk_out):
    """Per-MR terms of ``eval_route`` for the MRs in ``mrs``; returns False at the first MR whose walk fails.

    Writes ``cost_out[m]``, MR m's path cost, and ``risk_out[m]``, 1 - its
    path survival, for each m in ``mrs``; ``choices`` and the tables are
    those ``eval_route`` takes. Adding the costs (the risks) from 0.0 in MR
    order gives ``eval_route``'s z1 (z2) bit for bit. Each MR's walk
    makes exactly ``eval_route``'s operations in the same order; the two
    must stay operation-identical.
    """
    steps = min(max_depth, len(choices))  # as in eval_route
    for m in mrs:
        cur = m
        cost = 0.0
        surv = 1.0
        for _step in range(steps):
            li = mr_link_offset[cur] + choices[cur]
            cost += link_cost[li]
            surv *= 1.0 - link_fail[li]
            parent = link_parent[li]
            if parent < n_ar:
                surv *= 1.0 - ar_bs_fail[parent]
                break
            cur = parent - n_ar
        else:
            return False
        cost_out[m] = cost
        risk_out[m] = 1.0 - surv
    return True


def enumerate_routes(radices, mr_link_offset, link_parent, link_cost, link_fail, ar_bs_fail, n_ar, max_depth):
    """Evaluate every assignment in the full mixed-radix space.

    The tables are those ``eval_route`` takes, plus each MR's link count in
    ``radices``; they become numpy arrays once per call.
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
    radices = np.asarray(radices, np.int64)
    mr_link_offset = np.asarray(mr_link_offset, np.int64)
    link_parent = np.asarray(link_parent, np.int64)
    link_cost = np.asarray(link_cost, np.float64)
    link_fail = np.asarray(link_fail, np.float64)
    ar_bs_fail = np.asarray(ar_bs_fail, np.float64)
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


def dominance(a, b):
    """a Pareto-dominates b (minimization), over the last axis, broadcast over the others.

    True where a is no worse than b in every objective and better in at least one.
    """
    return (a <= b).all(-1) & (a < b).any(-1)


def dominance_matrix(F):
    """dom[i, j] = row i of F Pareto-dominates row j (so the diagonal is False)."""
    return dominance(F[:, None], F[None])


def nondominated_mask(F):
    """Boolean mask of rows not dominated by any other row (duplicates all kept)."""
    n = F.shape[0]
    if n == 0:
        return np.zeros(0, np.bool_)
    return ~dominance_matrix(F).any(axis=0)


def crowding_distance(F):
    """NSGA-II crowding distance per row of a mutually nondominated set.

    Boundary rows per objective get +inf. Ties in an objective are ordered
    stably (mergesort), so the result depends only on the row order of F.
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

