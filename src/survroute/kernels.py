"""Hot numeric kernels: route evaluation walks, Pareto dominance and fronts, crowding, 2-D hypervolume.

Every kernel has one form, run by CPython and numpy. The route walks take
an instance's link tables whole, as ``netmodel``'s ``_Compiled`` value
(``inst.compiled``), built once per instance; its tables are plain tuples,
which CPython indexes several times faster than numpy arrays one element at
a time. ``route_terms`` holds the one scalar route walk and states how a
link names its parent: it walks the chosen MRs' paths and keeps each MR's
cost and risk terms. ``eval_route`` walks every MR with it and adds the
terms in MR order. ``netmodel``'s operators keep the terms on the genotypes
they build: a new genotype is walked once, and a mutation or a
local-search neighbor re-walks just the subtree its move changes; its
evaluation then adds the terms in the same order, so ``eval_route`` walks
only genotypes that carry none. ``enumerate_routes``, the oracle's
exhaustive enumeration, turns the same tuples into numpy arrays and walks
blocks of assignments at once, with the same floating-point operations per
MR in the same order, so its objectives are bit-identical to
``eval_route``'s. ``front_rows`` extracts a 2-D Pareto front for the oracle
and for hypervolume.

``benchmarks/bench_kernels.py`` times the kernels.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np

_BLOCK_ROWS = 8192  # assignments per enumerate_routes block: bounds its working arrays


def eval_route(choices, tables):
    """Evaluate one route assignment; returns (z1, z2, valid).

    ``choices`` and ``tables`` are those ``route_terms`` takes. z1 sums every
    chosen link cost along each MR's path to its access router (nested
    children pay their whole upstream path). z2 sums, per MR, the
    probability that any component on that path fails. Both add the per-MR
    terms from 0.0 in MR order; the accumulation order is part of the
    determinism contract. Python ``sum()`` is not used: from 3.12 it
    compensates float sums.
    """
    n_mr = len(choices)
    cost = [0.0] * n_mr
    risk = [0.0] * n_mr
    if not route_terms(choices, range(n_mr), tables, cost, risk):
        return 0.0, 0.0, False
    return reduce(operator.add, cost, 0.0), reduce(operator.add, risk, 0.0), True


def route_terms(choices, mrs, tables, cost_out, risk_out):
    """Walk each MR in ``mrs`` to its access router; returns False at the first MR whose walk fails.

    Writes ``cost_out[m]``, MR m's path cost, and ``risk_out[m]``, 1 - its
    path survival (chosen links in walk order, then the base station behind
    the terminating access router), for each m in ``mrs``. ``tables`` is an
    instance's ``netmodel._Compiled``. ``choices[m]`` indexes into MR m's
    candidate-link block starting at ``tables.mr_link_offset[m]``. A walk
    takes at most ``tables.steps`` links. ``tables.link_parent[li]`` is the
    MR index the link attaches to, or, for an access router ``ar``, the
    negative ``ar - n_ar``, which indexes ``tables.ar_bs_fail`` from the end.
    """
    offsets, parents = tables.mr_link_offset, tables.link_parent
    link_cost, link_fail, ar_bs_fail = tables.link_cost, tables.link_fail, tables.ar_bs_fail
    # CPython subscripts a tuple with a negative index on its slow generic
    # path (about a tenth of a 200-MR walk), so the access router's index
    # is counted from the front here
    n_ar = len(ar_bs_fail)
    steps = tables.steps
    for m in mrs:
        cur = m
        cost = 0.0
        surv = 1.0
        for _step in range(steps):
            li = offsets[cur] + choices[cur]
            cost += link_cost[li]
            surv *= 1.0 - link_fail[li]
            cur = parents[li]
            if cur < 0:
                surv *= 1.0 - ar_bs_fail[n_ar + cur]
                break
        else:
            return False
        cost_out[m] = cost
        risk_out[m] = 1.0 - surv
    return True


def enumerate_routes(tables):
    """Evaluate every assignment in the full mixed-radix space of ``tables.radices``.

    ``tables`` is what ``route_terms`` takes, with at least one MR
    (``brute_force_pareto`` answers the empty instance itself); its tuples
    become numpy arrays once per call.
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
    radices = np.asarray(tables.radices, np.int64)
    mr_link_offset = np.asarray(tables.mr_link_offset, np.int64)
    link_parent = np.asarray(tables.link_parent, np.int64)
    link_cost = np.asarray(tables.link_cost, np.float64)
    link_surv = 1.0 - np.asarray(tables.link_fail, np.float64)
    bs_surv = 1.0 - np.asarray(tables.ar_bs_fail, np.float64)
    n_mr = radices.shape[0]
    total = math.prod(int(r) for r in radices)
    valid = np.zeros(total, np.bool_)
    z1 = np.zeros(total, np.float64)
    z2 = np.zeros(total, np.float64)
    strides = np.ones(n_mr, np.int64)
    strides[:-1] = np.cumprod(radices[:0:-1])[::-1]
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
        for _step in range(tables.steps):
            li = links[rows, cur]
            np.add(cost, link_cost[li], out=cost, where=active)
            np.multiply(surv, link_surv[li], out=surv, where=active)
            parent = link_parent[li]
            at_ar = active & (parent < 0)
            surv[at_ar] *= bs_surv[parent[at_ar]]
            active &= ~at_ar
            if not active.any():
                break
            cur = np.where(active, parent, cur)
        ok = ~active.any(axis=1)
        valid[start:stop] = ok
        z1[start:stop] = np.where(ok, np.add.accumulate(cost, axis=1)[:, -1], 0.0)
        z2[start:stop] = np.where(ok, np.add.accumulate(1.0 - surv, axis=1)[:, -1], 0.0)
    return valid, z1, z2


def dominance(a, b):
    """a Pareto-dominates b (minimization), over the last axis, broadcast over the others.

    True where a is no worse than b in every objective and better in at least one.
    No package code calls it or ``dominance_matrix``: ranking and the archive
    use 2-D sweeps (``archive``). Tests use both as references, and
    ``perfbench/spans.py`` wraps ``dominance_matrix``.
    """
    return (a <= b).all(-1) & (a < b).any(-1)


def dominance_matrix(F):
    """dom[i, j] = row i of F Pareto-dominates row j (so the diagonal is False)."""
    return dominance(F[:, None], F[None])


def front_rows(z1, z2, key):
    """Rows of the Pareto front of points (z1, z2), one per distinct point, in ascending z1.

    Of equal points the row with the smallest ``key`` is kept. In (z1, z2,
    key) order a row is on the front exactly when its z2 is below every z2
    before it, that is, when it lowers the running minimum of z2.
    """
    order = np.lexsort((key, z2, z1))
    best = np.minimum.accumulate(z2[order])
    return order[best < np.r_[np.inf, best[:-1]]]


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

