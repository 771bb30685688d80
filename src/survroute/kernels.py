"""Hot numeric kernels: route evaluation walks, Pareto dominance and fronts, crowding, 2-D hypervolume.

Every kernel has one form, run by CPython, with numpy only where the
batch route walk, the oracle and the dominance references fill or scan
arrays. The route walks take
an instance's link tables whole, as ``netmodel``'s ``_Compiled`` value
(``inst.compiled``), built once per instance. Every link table is per MR,
indexed by the MR's choice, and made of plain tuples, which CPython indexes
several times faster than numpy arrays one element at a time.
``route_terms`` holds the one scalar route walk and states how a link names
its parent: it walks the chosen MRs' paths and keeps each MR's
cost and risk terms. ``eval_route`` walks every MR with it and adds the
terms in MR order. ``route_terms_many`` walks every MR of a batch of
genotypes at once, as flat numpy arrays of (genotype, MR) positions over
padded ``[m, k]`` copies of the tables, with the scalar walk's
floating-point operations per MR in the same order; ``netmodel``'s
``RouteProblem.evaluate_many`` walks each generation's new genotypes with
it. The genotypes keep their terms: a new genotype is walked once, and a
mutation or a local-search neighbor re-walks just the subtree its move
changes with ``route_terms``; its evaluation then adds the terms in the
same order as ``eval_route``. No package code calls ``eval_route``: a
genotype that carries no terms is walked with ``route_terms`` over every
MR, and ``eval_route`` stays as the tests' reference. ``enumerate_routes``, the oracle's
exhaustive enumeration, walks each MR's tree of possible paths over the same
per-MR tables and adds each path's terms into the box of assignments that
take it, with the same floating-point operations per MR in the same order,
so its objectives are bit-identical to ``eval_route``'s. It holds z1 + i z2
in one complex array, so a path pays one numpy call for both terms: numpy
adds complex numbers part by part, one IEEE double add each, which is the
add ``eval_route`` makes. A walk that runs
into a cycle not through its own MR is cut there, unmarked: the tree of the
MR where that cycle closes marks those assignments invalid, so the leaves
of one MR's tree cover only part of the space, and all the trees together
decide validity. ``front_rows`` extracts the oracle's 2-D Pareto front from
those arrays. A linear-time pass first drops the rows a row of a smaller z1
bucket strictly dominates, so only a few rows are sorted; its result does
not depend on how a sort orders ties. The
objective kernels, ``crowding_distance`` and ``hv2d_sweep``, take lists of
(z1, z2) pairs and run in plain Python: the engine calls them on small
fronts, where numpy's per-call conversion would cost more than the work.

``benchmarks/bench_kernels.py`` times the kernels.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np


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
    instance's ``netmodel._Compiled``, whose link tables are indexed
    ``[m][choices[m]]``. A walk takes at most ``tables.steps`` links.
    ``tables.mr_parents[m][k]`` is the MR index the link attaches to, or,
    for an access router ``ar``, the negative ``ar - n_ar``, which indexes
    ``tables.ar_bs_surv`` from the end.
    """
    parents, costs, survs, ar_bs_surv = tables.mr_parents, tables.mr_costs, tables.mr_survs, tables.ar_bs_surv
    # CPython subscripts a tuple with a negative index on its slow generic
    # path (about a tenth of a 200-MR walk), so the access router's index
    # is counted from the front here
    n_ar = len(ar_bs_surv)
    steps = tables.steps
    for m in mrs:
        cur = m
        cost = 0.0
        surv = 1.0
        for _step in range(steps):
            k = choices[cur]
            cost += costs[cur][k]
            surv *= survs[cur][k]
            cur = parents[cur][k]
            if cur < 0:
                surv *= ar_bs_surv[n_ar + cur]
                break
        else:
            return False
        cost_out[m] = cost
        risk_out[m] = 1.0 - surv
    return True


def route_terms_many(choices, tables):
    """Walk every MR of every row of ``choices`` at once; returns (cost, risk, ok).

    ``choices`` is a (G, n_mr) integer array, each entry a link index below
    its MR's radix (unchecked), and ``tables`` what ``route_terms`` takes.
    ``cost`` and ``risk`` are (G, n_mr) float64 arrays of the terms
    ``route_terms`` writes for each row; ``ok`` is a (G,) bool array, False
    for a row where some MR's walk takes ``tables.steps`` links without
    reaching an access router. A failed row's terms are unspecified.

    The walks run on flat (row, MR) positions, one link per step, over the
    padded ``[m, k]`` arrays of ``tables.padded_tables``. A walk that
    reaches an access router is dropped, so each step touches only the walks
    still under way. Each walk takes the scalar walk's floating-point
    operations in the same order, so the terms are bit-identical to it.
    """
    rows, n_mr = choices.shape
    parents, costs, survs = tables.padded_tables
    # each (row, MR) position's chosen link: its cost, its survival, and the position it leads to,
    # its parent MR's in the same row, or the negative parent entry of an access router
    link = (choices + np.arange(n_mr) * parents.shape[1]).ravel()
    up = parents.ravel()[link]
    np.add(up, (np.arange(rows) * n_mr).repeat(n_mr), out=up, where=up >= 0)
    link_cost = costs.ravel()[link]
    link_surv = survs.ravel()[link]
    ar_bs_surv = np.array(tables.ar_bs_surv)  # indexed by the negative parent entry, from the end
    # every walk's first link: the scalar walk adds it to 0.0 and multiplies 1.0 by it
    cost = link_cost + 0.0
    surv = link_surv * 1.0
    walking = np.arange(rows * n_mr)  # the position each walk under way started from
    at = up  # the position it has reached
    for step in range(tables.steps):
        if step:
            cost[walking] += link_cost[at]
            surv[walking] *= link_surv[at]
            at = up[at]
        # integer indices: numpy takes them several times faster than a boolean mask applied to each array
        done = at < 0
        ended, going = np.flatnonzero(done), np.flatnonzero(~done)
        surv[walking[ended]] *= ar_bs_surv[at[ended]]
        walking, at = walking[going], at[going]
        if not walking.size:
            break
    ok = np.ones(rows, np.bool_)
    ok[walking // n_mr] = False
    return cost.reshape(rows, n_mr), np.subtract(1.0, surv, out=surv).reshape(rows, n_mr), ok


def enumerate_routes(tables):
    """Evaluate every assignment in the full mixed-radix space of ``tables.radices``.

    ``tables`` is what ``route_terms`` takes. Returns (valid, z1, z2) arrays
    of length prod(radices), indexed in row-major order (last MR varies
    fastest), matching np.unravel_index; z1 and z2 are unspecified on
    invalid rows (they may hold the partial sums of the MRs walked so far).

    The objectives are built as one complex128 array z = z1 + i z2, and
    returned as its ``real`` and ``imag`` views. A leaf adds c + i r in place:
    numpy's complex add is the two IEEE double adds of the parts, z1 + c and
    z2 + r, with no other rounding, so each part gets exactly the add two
    float arrays would, at one numpy call instead of two. The arrays are
    built with one axis per MR that does not have exactly one
    link (an MR with one link fixes nothing, and leaving it out keeps the
    axes within numpy's dimension cap: an instance the oracle guard admits
    has at most log2(search space) MRs with two links or more), so a set of
    assignments that fix some MRs' choices and leave the others free is one
    basic-index box; its index ends with ``...``, so a box that fixes every
    axis is a 0-d view, which the in-place add can write through.
    For each MR m in index order, the tree of paths m's walk can take is
    walked with an explicit stack: a leaf that reaches an access router adds
    the path's cost and risk into its box, and a leaf whose walk returns to
    m or has taken ``tables.steps`` links marks its box invalid. A link to an
    MR p already on the path, other than m, is skipped: no add, no mark.
    Those assignments are invalid all the same, and p's tree marks them: the
    cycle p -> ... -> cur -> p has at most d links, where d < ``tables.steps``
    is cur's depth, so p's walk follows it without a repeat and closes it at
    p. The leaves of one MR's tree thus partition the space less the boxes it
    skips, and every valid assignment gets one add per MR, in MR order, of
    the terms ``route_terms`` computes with the same floating-point
    operations, so its objectives are bit-identical to ``eval_route``'s.
    """
    parents, costs, survs, ar_bs_surv = tables.mr_parents, tables.mr_costs, tables.mr_survs, tables.ar_bs_surv
    n_ar = len(ar_bs_surv)
    steps = tables.steps
    radices = tables.radices
    shape, axis_of = [], []  # the arrays' axes, and each MR's axis (-1 for an MR with one link)
    for r in radices:
        axis_of.append(len(shape) if r != 1 else -1)
        if r != 1:
            shape.append(r)
    valid = np.ones(shape, np.bool_)
    z = np.zeros(shape, np.complex128)  # z1 + i z2
    whole = (slice(None),) * len(shape) + (...,)
    for m in range(len(radices)):
        # (MR the walk is at, box of assignments on this path, MRs on the path as bits, cost, survival, links taken)
        stack = [(m, whole, 1 << m, 0.0, 1.0, 0)]
        while stack:
            cur, box, on_path, cost, surv, depth = stack.pop()
            if depth == steps:
                valid[box] = False
                continue
            a = axis_of[cur]
            for k, p in enumerate(parents[cur]):
                sub = box if a < 0 else box[:a] + (k,) + box[a + 1:]
                c = cost + costs[cur][k]
                s = surv * survs[cur][k]
                if p < 0:
                    s *= ar_bs_surv[n_ar + p]
                    view = z[sub]
                    np.add(view, complex(c, 1.0 - s), out=view)
                elif p == m:
                    valid[sub] = False
                elif not on_path >> p & 1:  # a cycle that misses m is p's tree's to mark
                    stack.append((p, sub, on_path | 1 << p, c, s, depth + 1))
    z = z.reshape(-1)
    return valid.reshape(-1), z.real, z.imag


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


_FRONT_BUCKETS = 1024  # front_rows' prefilter: z1 buckets, each keeping its least z2


def front_rows(z1, z2, key):
    """Rows of the Pareto front of points (z1, z2), one per distinct point, in ascending z1.

    Of equal points the row with the smallest ``key`` is kept. In (z1, z2,
    key) order a row is on the front exactly when its z2 is below every z2
    before it, that is, when it lowers the running minimum of z2.

    Only the rows whose z2 equals the running minimum in some z1 order are
    sorted that way, and any order of equal z1 values will do: a front row
    has a z2 at or below every row with a z1 at or below its own, so it holds
    the running minimum wherever the sort puts it among its ties. Every row
    dropped is weakly dominated by a front row that precedes it in (z1, z2,
    key) order, so the scan gives the same rows with or without it.

    A linear-time prefilter runs first (Bentley, Clarkson & Levine 1993): z1
    is cut into ``_FRONT_BUCKETS`` buckets by ``(z1 - lo) * scale``, rounded
    down, which is monotone in z1, so a row in an earlier bucket has a
    strictly smaller z1. A row is dropped when its z2 is at or above the least
    z2 of an earlier bucket: the row holding that z2 strictly dominates it and
    comes before it in (z1, z2, key) order, so the running minimum is already
    at or below its z2 when the scan reaches it. It is not on the front, and
    dropping it changes no running minimum, so the rows returned are the
    same. Equal rows share a bucket and a verdict, so ties still go by
    ``key``. The filter is skipped when z1 has no finite, positive span to cut.
    """
    rows = None
    if z1.size:
        lo, hi = float(z1.min()), float(z1.max())
        scale = (_FRONT_BUCKETS - 1) / (hi - lo) if hi > lo else 0.0
        if 0.0 < scale < math.inf:  # an overflowing span or scale leaves every row in the sort
            # below _FRONT_BUCKETS: (hi - lo) * scale is _FRONT_BUCKETS - 1 within rounding
            bucket = ((z1 - lo) * scale).astype(np.intp)
            least = np.full(_FRONT_BUCKETS, np.inf)
            np.minimum.at(least, bucket, z2)
            earlier = np.minimum.accumulate(np.r_[np.inf, least[:-1]])  # the least z2 of all earlier buckets
            rows = np.flatnonzero(z2 < earlier[bucket])
    order = np.argsort(z1) if rows is None else rows[np.argsort(z1[rows])]
    z2_order = z2[order]
    order = order[z2_order == np.minimum.accumulate(z2_order)]
    order = order[np.lexsort((key[order], z2[order], z1[order]))]
    best = np.minimum.accumulate(z2[order])
    return order[best < np.r_[np.inf, best[:-1]]]


def crowding_distance(points):
    """NSGA-II crowding distance (Deb et al. 2002) of each (z1, z2) pair of a mutually nondominated set.

    Returns a list of floats, one per pair. Boundary points per objective
    get +inf. Each objective is ordered with ``sorted``, which is stable, so
    ties keep their input order and the result depends only on that order.
    """
    n = len(points)
    dist = [0.0] * n
    if n == 0:
        return dist
    for m in (0, 1):
        col = [p[m] for p in points]
        order = sorted(range(n), key=col.__getitem__)
        dist[order[0]] = math.inf
        dist[order[n - 1]] = math.inf
        span = col[order[n - 1]] - col[order[0]]
        if span > 0.0:
            for k in range(1, n - 1):
                dist[order[k]] += (col[order[k + 1]] - col[order[k - 1]]) / span
    return dist


def hv2d_sweep(points, ref0, ref1):
    """2-D hypervolume of (z1, z2) pairs vs the reference (ref0, ref1), as a float.

    ``points`` must be sorted ascending (``sorted`` of the pairs) and each
    must strictly dominate the reference. In that order a point adds a slab
    exactly when it lowers z2: a point that does not, a repeated vector or a
    dominated one, is skipped.
    """
    vol = 0.0
    prev_y = ref1
    for x, y in points:
        if y < prev_y:
            vol += (ref0 - x) * (prev_y - y)
            prev_y = y
    return vol
