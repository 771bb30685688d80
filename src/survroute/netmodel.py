"""Nested mobile-network route optimization: the concrete two-objective problem.

Mobile routers (MRs) each pick one candidate uplink, either to an access
router (AR, served by one base station) or beneath another MR, forming a
forest of bounded depth. Objective z1 aggregates every chosen link cost
along each MR's path to its access router (nested children burden the whole
upstream path); z2 is the expected number of MRs losing service under
independent link/base-station failures.

A genotype carries its per-MR path terms (``RouteAssignment._terms``)
once it is walked, and each is walked once. ``random_assignment`` and
crossover return plain choices: ``RouteProblem.evaluate_many``, which the
engine calls once per batch of new genotypes, checks the choices of every
genotype without terms as one integer array, walks them all at once
(``kernels.route_terms_many``) and leaves each carrying its terms. Heavy
mutation walks its result itself, while mutation and each local-search
neighbor copy the parent's terms and re-walk only the moved MR's subtree.
``evaluate`` adds the carried terms in MR order, the bytes
``kernels.eval_route`` gives, and ``evaluate_many`` makes the same
additions for the whole batch. A genotype from anywhere else (user input,
``assignment_from_string``, an oracle witness) carries none, and is
checked and walked in full.

``parse_instance`` rejects an infeasible instance, one where some MR has no
path of at most MAXDEPTH links to an access router; one breadth-first search
at load decides it. So randomized attachment never gives up: when it stalls,
the MRs left take their shortest-path links. Every link table is built at
load per MR, indexed by the MR's choice (``_Compiled``): attachment and the
reattach test read each MR's candidate parents from ``mr_parents``. The
reattach test finds a moved MR's subtree through the static reverse links
(``mr_users``, the MRs that could attach to each MR), filtered by the
genotype's choices, so a mutation or neighborhood move builds no per-genotype
parent or child lists: it costs its subtree's in-links plus the MR's radix
times the depth, not the number of MRs. Every
random pick among f links or MRs is ``int(u * f)`` for one uniform double u
in [0, 1) from ``Generator.random``; its bias is below f / 2**53 per
outcome. Attachment takes its doubles in one call, one for each MR it may
attach, and reads each MR's (link, parent)
pairs (``_Compiled.enumerated_parents``) and one level table that holds the
access routers' 0 behind the MRs' depths, so deciding a link is one lookup
and one comparison; crossover repair takes that table's MR part, and the
broken MRs to repair, from one depth sweep (``_forest_depths``).

``RouteProblem.genotype_key`` is the choice tuple, which the archive
compares and orders; ``assignment_string`` is built only where a front is
written.

Includes the exhaustive-enumeration oracle used to verify engine output on
small instances.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import re
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property, reduce
from pathlib import Path
from typing import Iterator

import numpy as np

from . import kernels
from .errors import ContractViolation, InstanceError, OracleScopeError, ParseError, ValidityError
from .moo import ObjectiveVector, Problem

_ID_RE = re.compile(r"^[A-Za-z0-9_]+$")

DEFAULT_MAX_DEPTH = 4
_NUMPY_MAX_AXES = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32  # an ndarray's dimension cap
_ORACLE_ROW_BYTES = 17  # kernels.enumerate_routes holds a bool and a complex128 (z1 + i z2) per assignment
# the largest search space brute_force_pareto and `survroute oracle` enumerate unless told otherwise:
# about 0.4 s and 170 MB of peak RSS for the whole `oracle` call on a 2-vCPU host (README)
DEFAULT_ORACLE_GUARD = 5_000_000


@dataclass(frozen=True)
class CandidateLink:
    child: str
    parent: str
    cost: float
    fail_prob: float


@dataclass(frozen=True)
class _Compiled:
    """An instance's route tables, each a plain tuple (CPython indexes those fastest, one element at a time).

    Every link table is per MR: ``table[m][k]`` describes MR m's k-th
    candidate link, in link order, so a genotype's choice k indexes it
    directly. The kernels' route walks take the value whole
    (``kernels.route_terms``); the batch walk reads padded numpy copies of
    three tables (``padded_tables``), and attachment reads ``mr_parents``
    as (link, parent) pairs (``enumerated_parents``); both are built on
    first use, so loading an instance and the oracle never build them.
    ``mr_users`` is the one table indexed the other way, by parent MR; the
    reattach test reads subtrees from it, so a move never builds child lists
    for the whole forest.
    """

    radices: tuple[int, ...]  # candidate links per MR
    # the MR index (>= 0) a link attaches to, or ar - n_ar (< 0) for access router ar
    mr_parents: tuple[tuple[int, ...], ...]
    mr_costs: tuple[tuple[float, ...], ...]
    mr_survs: tuple[tuple[float, ...], ...]  # 1 - fail_prob of each link
    mr_labels: tuple[tuple[str, ...], ...]  # "child=parent", the assignment_string entry of each link
    ar_bs_surv: tuple[float, ...]  # 1 - fail_prob of each AR's base station
    search_space: int
    steps: int  # the walk cap, min(max_depth, n_mr): a longer walk has revisited an MR
    # per MR, d*: the fewest links on any path to an access router, -1 when it has none
    min_depth: tuple[int, ...]
    # per MR, its first link to a parent of depth d* - 1 (an AR for d* = 1), -1 when it has no path
    min_link: tuple[int, ...]
    # per MR p, the MRs with a candidate link to p, ascending
    mr_users: tuple[tuple[int, ...], ...]

    @cached_property
    def padded_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``mr_parents``, ``mr_costs`` and ``mr_survs`` as (n_mr, max radix) arrays indexed ``[m, k]``.

        The batch walk (``kernels.route_terms_many``) reads them; they are
        built on its first call. An entry past an MR's radix is 0 and never read.
        """
        width = max(self.radices, default=0)
        return tuple(
            np.array([row + (0,) * (width - len(row)) for row in table], dtype).reshape(len(table), width)
            for table, dtype in ((self.mr_parents, np.int64), (self.mr_costs, np.float64), (self.mr_survs, np.float64))
        )

    @cached_property
    def enumerated_parents(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per MR, ``tuple(enumerate(mr_parents[m]))``: its (link, parent) pairs, in link order, for ``_attach``."""
        return tuple(tuple(enumerate(ps)) for ps in self.mr_parents)


def _shortest_paths(mr_parents) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """``min_depth``, ``min_link`` and ``mr_users`` of ``_Compiled``: one breadth-first search from the access routers.

    The search runs down the reverse links, which it then returns as ``mr_users``.
    """
    n = len(mr_parents)
    users: list[list[int]] = [[] for _ in range(n)]  # per MR, the MRs with a candidate link to it
    depth = [-1] * n
    for m, ps in enumerate(mr_parents):
        for p in ps:
            if p < 0:
                depth[m] = 1
            else:
                users[p].append(m)
    level = [m for m in range(n) if depth[m] == 1]
    d = 1
    while level:
        d += 1
        following = []
        for p in level:
            for m in users[p]:
                if depth[m] < 0:
                    depth[m] = d
                    following.append(m)
        level = following
    # a reached MR has a link one step nearer: to a parent of depth d* - 1, 0 for an AR
    links = tuple(
        [depth[p] if p >= 0 else 0 for p in ps].index(d - 1) if d > 0 else -1
        for ps, d in zip(mr_parents, depth)
    )
    return tuple(depth), links, tuple(map(tuple, users))


@dataclass(frozen=True)
class NetworkInstance:
    """Parsed topology, canonicalized: all id lists sorted, links sorted by (child, parent)."""

    base_stations: tuple[tuple[str, float], ...]
    access_routers: tuple[tuple[str, str], ...]
    mobile_routers: tuple[str, ...]
    links: tuple[CandidateLink, ...]
    max_depth: int = DEFAULT_MAX_DEPTH

    @cached_property
    def compiled(self) -> _Compiled:
        mr_index = {mr: i for i, mr in enumerate(self.mobile_routers)}
        n_ar = len(self.access_routers)
        parent_index = {**{ar: i - n_ar for i, (ar, _bs) in enumerate(self.access_routers)}, **mr_index}
        bs_fail = {bs: p for bs, p in self.base_stations}

        counts = [0] * len(self.mobile_routers)
        # links are sorted by (child, parent), so they are already grouped
        # per MR in canonical order: each table is one tuple over them, sliced
        for link in self.links:
            counts[mr_index[link.child]] += 1
        bounds = list(itertools.accumulate(counts, initial=0))
        spans = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

        def per_mr(flat: list) -> tuple[tuple, ...]:
            flat = tuple(flat)
            return tuple([flat[span] for span in spans])

        mr_parents = per_mr([parent_index[link.parent] for link in self.links])
        min_depth, min_link, mr_users = _shortest_paths(mr_parents)

        return _Compiled(
            radices=tuple(counts),
            mr_parents=mr_parents,
            mr_costs=per_mr([link.cost for link in self.links]),
            mr_survs=per_mr([1.0 - link.fail_prob for link in self.links]),
            mr_labels=per_mr([f"{link.child}={link.parent}" for link in self.links]),
            ar_bs_surv=tuple(1.0 - bs_fail[bs] for _ar, bs in self.access_routers),
            search_space=math.prod(counts),
            steps=min(self.max_depth, len(self.mobile_routers)),
            min_depth=min_depth,
            min_link=min_link,
            mr_users=mr_users,
        )

    @property
    def n_mr(self) -> int:
        return len(self.mobile_routers)


@dataclass(frozen=True)
class RouteAssignment:
    """Genotype: per MR (in instance order), the index of its chosen candidate link.

    ``_terms`` is private to this module: the per-MR (cost, risk) path terms
    of ``choices``, two ``array('d')``, that a route walk
    (``kernels.route_terms`` or ``route_terms_many``) writes. Only the
    operators and ``RouteProblem.evaluate_many`` set it (``_carry``), on a
    genotype they built valid or walked; ``evaluate`` then adds the terms
    instead of walking, and nothing checks the choices again. The
    constructor and ``dataclasses.replace`` leave it None, so any other
    genotype is checked and walked in full. The terms belong to the instance
    whose operator or problem set them. They are not compared, hashed or shown.
    """

    choices: tuple[int, ...]
    _terms: tuple[array, array] | None = field(default=None, init=False, compare=False, repr=False)


def _carry(a: RouteAssignment, cost: array, risk: array) -> RouteAssignment:
    """``a``, whose choices are valid, now carrying their per-MR terms; the one place ``_terms`` is set."""
    object.__setattr__(a, "_terms", (cost, risk))
    return a


def _walked(inst: NetworkInstance, choices) -> RouteAssignment:
    """A genotype of ``choices`` carrying the terms of one full walk, or none when the walk fails."""
    # the walk writes a list faster than an array('d'); one copy into arrays then costs less
    cost = [0.0] * inst.n_mr
    risk = [0.0] * inst.n_mr
    if not kernels.route_terms(choices, range(inst.n_mr), inst.compiled, cost, risk):
        return RouteAssignment(tuple(choices))  # invalid: evaluate walks it and says why
    return _carry(RouteAssignment(tuple(choices)), array("d", cost), array("d", risk))


def parse_instance(text: str) -> NetworkInstance:
    """Parse the line-based instance format (BS/AR/MR/LINK/MAXDEPTH records, # comments)."""
    base_stations: list[tuple[str, float]] = []
    access_routers: list[tuple[str, str]] = []
    mobile_routers: list[str] = []
    links: list[CandidateLink] = []
    max_depth: int | None = None
    seen_ids: set[str] = set()
    seen_pairs: set[tuple[str, str]] = set()

    def check_id(token: str, line_no: int) -> str:
        if not _ID_RE.match(token):
            raise ParseError(f"malformed id {token!r}", line_no)
        return token

    def new_id(token: str, line_no: int) -> str:
        """A well-formed id that no BS, AR or MR record has declared yet, now declared."""
        node_id = check_id(token, line_no)
        if node_id in seen_ids:
            raise ParseError(f"duplicate id {node_id!r}", line_no)
        seen_ids.add(node_id)
        return node_id

    def check_prob(token: str, line_no: int) -> float:
        try:
            p = float(token)
        except ValueError:
            raise ParseError(f"malformed probability {token!r}", line_no) from None
        if not 0.0 <= p <= 1.0:
            raise ParseError(f"failure probability {p} outside [0, 1]", line_no)
        return p

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if kind == "BS":
            if len(args) != 2:
                raise ParseError("BS expects: BS <id> <fail_prob>", line_no)
            base_stations.append((new_id(args[0], line_no), check_prob(args[1], line_no)))
        elif kind == "AR":
            if len(args) != 2:
                raise ParseError("AR expects: AR <id> <bs_id>", line_no)
            access_routers.append((new_id(args[0], line_no), check_id(args[1], line_no)))
        elif kind == "MR":
            if len(args) != 1:
                raise ParseError("MR expects: MR <id>", line_no)
            mobile_routers.append(new_id(args[0], line_no))
        elif kind == "LINK":
            if len(args) != 4:
                raise ParseError("LINK expects: LINK <child> <parent> <cost> <fail_prob>", line_no)
            child = check_id(args[0], line_no)
            parent = check_id(args[1], line_no)
            try:
                cost = float(args[2])
            except ValueError:
                raise ParseError(f"malformed cost {args[2]!r}", line_no) from None
            if cost < 0.0 or not math.isfinite(cost):
                raise ParseError(f"link cost {cost} must be finite and >= 0", line_no)
            if (child, parent) in seen_pairs:
                raise ParseError(f"duplicate link {child} -> {parent}", line_no)
            seen_pairs.add((child, parent))
            links.append(CandidateLink(child, parent, cost, check_prob(args[3], line_no)))
        elif kind == "MAXDEPTH":
            if len(args) != 1:
                raise ParseError("MAXDEPTH expects: MAXDEPTH <k>", line_no)
            if max_depth is not None:
                raise ParseError("duplicate MAXDEPTH", line_no)
            try:
                max_depth = int(args[0])
            except ValueError:
                raise ParseError(f"malformed depth {args[0]!r}", line_no) from None
            if max_depth < 1:
                raise ParseError(f"MAXDEPTH must be >= 1, got {max_depth}", line_no)
        else:
            raise ParseError(f"unknown record type {kind!r}", line_no)

    bs_ids = {bs for bs, _p in base_stations}
    mr_ids = set(mobile_routers)
    ar_ids = {ar for ar, _bs in access_routers}
    for ar_id, bs_id in access_routers:
        if bs_id not in bs_ids:
            raise InstanceError(f"access router {ar_id!r} references unknown base station {bs_id!r}")
    linked: set[str] = set()
    for link in links:
        if link.child not in mr_ids:
            raise InstanceError(f"link child {link.child!r} is not a mobile router")
        if link.parent == link.child:
            raise InstanceError(f"link makes {link.child!r} its own parent")
        if link.parent not in ar_ids and link.parent not in mr_ids:
            raise InstanceError(f"link parent {link.parent!r} is neither access nor mobile router")
        linked.add(link.child)
    for mr_id in mobile_routers:
        if mr_id not in linked:
            raise InstanceError(f"mobile router {mr_id!r} has no candidate link (infeasible)")

    inst = NetworkInstance(
        base_stations=tuple(sorted(base_stations)),
        access_routers=tuple(sorted(access_routers)),
        mobile_routers=tuple(sorted(mobile_routers)),
        links=tuple(sorted(links, key=lambda l: (l.child, l.parent))),
        max_depth=DEFAULT_MAX_DEPTH if max_depth is None else max_depth,
    )
    _check_feasible(inst)
    return inst


def _check_feasible(inst: NetworkInstance) -> None:
    """Raise InstanceError when no valid assignment exists, or when link costs could overflow a float.

    The first check names the first MR, in sorted order, with no path of at
    most MAXDEPTH links to an AR. It passes exactly when a valid assignment
    exists: every MR on its ``min_link`` then is one, a shortest-path tree.
    For the costs: z1 is at most n_mr x ``steps`` x the largest link cost,
    0 <= z2 <= n_mr, and a run's hypervolume is at most about the product of
    those two bounds. Keeping that product within half the largest float
    keeps every objective, the run's reference point and its hypervolume
    finite, with room for rounding.
    """
    for mr, d in zip(inst.mobile_routers, inst.compiled.min_depth):
        if d < 0:
            raise InstanceError(f"mobile router {mr!r} has no path to an access router (infeasible)")
        if d > inst.max_depth:
            raise InstanceError(
                f"mobile router {mr!r} is {d} links from an access router, beyond MAXDEPTH {inst.max_depth} (infeasible)"
            )
    largest = max((link.cost for link in inst.links), default=0.0)
    n, steps = inst.n_mr, inst.compiled.steps
    if n * steps * largest * n > sys.float_info.max / 2:
        raise InstanceError(
            f"link cost {largest:g} can overflow the objectives: {n} MRs squared x walk cap {steps}"
            f" x largest cost exceeds {sys.float_info.max / 2:.6g}"
        )


def load_instance(path) -> NetworkInstance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_instance(text)


def _check_choices(inst: NetworkInstance, a: RouteAssignment) -> None:
    choices = a.choices
    if len(choices) != inst.n_mr:
        raise ContractViolation(f"assignment has {len(choices)} entries, instance has {inst.n_mr} MRs")
    for m, (k, r) in enumerate(zip(choices, inst.compiled.radices)):
        try:
            operator.index(k)
        except TypeError:
            raise ContractViolation(f"choice {k!r} for {inst.mobile_routers[m]!r} is not an integer") from None
        if not 0 <= k < r:
            raise ContractViolation(f"choice {k} out of range for {inst.mobile_routers[m]!r} (has {r} links)")


def _choice_matrix(inst: NetworkInstance, genotypes) -> np.ndarray | None:
    """The choices of ``genotypes`` as one (G, n_mr) int64 array, or None unless ``_check_choices`` passes each.

    Each row, a tuple of n_mr choices, is packed as an ``array("q")``,
    which takes exactly the integers ``operator.index`` takes, and the range
    is checked on the whole array at once. Choices held in anything but a
    tuple give None too.
    """
    n = inst.n_mr
    rows = [g.choices for g in genotypes]
    if not all(type(row) is tuple and len(row) == n for row in rows):
        return None
    try:
        packed = b"".join([array("q", row).tobytes() for row in rows])
    except (TypeError, OverflowError):
        return None
    choices = np.frombuffer(packed, np.int64).reshape(len(rows), n)
    if not ((0 <= choices) & (choices < np.array(inst.compiled.radices, np.int64))).all():
        return None
    return choices


def _forest_depths(inst: NetworkInstance, choices) -> tuple[list[int], list[int]]:
    """(depths, broken): per MR, its number of links to an access router, or max_depth + 1 when its path is broken; the broken MRs in index order.

    A path is broken when it is longer than max_depth links or runs into a
    cycle. The depths are ``_attach``'s level table for the MRs: the intact
    ones at their depths, the broken ones unrooted. Each sweep gives every
    pending MR whose parent has room below it that depth plus one, reading
    an access router's 0 from the end of the table; the MRs left when a
    sweep settles none are broken.
    """
    n, max_depth = inst.n_mr, inst.max_depth
    # per MR, the MR its chosen link attaches to, or ar - n_ar < 0 for access router ar
    up = list(map(operator.getitem, inst.compiled.mr_parents, choices))
    depth = [max_depth + 1] * n + [0] * len(inst.access_routers)
    pending = range(n)
    left = []
    while pending:
        left = []
        for m in pending:
            d = depth[up[m]]
            if d < max_depth:
                depth[m] = d + 1
            else:
                left.append(m)
        if len(left) == len(pending):
            break
        pending = left
    del depth[n:]
    return depth, left


def invalid_reason(inst: NetworkInstance, a: RouteAssignment) -> str | None:
    """None when the assignment is a valid forest, else 'cycle' or 'depth' for the first failing MR in index order.

    The failing MR is the first one ``_forest_depths`` finds broken. Only
    then is its path walked, up to n_mr links: one that reaches an access
    router is too deep, one that does not runs into a cycle.
    """
    _check_choices(inst, a)
    choices, mr_parents = a.choices, inst.compiled.mr_parents
    broken = _forest_depths(inst, choices)[1]
    if not broken:
        return None
    p = broken[0]
    for _ in range(inst.n_mr):
        p = mr_parents[p][choices[p]]
        if p < 0:
            return "depth"
    return "cycle"


def assignment_string(inst: NetworkInstance, a: RouteAssignment) -> str:
    """Canonical 'mr=parent;...' serialization (MRs in sorted id order)."""
    if a._terms is None:  # a genotype that carries terms was built valid here
        _check_choices(inst, a)
    return ";".join([labels[k] for labels, k in zip(inst.compiled.mr_labels, a.choices)])


def assignment_from_parent_map(inst: NetworkInstance, mapping: dict[str, str]) -> RouteAssignment:
    if set(mapping) != set(inst.mobile_routers):
        raise ContractViolation("parent map must be keyed exactly by the instance's MR ids")
    choices = []
    for mr, labels in zip(inst.mobile_routers, inst.compiled.mr_labels):
        try:
            choices.append(labels.index(f"{mr}={mapping[mr]}"))
        except ValueError:
            raise ContractViolation(f"{mr!r} has no candidate link to {mapping[mr]!r}") from None
    return RouteAssignment(tuple(choices))


def assignment_from_string(inst: NetworkInstance, text: str) -> RouteAssignment:
    """Inverse of ``assignment_string``; "" is the one assignment of an instance without MRs."""
    mapping = {}
    for part in text.split(";") if text else ():
        mr, sep, parent = part.partition("=")
        if not sep:
            raise ContractViolation(f"malformed assignment entry {part!r}")
        if mr in mapping:
            raise ContractViolation(f"{mr!r} is assigned more than once")
        mapping[mr] = parent
    return assignment_from_parent_map(inst, mapping)


def _attach(inst: NetworkInstance, choices: list[int], level: list[int], pending: list[int], picks: list[float]) -> None:
    """Randomized topological attachment of the MRs in ``pending``, in place; ``choices`` ends a valid forest.

    ``level`` holds one entry per MR, its depth, or max_depth + 1 while it
    is not rooted (every MR in ``pending``), then a 0 for each access
    router, which a link's negative parent index reads from the end; the
    MRs not pending form a valid forest. A link is then feasible exactly
    when its parent's level is below max_depth: the parent is an AR, or a
    rooted MR with room below it. Sweeps ``pending`` in order. Each MR picks
    uniformly among its f feasible links and takes its parent's level plus
    one; an MR with no feasible link waits for the next sweep. ``picks``
    holds ``len(pending)`` uniform doubles in [0, 1): the i-th MR attached
    takes link ``feasible[int(picks[i] * f)]``.

    When a sweep attaches none, each MR left, and each of its ancestors
    in the shortest-path tree down to an AR or to an MR already at its
    ``min_depth`` d*, is put on its ``min_link`` at level d*, with no pick.
    The sentinel max_depth + 1 is above every d* of a feasible instance, so
    no MR left counts as settled already. The forest stays valid: a reset
    MR has depth d* <= max_depth, any other depth can only fall, and the
    reset links run down the shortest-path tree, so they close no cycle.
    ``level`` may then overstate some depths.
    Raises InstanceError at that point on an infeasible instance.
    """
    c = inst.compiled
    max_depth = inst.max_depth
    mr_parents, enumerated_parents = c.mr_parents, c.enumerated_parents
    i = 0
    while pending:
        deferred = []
        for m in pending:
            # a loop, not a comprehension: CPython 3.11 runs each comprehension in a frame of its own,
            # and this one runs once per MR per sweep (about 15% of a random_assignment at 40-1000 MRs)
            feasible = []
            for k, p in enumerated_parents[m]:
                if level[p] < max_depth:
                    feasible.append(k)
            if not feasible:
                deferred.append(m)
                continue
            k = feasible[int(picks[i] * len(feasible))]
            i += 1
            choices[m] = k
            level[m] = level[mr_parents[m][k]] + 1
        if len(deferred) == len(pending):
            break
        pending = deferred
    if pending:
        _check_feasible(inst)
        min_depth, min_link = c.min_depth, c.min_link
        for m in pending:
            while m >= 0 and level[m] != min_depth[m]:
                choices[m] = min_link[m]
                level[m] = min_depth[m]
                m = mr_parents[m][choices[m]]


def random_assignment(inst: NetworkInstance, rng) -> RouteAssignment:
    """Random valid forest, carrying no terms: ``_attach`` of all MRs, in a random order.

    The order is drawn first (``rng.permutation(n)``), then one double per
    MR (``rng.random(n)``), which the attachment picks with.
    Raises InstanceError on an infeasible instance (``parse_instance`` never returns one).
    """
    n = inst.n_mr
    choices = [0] * n
    level = [inst.max_depth + 1] * n + [0] * len(inst.access_routers)
    order = rng.permutation(n).tolist()
    _attach(inst, choices, level, order, rng.random(n).tolist())
    return RouteAssignment(tuple(choices))


def _reattach_options(inst: NetworkInstance, choices, m: int):
    """The forest test for moving MR m: (its feasible links, the MRs of its subtree).

    The links are m's links other than its current one, in link order,
    under which ``choices`` stays a valid forest; the subtree is the set of
    MRs whose paths run through m, m included.

    No table is built per genotype. Each level of m's subtree is read off
    the static reverse links (``_Compiled.mr_users``): the MRs with a link
    to one of the level above, kept when ``choices`` picks that link. Each
    ancestor step reads ``mr_parents[p][choices[p]]``. So the call costs
    the in-links of m's subtree plus m's radix times the depth, not the
    number of MRs.

    Precondition: ``choices`` is a valid forest. Then the links are exactly
    those whose genotype a full route walk finds valid, without walking:
    moving m under parent p keeps the forest valid if and only if p is an AR
    or an MR outside m's subtree, and depth(p) + 1 + height(m) <= max_depth.
    On an invalid ``choices`` every scan is capped at ``steps``, so the call
    still returns.
    """
    c = inst.compiled
    mr_parents, users = c.mr_parents, c.mr_users
    # m's subtree and its height, one level at a time
    level = [m]
    subtree = {m}
    height = 0
    while height < c.steps:
        level = [i for p in level for i in users[p] if mr_parents[i][choices[i]] == p]
        if not level:
            break
        subtree.update(level)
        height += 1
    room = c.steps - 1 - height  # the largest depth(p) that m's subtree still fits under
    feasible = []
    for k, p in enumerate(mr_parents[m]):
        if k == choices[m] or p in subtree:
            continue
        d = 0
        while p >= 0 and d < room:
            d += 1
            p = mr_parents[p][choices[p]]
        if p < 0:
            feasible.append(k)
    return feasible, subtree


def mutate_reattach(inst: NetworkInstance, a: RouteAssignment, rng) -> RouteAssignment:
    """Reassign one uniformly chosen MR to another feasible candidate link.

    Precondition: ``a`` is a valid forest (the result is then valid too).
    Returns the input unchanged when the drawn MR has no feasible alternative.
    When ``a`` carries its terms, the child carries a copy of them with only
    the moved MR's subtree re-walked; otherwise it carries none.
    """
    if inst.n_mr == 0:
        return a
    m = int(rng.random() * inst.n_mr)
    feasible, subtree = _reattach_options(inst, a.choices, m)
    if not feasible:
        return a
    k = feasible[int(rng.random() * len(feasible))]
    choices = a.choices[:m] + (k,) + a.choices[m + 1:]
    if a._terms is None:
        return RouteAssignment(choices)
    cost, risk = (terms[:] for terms in a._terms)
    kernels.route_terms(choices, subtree, inst.compiled, cost, risk)
    return _carry(RouteAssignment(choices), cost, risk)


def heavy_reattach(inst: NetworkInstance, a: RouteAssignment, rng) -> RouteAssignment:
    """Heavy mutation: reattach ceil(|MR|/2) randomly chosen MRs in sequence; the result carries its terms.

    Precondition: ``a`` is a valid forest; each step keeps it valid.
    Each step's forest test (``_reattach_options``) reads the moves before
    it from ``work`` itself, so no parent or child lists are kept in step,
    and a step costs the moved MR's subtree's in-links plus its radix times
    the depth. No package code calls it since immigration makes fresh
    random genotypes only. It stays because ``perfbench/spans.py`` wraps it,
    and the tracer raises on a name it cannot find.
    """
    if inst.n_mr == 0:
        return a
    count = (inst.n_mr + 1) // 2
    work = list(a.choices)
    for m in rng.permutation(inst.n_mr)[:count].tolist():
        feasible = _reattach_options(inst, work, m)[0]
        if feasible:
            work[m] = feasible[int(rng.random() * len(feasible))]
    return _walked(inst, work)


def crossover_parentmix(inst: NetworkInstance, a: RouteAssignment, b: RouteAssignment, rng) -> RouteAssignment:
    """Uniform parent-link mix of two assignments, with topological repair.

    Each MR inherits its link from a or b with probability 1/2, one double
    per MR; MRs left on broken paths (cycles or excessive depth) are
    re-attached in a random order by randomized topological attachment
    (``_attach``), which always finishes. One ``_forest_depths`` sweep finds
    them, and its depths are the level table ``_attach`` starts from. For k
    broken MRs the order is ``rng.permutation(k)`` and the picks
    ``rng.random(k)``. The child carries no terms.
    """
    n = inst.n_mr
    if n == 0:
        return a
    # the same doubles as one rng.random() per MR; a pick of 1 (u >= 0.5) takes b's link
    child = list(map(operator.getitem, zip(a.choices, b.choices), (rng.random(n) >= 0.5).tolist()))
    level, broken = _forest_depths(inst, child)  # _attach's level table: intact MRs at their depth, broken ones unrooted
    if broken:  # a child with no broken MR skips rng.permutation(0), which draws nothing but costs a numpy call
        level += [0] * len(inst.access_routers)
        k = len(broken)
        _attach(inst, child, level, [broken[i] for i in rng.permutation(k).tolist()], rng.random(k).tolist())
    return RouteAssignment(tuple(child))


def iter_neighbors(inst: NetworkInstance, a: RouteAssignment) -> Iterator[tuple[RouteAssignment, ObjectiveVector]]:
    """Valid single-MR reattachments with their objectives, lazily, in (MR index, link index) order.

    Precondition: ``a`` is a valid forest; an invalid one raises
    ContractViolation here, before anything is yielded.

    The objectives are delta-scored from each MR's path cost and risk under
    ``a``: the terms ``a`` carries, or else one check and one walk of ``a``
    (``kernels.route_terms``). A neighbor that moves MR m re-walks only the
    MRs of m's subtree, the only paths that change, and continues the
    running sums of ``a``'s terms from the subtree's smallest MR index,
    adding in MR order as ``kernels.eval_route`` does; so the objectives are
    bit-identical to ``RouteProblem.evaluate``. Each neighbor carries its
    terms, so neither its evaluation nor its own neighborhood walks it
    again. The forest test of ``_reattach_options`` decides validity, so an
    invalid candidate is never walked, and a consumer that stops early walks
    no further ones.
    """
    if a._terms is None:
        _check_choices(inst, a)
        a = _walked(inst, a.choices)
        if a._terms is None:
            raise ContractViolation(f"invalid assignment ({invalid_reason(inst, a)})")
    return _delta_neighbors(inst, a.choices, *a._terms)


def _delta_neighbors(inst: NetworkInstance, choices, cost: array, risk: array):
    """The generator behind ``iter_neighbors``, given the valid ``choices`` and their per-MR terms (read, never written)."""
    # running sums as the walk adds them; never sum(), which compensates float sums from Python 3.12
    z1_prefix = list(itertools.accumulate(cost, initial=0.0))
    z2_prefix = list(itertools.accumulate(risk, initial=0.0))
    tables = inst.compiled
    work = list(choices)
    # the terms under work, which differ from cost only on the moved subtree; lists, because the
    # sums iterate them and an array('d') makes a new float for each item it yields
    moved_cost = list(cost)
    moved_risk = list(risk)
    for m in range(inst.n_mr):
        feasible, subtree = _reattach_options(inst, choices, m)
        if not feasible:
            continue
        lo = min(subtree)
        for k in feasible:
            work[m] = k
            kernels.route_terms(work, subtree, tables, moved_cost, moved_risk)
            z1 = reduce(operator.add, moved_cost[lo:], z1_prefix[lo])
            z2 = reduce(operator.add, moved_risk[lo:], z2_prefix[lo])
            neighbor_cost, neighbor_risk = cost[:], risk[:]
            for i in subtree:
                neighbor_cost[i] = moved_cost[i]
                neighbor_risk[i] = moved_risk[i]
            neighbor = _carry(RouteAssignment(choices[:m] + (k,) + choices[m + 1:]), neighbor_cost, neighbor_risk)
            yield neighbor, ObjectiveVector((z1, z2))
        work[m] = choices[m]
        for i in subtree:
            moved_cost[i] = cost[i]
            moved_risk[i] = risk[i]


def neighborhood(inst: NetworkInstance, a: RouteAssignment) -> list[RouteAssignment]:
    """All valid single-MR reattachments, in (MR index, link index) order."""
    return [g for g, _objectives in iter_neighbors(inst, a)]


def brute_force_pareto(
    inst: NetworkInstance, guard: int = DEFAULT_ORACLE_GUARD
) -> list[tuple[ObjectiveVector, RouteAssignment]]:
    """Exact Pareto front by exhaustive enumeration, one witness per objective vector.

    Witnesses are deterministic (smallest enumeration index). Raises
    ``OracleScopeError`` for a search space larger than ``guard``, or one
    numpy cannot hold: more MRs with several links than an array has axes,
    or arrays larger than physical memory or than numpy can allocate, in the
    enumeration or the front extraction. The
    physical-memory test comes before any allocation, since an allocation
    the OS grants need not be backed; it is skipped where ``os.sysconf``
    cannot tell.
    """
    c = inst.compiled
    if c.search_space > guard:
        raise OracleScopeError(
            f"search space {c.search_space} exceeds oracle guard {guard}"
        )
    axes = sum(r > 1 for r in c.radices)  # kernels.enumerate_routes gives each such MR an axis
    if axes > _NUMPY_MAX_AXES:
        raise OracleScopeError(f"{axes} MRs have several links; the oracle enumerates at most {_NUMPY_MAX_AXES}")
    need, memory = _ORACLE_ROW_BYTES * c.search_space, _physical_memory()
    if memory is not None and need > memory:
        raise OracleScopeError(
            f"search space {c.search_space} needs {need} bytes, more than the {memory} bytes of physical memory"
        )
    try:
        valid, z1, z2 = kernels.enumerate_routes(c)
        idx = np.flatnonzero(valid)
        z1, z2 = z1[idx], z2[idx]  # frees the full-space arrays before sorting, to keep peak memory down
        rows = kernels.front_rows(z1, z2, idx)
    except MemoryError:
        raise OracleScopeError(f"search space {c.search_space} does not fit in memory") from None
    return [
        (ObjectiveVector((float(z1[i]), float(z2[i]))), RouteAssignment(_unravel(flat, c.radices)))
        for i, flat in zip(rows.tolist(), idx[rows].tolist())
    ]


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` does not report them."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _unravel(flat: int, radices) -> tuple[int, ...]:
    """The choices of row ``flat`` of the row-major mixed-radix space (last MR fastest), as np.unravel_index gives.

    Plain integer arithmetic: it holds for any number of MRs, where numpy
    allows at most 64 dimensions, and an MR with one link gets choice 0.
    """
    choices = []
    for r in reversed(radices):
        flat, k = divmod(flat, r)
        choices.append(k)
    return tuple(reversed(choices))


# the most (genotype, MR) positions one batch walk takes, which bounds its arrays: 100 genotypes at
# 200 MRs are one walk, and at 1000 MRs slices of 32 keep the peak RSS near the 200-MR figure
_BATCH_POSITIONS = 32_768


def _walk_and_sum(inst: NetworkInstance, genotypes: list[RouteAssignment]) -> list[ObjectiveVector] | None:
    """The objectives of ``genotypes``, or None when ``_choice_matrix`` refuses one or a walk fails.

    The genotypes that carry no terms are checked together
    (``_choice_matrix``) and walked together (``kernels.route_terms_many``),
    and each is left carrying the terms of its walk. Then one
    ``np.add.accumulate`` adds every genotype's terms, walked or carried,
    from 0.0 in MR order.
    """
    n = inst.n_mr
    fresh = [g for g in genotypes if g._terms is None]
    if fresh:
        choices = _choice_matrix(inst, fresh)
        if choices is None:
            return None
        cost, risk, ok = kernels.route_terms_many(choices, inst.compiled)
        if not ok.all():
            return None
        cost, risk = array("d", cost.tobytes()), array("d", risk.tobytes())
        for i, g in enumerate(fresh):
            _carry(g, cost[i * n:(i + 1) * n], risk[i * n:(i + 1) * n])
    # each genotype's cost and risk terms after a 0.0 column: accumulate adds left to right, one
    # element at a time (np.sum adds pairwise), and from 0.0, as reduce(operator.add, terms, 0.0) does
    terms = np.zeros((len(genotypes), 2, n + 1))
    carried = b"".join([t.tobytes() for g in genotypes for t in g._terms])
    terms[:, :, 1:] = np.frombuffer(carried, np.float64).reshape(len(genotypes), 2, n)
    return [ObjectiveVector(sums) for sums in np.add.accumulate(terms, axis=2)[:, :, -1].tolist()]


class RouteProblem(Problem):
    """Adapter exposing a NetworkInstance through the generic problem interface."""

    def __init__(self, instance: NetworkInstance):
        self.instance = instance

    def evaluate(self, genotype: RouteAssignment) -> ObjectiveVector:
        """The (z1, z2) of ``kernels.eval_route``; carried terms are added in MR order as it adds them."""
        if genotype._terms is not None:
            cost, risk = genotype._terms
            return ObjectiveVector((reduce(operator.add, cost, 0.0), reduce(operator.add, risk, 0.0)))
        inst = self.instance
        _check_choices(inst, genotype)
        z1, z2, ok = kernels.eval_route(genotype.choices, inst.compiled)
        if not ok:
            raise ValidityError(f"invalid assignment ({invalid_reason(inst, genotype)})")
        return ObjectiveVector((float(z1), float(z2)))

    def evaluate_many(self, genotypes) -> list[ObjectiveVector]:
        """``[self.evaluate(g) for g in genotypes]``, bit for bit, from batch walks and batch sums.

        The batch is taken in slices of at most ``_BATCH_POSITIONS``
        (genotype, MR) positions, which bounds the walk's arrays; each slice
        is one ``_walk_and_sum``. If its check refuses a genotype, or a walk
        fails, the whole batch goes to ``evaluate`` one genotype at a time,
        in order, so an error is the one ``evaluate`` raises first.
        """
        genotypes = list(genotypes)
        if not all(isinstance(g, RouteAssignment) for g in genotypes):
            return [self.evaluate(g) for g in genotypes]
        size = max(1, _BATCH_POSITIONS // max(self.instance.n_mr, 1))
        objectives = []
        for lo in range(0, len(genotypes), size):
            part = _walk_and_sum(self.instance, genotypes[lo:lo + size])
            if part is None:
                return [self.evaluate(g) for g in genotypes]
            objectives += part
        return objectives

    def random_genotype(self, rng) -> RouteAssignment:
        return random_assignment(self.instance, rng)

    def genotype_key(self, genotype) -> tuple[int, ...]:
        """The genotype's choice tuple; ``assignment_string`` is built only where a front is written."""
        if genotype._terms is None:  # a genotype that carries terms was built valid here
            _check_choices(self.instance, genotype)
        return genotype.choices

    def mutate(self, genotype, rng) -> RouteAssignment:
        return mutate_reattach(self.instance, genotype, rng)

    def crossover(self, a, b, rng) -> RouteAssignment:
        return crossover_parentmix(self.instance, a, b, rng)

    def neighborhood(self, genotype) -> Iterator[tuple[RouteAssignment, ObjectiveVector]]:
        return iter_neighbors(self.instance, genotype)
