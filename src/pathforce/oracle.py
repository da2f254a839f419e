"""Independent ground truth for the closed-form results.

Three ingredients: isomorphism-free enumeration of all small graphs, a
brute-force recomputation of the degree threshold over that enumeration, and
seeded random bipartite instances satisfying the cycle and path-cover
hypotheses exactly. Suites bind these to the solvers and emit machine-readable
reports.

Three tables hold what the suites and the CLI share: CONSTRUCTIONS (each
construction kind's builder, stated counts and property checks),
_TRIAL_SUITES (what each randomized suite samples and solves) and _SUITES
(suite name to suite function and the size parameter it takes, in the order
of SUITES).

Everything is deterministic given the seed, including under --jobs
parallelism: work is distributed over an ordered list of cells and results are
aggregated in cell order.
"""

from __future__ import annotations

import json
import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from .canonical import (
    _certificate_rows,
    are_isomorphic,
    canonical_labeling,
    certificate_adj,
    graph_from_certificate,
)
from .constructions import (
    build_G,
    build_H,
    build_H_star,
    build_essential_counterexample,
    build_psi_tree,
    build_theta_chain,
    expected_high_count,
)
from .formulas import (
    PhiParams,
    phi,
    psi_lower_bound,
    psi_tree_counts,
    theta_chain_formula,
    theta_upper_bound,
)
from .graph import (
    BipartitionView,
    Graph,
    PathWitness,
    biconnected_components,
    bits,
    encode_graph6,
    high_degree_vertices,
    induced_subgraph,
    is_connected,
    is_essentially_two_connected,
    is_two_connected,
    mask_of,
)
from .solvers import (
    LemmaViolationError,
    PathCover,
    SearchBudget,
    SearchBudgetExceeded,
    _path_table,
    contains_path,
    find_cycle_through_X,
    longest_cycle,
    merge_high_end_paths,
    path_cover_of_X,
)

ENUMERATION_MAX = 9
BRUTEFORCE_DEFAULT_MAX = 8
PROFILES = ("jackson", "klz", "essential", "lemma35")

# per-instance safety net; the suite graphs are tiny and never get near it
_TRIAL_BUDGET = SearchBudget(node_limit=5_000_000)

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    x &= _MASK64
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ x >> 27) * 0x94D049BB133111EB & _MASK64
    return x ^ x >> 31


def derive_seed(seed: int, *indices: int) -> int:
    """Stable 64-bit sub-seed for a work cell, splitmix-style."""
    x = _mix64(seed ^ 0x9E3779B97F4A7C15)
    for i in indices:
        x = _mix64(x + 0x9E3779B97F4A7C15 * (i + 1))
    return x


# ---------------------------------------------------------------------------
# enumeration

_LEVELS: dict[int, tuple[int, ...]] = {1: (0,)}
_STATS: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}


def _top_vertices(rows: tuple[int, ...] | list[int]) -> list[int]:
    """Vertices of maximum (degree, sorted neighbour degrees), in label order."""
    deg = [r.bit_count() for r in rows]
    d = max(deg)
    inv = {v: sorted(deg[u] for u in bits(r)) for v, r in enumerate(rows) if deg[v] == d}
    top = max(inv.values())
    return [v for v, s in inv.items() if s == top]


def _add_orbit(nb: int, gens: list[tuple[int, ...]], seen: set[int]) -> None:
    """Add the orbit of vertex set nb under the group generated by gens."""
    seen.add(nb)
    stack = [nb]
    while stack:
        s = stack.pop()
        for perm in gens:
            t = 0
            rest = s
            while rest:
                low = rest & -rest
                t |= 1 << perm[low.bit_length() - 1]
                rest ^= low
            if t not in seen:
                seen.add(t)
                stack.append(t)


def _child_certs(args: tuple[int, int] | tuple[int, int, bool]) -> set[int]:
    """Certificates of the classes whose canonical deletion gives this parent.

    With a third item true, only the classes with no path on all n vertices,
    decided with no path search from the parent's subset table (_path_table).
    A Hamiltonian path of P + w ends in w, leaving one of P that ends next to
    w, or passes through w, leaving two that cover S and V - S, each with an
    end next to w. So, exactly, N(w) meets the ends for V or holds a pair
    {a, b}, a an end for S and b one for V - S; pairs that the ends for V
    already cover are left out. This runs before the orbit step: an
    automorphism of P extends to an isomorphism of the two children fixing
    the new vertex, so a rejected neighbourhood's orbit is rejected member by
    member, with none marked. When too few vertices lie off the ends for any
    neighbourhood of maximum degree to avoid them, no child survives and the
    parent returns at once, before the pair set is built.

    The parent's own certificate search, for the generators of the orbit
    step, runs only once a neighbourhood has passed both filters.
    """
    n_prev, cert, *rest = args
    untraceable = any(rest)
    adj = _certificate_rows(n_prev, cert)
    n, new_bit = n_prev + 1, 1 << n_prev
    deg = [a.bit_count() for a in adj]
    top = max(deg)
    top_mask = mask_of(v for v in range(n_prev) if deg[v] == top)
    full = new_bit - 1
    table = _path_table(adj)[0] if untraceable else {}
    ends = table.get(full, 0)
    free = full & ~ends
    if free.bit_count() < top + bool(free & top_mask):
        return set()  # every neighbourhood of maximum degree meets an end
    pairs = tuple({1 << a | 1 << b for s, r in table.items() if s & 1 and s != full
                   for a in bits(r & ~ends) for b in bits(table.get(full ^ s, 0) & ~ends)})
    gens: list[tuple[int, ...]] | None = None
    out: set[int] = set()
    seen: set[int] = set()
    for nb in range(1 << n_prev):
        if nb.bit_count() < top + bool(nb & top_mask):
            continue  # the new vertex's degree is not the maximum
        if untraceable and (nb & ends or any(nb & p == p for p in pairs)):
            continue  # traceable: the new vertex ends or joins a Hamiltonian path
        if gens is None:
            gens = canonical_labeling(n_prev, adj)[1]
        if gens:
            if nb in seen:
                continue  # an automorphic image of a neighbourhood already tried
            _add_orbit(nb, gens, seen)
        rows = [a | new_bit if nb >> v & 1 else a for v, a in enumerate(adj)] + [nb]
        ties = _top_vertices(rows)
        if ties[-1] != n_prev:
            continue  # the new vertex, the highest label, is not among the maxima
        c, child_gens, order = canonical_labeling(n, rows)
        if c in out:
            continue
        m = min(ties, key=order.index)  # preimage of m(C)
        if m != n_prev:
            orbit: set[int] = set()
            _add_orbit(new_bit, child_gens, orbit)
            if 1 << m not in orbit:
                low = (1 << m) - 1  # drop m, shifting higher labels down
                rest = [r & low | (r >> m + 1) << m for v, r in enumerate(rows) if v != m]
                if certificate_adj(n_prev, rest) != cert:
                    continue
        out.add(c)
    return out


def level_certs(n: int, jobs: int = 1) -> tuple[int, ...]:
    """Sorted canonical certificates of all isomorphism classes on n vertices.

    Canonical augmentation (B. D. McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26 (1998)). Let inv(v) be (degree, sorted
    neighbour degrees) and m(C) the lowest-labelled vertex of maximum inv in
    the canonical graph of class C. Parent P grown by a vertex w into C keeps
    C iff inv(w) is the maximum and C - m(C) is isomorphic to P. So a class
    comes only from the parent C - m(C), and is not lost: that parent grown
    by m(C)'s neighbourhood passes the rule. The parents' child sets are
    disjoint and together cover the level.

    One certificate search of C decides the rule. inv is an invariant, so
    the maxima of the canonical graph are the images of C's own maxima, and
    m(C) is the image of m, the maximum placed first in the search's best
    ordering. C is kept by the first route that applies, each exact:
    - m is w: C - w is P as given;
    - m is in w's orbit under the generators the search recorded: an
      automorphism of C mapping w to m makes C - m isomorphic to C - w = P;
    - C - m, in C's own labels, has P's certificate; otherwise C is
      rejected.
    The generators may miss part of Aut(C); that only sends a tie to the
    last route.

    Each parent tries one neighbourhood per orbit of Aut(P) on vertex sets,
    using the generators its certificate search records: an automorphism g
    of P extends to an isomorphism between the children grown by S and by
    g(S) that fixes the new vertex, so both children are one class with one
    accept decision. Any subgroup of Aut(P) keeps the level exactly as is.
    """
    if not 1 <= n <= ENUMERATION_MAX:
        raise ValueError(f"enumeration limited to 1 <= n <= {ENUMERATION_MAX}")
    if n in _LEVELS:
        return _LEVELS[n]
    parts = _map_cells(_child_certs, [(n - 1, c) for c in level_certs(n - 1, jobs)], jobs)
    certs = tuple(sorted(c for part in parts for c in part))
    _LEVELS[n] = certs
    return certs


def enumerate_graphs(n: int, jobs: int = 1):
    """Every simple graph on n unlabeled vertices, exactly once."""
    for cert in level_certs(n, jobs):
        yield graph_from_certificate(n, cert)


def _class_stats_cell(args: tuple[int, int]) -> tuple[int, int, tuple[int, ...]]:
    n, cert = args
    g = graph_from_certificate(n, cert)
    # the class has no path on n vertices, and a path on L vertices holds
    # paths of every shorter length, so the first hit searching down is L
    length = n - 1
    while contains_path(g, length) is None:
        length -= 1
    return cert, length, g.degree_sequence()


def _graph_stats(n: int, jobs: int = 1) -> list[tuple[int, int, tuple[int, ...]]]:
    """(certificate, longest-path length, degree sequence) per non-traceable class.

    Non-traceable: no path on all n vertices. Grown from the full level n - 1
    through non-traceable children only, each decided by its parent's subset
    table with no path search; level_certs keeps a child by its class alone,
    so this drops exactly the traceable classes. Sorted by certificate.
    """
    if n in _STATS:
        return _STATS[n]
    parts = _map_cells(_child_certs, [(n - 1, c, True) for c in level_certs(n - 1, jobs)], jobs)
    certs = sorted(c for part in parts for c in part)
    stats = _map_cells(_class_stats_cell, [(n, c) for c in certs], jobs)
    _STATS[n] = stats
    return stats


def phi_bruteforce(n: int, d: int, k: int, max_n: int = BRUTEFORCE_DEFAULT_MAX) -> int:
    """Threshold recomputed from first principles over the enumeration.

    One more than the maximum number of degree->=d vertices over all n-vertex
    graphs whose longest path has at most k vertices. Since k < n, only the
    non-traceable classes of _graph_stats can count.
    """
    if max_n > ENUMERATION_MAX:
        raise ValueError(f"brute force limited to n <= {ENUMERATION_MAX}")
    if not 1 <= k <= d < n:
        raise ValueError(f"parameters must satisfy 1 <= k <= d < n, got ({n},{d},{k})")
    if n > max_n:
        raise ValueError(f"n={n} out of brute-force range (max {max_n})")
    best = 0
    for _, length, degs in _graph_stats(n):
        if length <= k:
            count = sum(1 for x in degs if x >= d)
            if count > best:
                best = count
    return best + 1


# ---------------------------------------------------------------------------
# random hypothesis-driven instances

def _profile_windows(d: int, profile: str, t: int) -> tuple[tuple[int, int], tuple[int, int]]:
    if profile == "jackson":
        return (2, d), (d, 2 * d - 2)
    if profile == "klz":
        return (2, d), (d, 3 * d - 5)
    if profile == "essential":
        return (2, d - 1), (d, 3 * d - 5)
    return (2, d + t), (d, 3 * d + 2 * t - 3)


def random_bipartite_instance(seed: int, d: int, profile: str, t: int = 1) -> BipartitionView:
    """Pseudorandom instance satisfying the named hypothesis set exactly.

    X occupies vertices 0..|X|-1, Y the rest. Edges are sampled at density
    0.5 and deficient X-degrees are repaired by adding random edges. Each
    candidate is then kept or rejected by one hypothesis_holds call, which
    enforces the connectivity class of the profile.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile: {profile}")
    if d < 2:
        raise ValueError("d must be >= 2")
    if profile in ("klz", "essential") and d < 3:
        raise ValueError(f"profile {profile} needs d >= 3 for a non-empty size window")
    if t < 1:
        raise ValueError("t must be >= 1")
    (x_lo, x_hi), (y_lo, y_hi) = _profile_windows(d, profile, t)
    rng = random.Random(derive_seed(seed, PROFILES.index(profile), d, t))
    for _ in range(200):
        nx = rng.randint(x_lo, x_hi)
        ny = rng.randint(y_lo, y_hi)
        rows = [0] * (nx + ny)
        for x in range(nx):
            for y in range(nx, nx + ny):
                if rng.random() < 0.5:
                    rows[x] |= 1 << y
        for x in range(nx):
            missing = [y for y in range(nx, nx + ny) if not rows[x] >> y & 1]
            while rows[x].bit_count() < d:
                rows[x] |= 1 << missing.pop(rng.randrange(len(missing)))
            rest = rows[x]
            while rest:
                low = rest & -rest
                rest ^= low
                rows[low.bit_length() - 1] |= 1 << x
        b = BipartitionView(Graph(nx + ny, tuple(rows)), (1 << nx) - 1, ((1 << ny) - 1) << nx)
        if hypothesis_holds(b, d, profile, t):
            return b
    raise RuntimeError(
        f"instance sampling failed after 200 attempts (seed={seed}, d={d}, profile={profile})")


def hypothesis_holds(b: BipartitionView, d: int, profile: str, t: int = 1) -> bool:
    """Definitional check of the named hypothesis set on an instance."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile: {profile}")
    nx = b.x_mask.bit_count()
    ny = b.y_mask.bit_count()
    if nx == 0 or b.min_x_degree() < d:
        return False
    if profile == "jackson":
        return 2 <= nx <= d and ny <= 2 * d - 2
    if profile == "klz":
        return 2 <= nx <= d and ny <= 3 * d - 5 and is_two_connected(b.graph)
    if profile == "essential":
        if not (2 <= nx <= d - 1 and ny <= 3 * d - 5):
            return False
        try:
            return is_essentially_two_connected(b.graph)
        except ValueError:
            return False
    return nx <= d + t and ny <= 3 * d + 2 * t - 3


# ---------------------------------------------------------------------------
# constructions: how each kind is built and what it is claimed to satisfy
#
# Entries reach builders and solvers through this module's globals at call
# time, never through stored function objects, so that whatever patches those
# globals (a tracer, a test double) sees every call.

Check = tuple[str, bool, str]  # (name, ok, detail)


def _path_free(k_at: int) -> Callable[..., Check]:
    """No path on k+1 vertices, k being parameter number k_at."""
    def check(p: tuple[int, ...], g: Graph, view: BipartitionView | None) -> Check:
        k = p[k_at]
        return "path-free", contains_path(g, k + 1) is None, f"no path on {k + 1} vertices"
    return check


def _circumference(p: tuple[int, ...], g: Graph, view: BipartitionView | None) -> Check:
    length, _ = longest_cycle(g)
    return "circumference", length <= p[1], f"{length}"


def _blocks(p: tuple[int, ...], g: Graph, view: BipartitionView | None) -> Check:
    model = build_H(p[0], p[1] + 1)
    ok = all(are_isomorphic(induced_subgraph(g, bm)[0], model)
             for bm in biconnected_components(g))
    return "blocks", ok, "every block matches the one-vertex-deeper join"


_ESSENTIAL_CHECKS = (
    lambda p, g, b: ("x-size", b.x_mask.bit_count() == p[0], f"{b.x_mask.bit_count()}"),
    lambda p, g, b: ("y-size", b.y_mask.bit_count() >= 2 * p[0] - 1, f"{b.y_mask.bit_count()}"),
    lambda p, g, b: ("min-x-degree", b.min_x_degree() >= p[0], f"{b.min_x_degree()}"),
    lambda p, g, b: ("essentially-2-connected", is_essentially_two_connected(g), ""),
    lambda p, g, b: ("no-cycle-through-x", find_cycle_through_X(b) is None, ""),
)


@dataclass(frozen=True)
class Construction:
    """One construction kind: its parameters, its builder and its claims."""

    arity: int
    degree: int  # index of d among the parameters
    build: Callable[..., Graph | BipartitionView]
    counts: Callable[..., tuple[int, int]] | None  # stated (vertices, degree->=d vertices)
    properties: tuple[Callable[..., Check], ...]

    def checks(self, params: tuple[int, ...], built: Graph | BipartitionView) -> list[Check]:
        """Stated counts first, then the property checks, in order."""
        view = built if isinstance(built, BipartitionView) else None
        g = view.graph if view else built
        out: list[Check] = []
        if self.counts is not None:
            n, high = self.counts(*params)
            hc = high_degree_vertices(g, params[self.degree]).bit_count()
            out += [("vertex-count", g.n == n, f"{g.n}"),
                    ("high-degree-count", hc == high, f"{hc}")]
        return out + [check(params, g, view) for check in self.properties]


CONSTRUCTIONS = {
    "H": Construction(2, 0, lambda d, k: build_H(d, k),
                      lambda d, k: (d + 1, (k - 1) // 2), ()),
    "H-star": Construction(2, 0, lambda d, k: build_H_star(d, k),
                           lambda d, k: (2 * d + 2 - k // 2, k // 2), (_path_free(1),)),
    "G": Construction(3, 1, lambda n, d, k: build_G(n, d, k),
                      lambda n, d, k: (n, expected_high_count(n, d, k)), (_path_free(2),)),
    "theta-chain": Construction(4, 0, lambda *p: build_theta_chain(*p),
                                theta_chain_formula, (_circumference, _blocks)),
    "psi-tree": Construction(4, 0, lambda *p: build_psi_tree(*p),
                             psi_tree_counts,
                             (lambda p, g, b: ("connected", is_connected(g), ""), _path_free(1))),
    "essential-cx": Construction(
        1, 0, lambda d, pendants=None: build_essential_counterexample(d, pendants),
        None, _ESSENTIAL_CHECKS),
}


# ---------------------------------------------------------------------------
# reports and suites

@dataclass
class VerificationReport:
    """Machine-readable outcome of one suite run."""

    claim: str
    params: dict
    outcome: str
    counts: dict
    seed: int | None = None
    witness: str | None = None
    runtime: float | None = None

    def payload(self, include_runtime: bool = False) -> dict:
        # runtime omitted by default so identical runs serialize identically
        return {
            "claim": self.claim,
            "params": self.params,
            "outcome": self.outcome,
            "counts": self.counts,
            "seed": self.seed,
            "witness": self.witness,
            "runtime": self.runtime if include_runtime else None,
        }

    def to_json(self, include_runtime: bool = False) -> str:
        return json.dumps(self.payload(include_runtime), sort_keys=True)


def _map_cells(fn, cells: list, jobs: int) -> list:
    if jobs <= 1 or len(cells) < 8:
        return [fn(c) for c in cells]
    from multiprocessing import Pool  # here, so a serial run never imports it
    with Pool(jobs) as pool:
        return pool.map(fn, cells, chunksize=max(1, len(cells) // (jobs * 8)))


# Trial suites: each trial samples an instance from its own sub-seed, solves it
# under _TRIAL_BUDGET and classifies the answer: ok, fail (the claim does not
# hold, or a solver reports a violated guarantee) or inconclusive (budget).

@dataclass(frozen=True)
class _TrialSuite:
    claim: str
    cells: tuple[tuple[int, ...], ...]  # d first; a trial seeds with (*cell, index)
    per_cell: int                       # default trials per cell
    params: Callable[[int], dict]       # report params, given the trials per cell
    sample: Callable                    # (sub-seed, *cell) -> (graph, instance)
    solve: Callable                     # (graph, instance, *cell) -> holds; may run out of budget


def _sample_bipartite(profile: str):
    # random_bipartite_instance returns only instances that pass
    # hypothesis_holds, so the suites' solve steps do not check it again.
    def sample(seed: int, d: int, t: int = 1) -> tuple[Graph, BipartitionView]:
        b = random_bipartite_instance(seed, d, profile, t)
        return b.graph, b
    return sample


def _cycle_trials(profile: str) -> _TrialSuite:
    return _TrialSuite(
        claim=f"every {profile}-hypothesis instance has a cycle through all of X",
        cells=((3,), (4,), (5,), (6,)),
        per_cell=1000,
        params=lambda per: {"profile": profile, "per_d": per, "d_values": [3, 4, 5, 6]},
        sample=_sample_bipartite(profile),
        solve=lambda g, b, d: find_cycle_through_X(b, _TRIAL_BUDGET) is not None)


def _covers(b: BipartitionView, t: int, cover: PathCover | None) -> bool:
    return (cover is not None and len(cover.paths) <= t + 1
            and not b.x_mask & ~cover.vertex_mask())


def _random_merge_instance(seed: int, d: int) -> tuple[Graph, PathCover]:
    """Connected graph on at most 2d+1 vertices plus a valid high-end family."""
    rng = random.Random(seed)
    for _ in range(1000):
        n = rng.randint(d + 1, 2 * d + 1)
        p = rng.uniform(0.45, 0.85)
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        g = Graph(n, tuple(rows))
        high = high_degree_vertices(g, d)
        if not high or not is_connected(g):
            continue
        used = 0
        paths: list[PathWitness] = []
        for _ in range(rng.randint(1, 2)):
            starts = [v for v in bits(high) if not used >> v & 1]
            if not starts:
                break
            walk = [rng.choice(starts)]
            used |= 1 << walk[0]
            while rng.random() < 0.6:
                steps = [w for w in bits(g.adj[walk[-1]] & ~used)]
                if not steps:
                    break
                walk.append(rng.choice(steps))
                used |= 1 << walk[-1]
            while not high >> walk[-1] & 1:
                used ^= 1 << walk.pop()
            paths.append(PathWitness(tuple(walk)))
        return g, PathCover(tuple(paths))
    raise RuntimeError(f"merge instance sampling failed (d={d})")


_TRIAL_SUITES = {
    **{profile: _cycle_trials(profile) for profile in ("jackson", "klz", "essential")},
    "lemma35": _TrialSuite(
        claim=("every path-cover-hypothesis instance splits into at most t+1 "
               "disjoint paths covering X"),
        cells=((3, 1), (3, 2), (4, 1), (4, 2)),
        per_cell=500,
        params=lambda per: {"per_cell": per, "cells": [[3, 1], [3, 2], [4, 1], [4, 2]]},
        sample=_sample_bipartite("lemma35"),
        solve=lambda g, b, d, t: _covers(b, t, path_cover_of_X(b, t, _TRIAL_BUDGET))),
    "merge": _TrialSuite(
        claim="every valid family in a small graph merges into one high-end path",
        cells=((3,), (4,), (5,)),
        per_cell=500,
        params=lambda per: {"per_d": per, "d_values": [3, 4, 5]},
        sample=_random_merge_instance,
        solve=lambda g, family, d: (
            merge_high_end_paths(g, d, family, _TRIAL_BUDGET) is not None)),
}


def _run_trial(args: tuple[str, int, tuple[int, ...], int]
               ) -> tuple[str, tuple[int, ...], int, str | None]:
    """One trial of a suite in _TRIAL_SUITES: (outcome, cell, trial index, witness)."""
    suite, seed, cell, i = args
    spec = _TRIAL_SUITES[suite]
    g, instance = spec.sample(derive_seed(seed, *cell, i), *cell)
    try:
        ok = spec.solve(g, instance, *cell)
    except SearchBudgetExceeded:
        return "inconclusive", cell, i, encode_graph6(g)
    except LemmaViolationError:
        ok = False
    return ("ok", cell, i, None) if ok else ("fail", cell, i, encode_graph6(g))


def _suite_trials(suite: str, seed: int, trials: int | None, jobs: int) -> VerificationReport:
    spec = _TRIAL_SUITES[suite]
    per = spec.per_cell if trials is None else trials
    if per < 1:
        raise ValueError(f"trials must be >= 1, got {per}")
    results = _map_cells(_run_trial, [(suite, seed, cell, i)
                                      for cell in spec.cells for i in range(per)], jobs)
    fails = [r for r in results if r[0] == "fail"]
    inconclusive = [r for r in results if r[0] == "inconclusive"]
    counts = {
        "trials": len(results),
        "succeeded": len(results) - len(fails) - len(inconclusive),
        "failed": len(fails),
        "inconclusive": len(inconclusive),
    }
    params = spec.params(per)
    outcome, witness = "pass", None
    if fails or inconclusive:
        outcome, cell, i, witness = (fails or inconclusive)[0]
        # a trial is named by its cell's coordinates (d, then t) and its index
        params["first_failure" if fails else "first_inconclusive"] = {
            **dict(zip(("d", "t"), cell)), "trial": i}
    return VerificationReport(spec.claim, params, outcome, counts, witness=witness)


def _suite_formula_vs_oracle(seed: int, max_n: int | None, jobs: int) -> VerificationReport:
    cap = BRUTEFORCE_DEFAULT_MAX if max_n is None else max_n
    if not 2 <= cap <= ENUMERATION_MAX:
        raise ValueError(f"max-n out of range for formula-vs-oracle (2..{ENUMERATION_MAX})")
    for m in range(2, cap + 1):
        _graph_stats(m, jobs)
    triples = 0
    mismatches: list[tuple[int, int, int, int, int]] = []
    for n in range(2, cap + 1):
        for d in range(1, n):
            for k in range(1, d + 1):
                triples += 1
                bf = phi_bruteforce(n, d, k, max_n=cap)
                closed = phi(PhiParams(n, d, k))
                if bf != closed:
                    mismatches.append((n, d, k, bf, closed))
    witness = None
    params: dict = {"max_n": cap}
    if mismatches:
        n, d, k, bf, closed = mismatches[0]
        witness = _extremal_witness(n, d, k)
        params["first_mismatch"] = {"n": n, "d": d, "k": k, "bruteforce": bf, "formula": closed}
    return VerificationReport(
        "closed-form threshold equals brute force over all admissible (n,d,k)", params,
        "fail" if mismatches else "pass", {"triples": triples, "mismatches": len(mismatches)},
        witness=witness)


def _extremal_witness(n: int, d: int, k: int) -> str:
    """graph6 of the smallest-certificate graph attaining the brute-force maximum."""
    _, cert = max((sum(1 for x in degs if x >= d), -cert)
                  for cert, length, degs in _graph_stats(n) if length <= k)
    return encode_graph6(graph_from_certificate(n, -cert))


def _construction_cell(params: tuple[int, int, int]) -> str | None:
    """graph6 of build_G(n, d, k) if one of its checks fails, else None."""
    spec = CONSTRUCTIONS["G"]
    g = spec.build(*params)
    return None if all(ok for _, ok, _ in spec.checks(params, g)) else encode_graph6(g)


def _suite_construction_invariants(seed: int, max_n: int | None,
                                   jobs: int) -> VerificationReport:
    cap = 60 if max_n is None else max_n
    if cap < 2:
        raise ValueError("max-n out of range for construction-invariants (>= 2)")
    cells = [(n, d, k)
             for k in range(1, 9)
             for d in range(k, 11)
             for n in range(d + 1, cap + 1)]
    witnesses = _map_cells(_construction_cell, cells, jobs)
    fails = [(cell, w) for cell, w in zip(cells, witnesses) if w is not None]
    params: dict = {"max_n": cap}
    witness = None
    if fails:
        (n, d, k), witness = fails[0]
        params["first_failure"] = {"n": n, "d": d, "k": k}
    return VerificationReport(
        "every lower-bound construction has the stated vertex count, "
        "high-degree count, and no path on k+1 vertices", params,
        "fail" if fails else "pass", {"triples": len(cells), "failures": len(fails)},
        witness=witness)


def _suite_theta_psi(seed: int, _size: None, jobs: int) -> VerificationReport:
    checks: list[tuple[str, bool]] = []
    for kind, label, params in (("theta-chain", "chain", (4, 4, 1, 1)),
                                ("theta-chain", "chain", (6, 4, 2, 2)),
                                ("theta-chain", "chain", (4, 5, 2, 1)),
                                ("psi-tree", "tree", (3, 7, 2, 3))):
        spec = CONSTRUCTIONS[kind]
        tag = f"{label}({','.join(map(str, params))})"
        checks += [(f"{tag}: {name}", ok)
                   for name, ok, _ in spec.checks(params, spec.build(*params))]
        # the stated counts against the classical reference bounds
        n, high = spec.counts(*params)
        d, k = params[:2]
        if kind == "psi-tree":
            checks.append((f"{tag}: beats classical count", high > psi_lower_bound(n, d, k) - 1))
        elif d >= k:
            checks.append((f"{tag}: below cycle reference bound",
                           high < theta_upper_bound(n, d, k)))
    failures = [name for name, ok in checks if not ok]
    return VerificationReport(
        "the cycle-threshold chains and the connected-threshold tree have their stated counts",
        {"failed_checks": failures} if failures else {}, "fail" if failures else "pass",
        {"checks": len(checks), "failures": len(failures)})


# suite name -> (suite function, the one size parameter it takes, if any);
# a suite function is called as fn(seed, value of that parameter, jobs)
_SUITES = {
    "formula-vs-oracle": (_suite_formula_vs_oracle, "max_n"),
    "construction-invariants": (_suite_construction_invariants, "max_n"),
    **{suite: (partial(_suite_trials, suite), "trials") for suite in _TRIAL_SUITES},
    "theta-psi": (_suite_theta_psi, None),
}
SUITES = tuple(_SUITES)


def run_suite(suite_id: str, *, seed: int = 0, trials: int | None = None,
              max_n: int | None = None, jobs: int = 1) -> VerificationReport:
    """Execute one verification suite; deterministic given seed."""
    if suite_id not in _SUITES:
        raise ValueError(f"unknown suite: {suite_id}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    fn, takes = _SUITES[suite_id]
    given = {"trials": trials, "max_n": max_n}
    for name, value in given.items():
        if value is not None and name != takes:
            raise ValueError(f"suite {suite_id} takes no {name.replace('_', '-')}")
    start = time.monotonic()
    report = fn(seed, given.get(takes), jobs)
    report.seed = seed
    report.runtime = time.monotonic() - start
    return report
