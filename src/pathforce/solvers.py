"""Exact path and cycle solvers with explicit witnesses.

Every search here is exhaustive: a None result is a refutation, not a
timeout. Running out of budget raises SearchBudgetExceeded instead, so the
three outcomes (witness, refuted, inconclusive) can never be confused.

Searches are deterministic. Vertices are tried in ascending index unless a
documented heuristic order applies, and the first witness found is returned.
Witnesses are re-validated against the host graph before being returned.

The path search keeps a transposition table per component and target. The
subtree below a path prefix depends only on the prefix's vertex set S and
its end u: the children are the neighbors of u off S in ascending order, the
twin test reads adjacency rows alone, and the reach prune runs inside the
component minus S. So when the subtree of a state (S, u) fails, the state is
stored with the number of nodes that subtree used, and a later prefix
reaching the same state adds that count to the meter instead of searching
the subtree again. Budgets count replayed nodes exactly as if they were
searched again, so every node count, budget outcome and witness is that of
the plain search. Only failed subtrees are stored, and a success ends the
search, so a replay never hides a witness. The table stops growing at
_TRANSPOSITION_MAX entries, which bounds its memory on unbudgeted searches.

The reach prune is decided once per component of the free region (the
component minus the path prefix). A child u is searched only if the
neighbors of u in free - u reach enough vertices inside free - u; that reach
is exactly u's component of G[free] minus u, so siblings in one component
share the decision, and one bounded search from u settles all of them. A
child u that passes and has a lone neighbor v off the path hands the
decision down: v's component of G[free - u] is u's minus u. Which children
are searched does not change, so neither do node counts.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from .canonical import certificate_adj
from .graph import (
    BipartitionView,
    CycleWitness,
    MAX_VERTICES,
    Graph,
    PathWitness,
    _reach_mask,
    biconnected_components,
    bits,
    connected_components,
    high_degree_vertices,
    induced_subgraph,
    is_connected,
    mask_of,
)

SUBSET_DP_CAP = 24
_COMPONENT_DEDUP_MAX = 32
_TRANSPOSITION_MAX = 1 << 16


class SearchBudgetExceeded(Exception):
    """Search hit its node or time limit before reaching a conclusion."""

    def __init__(self, message: str, nodes: int):
        super().__init__(message)
        self.nodes = nodes


class HypothesisViolation(ValueError):
    """Input fails the size or connectivity hypothesis the caller requested."""


class LemmaViolationError(RuntimeError):
    """An exhaustive search refuted a guarantee that holds unconditionally
    under checked hypotheses. Firing means a solver bug, not a math fact."""


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a single solver call. None means unlimited."""

    node_limit: int | None = None
    time_limit: float | None = None

    def __post_init__(self) -> None:
        # "not x > 0" rejects NaN, which every comparison with x would ignore
        if self.node_limit is not None and not self.node_limit > 0:
            raise ValueError("node_limit must be positive")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")


class _Meter:
    """Mutable per-call counter enforcing a SearchBudget."""

    __slots__ = ("nodes", "node_limit", "deadline")

    def __init__(self, budget: SearchBudget | None):
        self.nodes = 0
        self.node_limit = budget.node_limit if budget else None
        self.deadline = None
        if budget is not None and budget.time_limit is not None:
            self.deadline = time.monotonic() + budget.time_limit

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise SearchBudgetExceeded(
                f"node limit {self.node_limit} exhausted", self.nodes)
        # time checked every 1024 nodes to keep the hot loop cheap
        if self.deadline is not None and self.nodes & 1023 == 0:
            if time.monotonic() > self.deadline:
                raise SearchBudgetExceeded(
                    f"time limit exhausted after {self.nodes} nodes", self.nodes)

    def skip(self, count: int) -> None:
        """Add count nodes, as count calls to tick() would: past node_limit
        it raises at node_limit + 1, and crossing a multiple of 1024 checks
        the clock."""
        nodes = self.nodes + count
        if self.node_limit is not None and nodes > self.node_limit:
            self.nodes = self.node_limit
            self.tick()
        crossed = nodes >> 10 != self.nodes >> 10
        self.nodes = nodes
        if crossed and self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchBudgetExceeded(
                f"time limit exhausted after {nodes} nodes", nodes)


@dataclass(frozen=True)
class LongestPathResult:
    length: int
    witness: PathWitness | None
    optimal: bool


@dataclass(frozen=True)
class PathCover:
    """Pairwise vertex-disjoint paths, typically covering a required set."""

    paths: tuple[PathWitness, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(self.paths))

    def vertex_mask(self) -> int:
        out = 0
        for p in self.paths:
            out |= mask_of(p.vertices)
        return out

    def validate(self, g: Graph, required: int = 0) -> None:
        seen = 0
        for p in self.paths:
            p.validate(g)
            pm = mask_of(p.vertices)
            if pm & seen:
                raise ValueError("cover paths are not pairwise disjoint")
            seen |= pm
        if required & ~seen:
            missing = next(bits(required & ~seen))
            raise ValueError(f"cover misses required vertex {missing}")


def _path_search_component(g: Graph, comp: int, m: int, meter: _Meter) -> list[int] | None:
    """Exact search for a path on m vertices inside one component, branching
    once per twin class at each node.

    Twins (equal open neighborhoods, or equal closed neighborhoods) are
    swapped by an automorphism fixing everything else, so a search that
    branches on one of them need not branch on the other.

    Each child is ticked and tested in its parent's loop (completion, dead
    end, transposition table, reach prune); only a child that survives every
    test is descended into. Table keys pack (S, u) as the free part of the
    component, shifted, with u in the low bits.

    The reach prune asks whether u's component of G[free] holds more than
    need vertices, since the reach of N(u) in free - u is that component
    minus u. The answer is shared by all siblings in the component: a
    search from u that stops early marks what it saw as passing, and one
    that does not stop has seen u's whole component, which fails. The root's
    candidates all pass (comp is connected and has m vertices or more), and
    so does the lone child v of a passed u, whose component of G[free - u]
    is u's minus u; both are handed to extend as known.
    """
    adj = g.adj
    stack: list[int] = []
    failed: dict[int, int] = {}
    shift = g.n.bit_length()
    tick = meter.tick

    def extend(cand: int, free: int, known: int) -> bool:
        """Try each child in cand; free is the component off the path, and
        known holds candidates already known to pass the reach prune."""
        tried_open: list[int] = []
        tried_closed: list[int] = []
        need = m - 1 - len(stack)  # vertices still wanted below each child
        # vertices whose component of G[free] has more than need vertices
        # (big) or at most need (small), as far as decided so far
        big = known
        small = 0
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            ko = adj[u]
            kc = ko | low
            if ko in tried_open or kc in tried_closed:
                continue
            if cand:  # no later sibling reads the last candidate's entry
                tried_open.append(ko)
                tried_closed.append(kc)
            tick()
            stack.append(u)
            if not need:
                return True
            rest = free ^ low
            cu = ko & rest
            # at need <= 2 no reach prune runs and a subtree has few nodes,
            # so a table entry would cost more than it saves
            if cu and need <= 2:
                if extend(cu, rest, 0):
                    return True
            elif cu:
                key = rest << shift | u
                replay = failed.get(key)
                if replay is not None:
                    meter.skip(replay)
                elif not low & small:
                    if not low & big:
                        # a search that stops early holds more than need
                        # vertices; one that does not stop is u's whole component
                        reach = _reach_mask(adj, low, free, need + 1)
                        if reach.bit_count() > need:
                            big |= reach
                        else:
                            small |= reach
                    if low & big:
                        start = meter.nodes
                        # a lone child's component of G[rest] is u's minus u
                        if extend(cu, rest, 0 if cu & (cu - 1) else cu):
                            return True
                        if len(failed) < _TRANSPOSITION_MAX:
                            failed[key] = meter.nodes - start
            stack.pop()
        return False

    return stack if extend(comp, comp, comp) else None


def _component_classes(g: Graph, min_size: int, meter: _Meter) -> Iterator[int]:
    """Components with at least min_size vertices, ordered by lowest vertex.

    Isomorphic components hold the same paths, so when there is more than
    one, and none exceeds _COMPONENT_DEDUP_MAX vertices, only the first of
    each isomorphism class is yielded. Certificates are computed lazily, as
    the caller asks for the next component. Each certificate search ticks
    the meter, so it stops where the budget left runs out; its nodes are
    given back once it completes, as the dedup only saves search work.
    """
    comps = [c for c in connected_components(g) if c.bit_count() >= min_size]
    comps.sort(key=lambda c: c & -c)
    if len(comps) < 2 or any(c.bit_count() > _COMPONENT_DEDUP_MAX for c in comps):
        yield from comps
        return
    seen: set[tuple[int, int]] = set()
    for comp in comps:
        sub, _ = induced_subgraph(g, comp)
        spent = meter.nodes
        key = (sub.n, certificate_adj(sub.n, sub.adj, meter.tick))
        meter.nodes = spent
        if key not in seen:
            seen.add(key)
            yield comp


def _search_components(g: Graph, comps: Iterable[int], m: int,
                       meter: _Meter) -> PathWitness | None:
    """The first path on m vertices found in comps, searched in order."""
    for comp in comps:
        if comp.bit_count() >= m:
            found = _path_search_component(g, comp, m, meter)
            if found is not None:
                wit = PathWitness(tuple(found))
                wit.validate(g)
                assert len(wit.vertices) == m
                return wit
    return None


def contains_path(g: Graph, m: int, budget: SearchBudget | None = None) -> PathWitness | None:
    """Witness for a path on exactly m vertices, or None after exhaustion."""
    if m < 1:
        raise ValueError("target path vertex count must be >= 1")
    if m > g.n:
        return None
    if m == 1:
        wit = PathWitness((0,))
        wit.validate(g)
        return wit
    meter = _Meter(budget)
    return _search_components(g, _component_classes(g, m, meter), m, meter)


def _path_table(adj: tuple[int, ...] | list[int], tick: Callable[[], None] | None = None
                ) -> tuple[dict[int, int], dict[int, int], bool]:
    """(table, top, complete): the Held-Karp subset table (Held & Karp 1962).

    table maps each vertex set S that a path covers exactly (so S lies in one
    component) to the bitmask of that path's possible ends, grown in layers
    of subset size: u off S ends a path covering S + u iff u is adjacent to
    an end for S. top is the last complete non-empty layer. tick runs once
    per (set, end) state expanded; when it raises SearchBudgetExceeded, the
    table holds the complete layers only and complete is false.
    """
    table = {1 << v: 1 << v for v in range(len(adj))}
    layer = top = dict(table)
    try:
        while layer:
            grown: dict[int, int] = {}
            for s, ends in layer.items():
                free = 0  # neighbours of the ends, off S
                while ends:
                    low = ends & -ends
                    ends ^= low
                    if tick is not None:
                        tick()
                    free |= adj[low.bit_length() - 1]
                free &= ~s
                while free:
                    u = free & -free
                    free ^= u
                    key = s | u
                    grown[key] = grown.get(key, 0) | u
            if grown:
                table.update(grown)
                top = grown
            layer = grown
    except SearchBudgetExceeded:
        return table, top, False
    return table, top, True


def _longest_path_dp(g: Graph, meter: _Meter) -> tuple[list[int], bool]:
    """Longest path rebuilt from the subset table, and whether it is optimal.

    The meter ticks once per (subset, end) state of _path_table; when it runs
    out, the path is rebuilt from the last complete layer and is not optimal.
    """
    adj = g.adj
    table, top, optimal = _path_table(adj, meter.tick)
    mask = min(top)
    e = (top[mask] & -top[mask]).bit_length() - 1
    path = [e]
    while mask.bit_count() > 1:
        mask ^= 1 << e
        prev_ends = table[mask] & adj[e]
        e = (prev_ends & -prev_ends).bit_length() - 1
        path.append(e)
    path.reverse()
    return path, optimal


def longest_path(g: Graph, budget: SearchBudget | None = None,
                 engine: str = "dfs") -> LongestPathResult:
    """Maximum path vertex count with witness.

    The "dfs" engine deepens a path search over the components of
    _component_classes one target length at a time. "dp" is the exact subset
    DP (n capped at SUBSET_DP_CAP), kept as an independent reference. Both
    are exact when the budget allows and return a lower bound marked
    non-optimal otherwise.
    """
    if engine not in ("dfs", "dp"):
        raise ValueError(f"unknown engine: {engine}")
    if g.n == 0:
        return LongestPathResult(0, None, True)
    meter = _Meter(budget)
    if engine == "dp":
        if g.n > SUBSET_DP_CAP:
            raise ValueError(f"dp engine limited to n <= {SUBSET_DP_CAP}")
        verts, optimal = _longest_path_dp(g, meter)
        wit = PathWitness(tuple(verts))
        wit.validate(g)
        return LongestPathResult(len(verts), wit, optimal)
    best = PathWitness((0,))
    try:
        comps = list(_component_classes(g, 2, meter))
        for m in range(2, g.n + 1):
            found = _search_components(g, comps, m, meter)
            if found is None:
                break
            best = found
    except SearchBudgetExceeded:
        return LongestPathResult(len(best.vertices), best, False)
    return LongestPathResult(len(best.vertices), best, True)


def _block_longest_cycle(sub: Graph, meter: _Meter, floor: int) -> tuple[int, list[int] | None]:
    """Longest cycle in a 2-connected block, if longer than floor."""
    n = sub.n
    adj = sub.adj
    best_len = floor
    best: list[int] | None = None
    stack: list[int] = []

    def dfs(v: int, visited: int, allowed: int, s: int) -> None:
        nonlocal best_len, best
        meter.tick()
        free = allowed & ~visited
        if len(stack) + free.bit_count() <= best_len:
            return
        rest = adj[v] & free
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            stack.append(u)
            if len(stack) >= 3 and adj[u] >> s & 1 and stack[1] < u \
                    and len(stack) > best_len:
                best_len = len(stack)
                best = stack.copy()
            dfs(u, visited | low, allowed, s)
            stack.pop()

    full = (1 << n) - 1
    for s in range(n):
        if n - s <= best_len:
            break
        allowed = full & ~((1 << s) - 1)
        stack.append(s)
        dfs(s, 1 << s, allowed, s)
        stack.pop()
    return best_len, best


def longest_cycle(g: Graph, budget: SearchBudget | None = None) -> tuple[int, CycleWitness | None]:
    """Exact circumference with witness; (0, None) for forests.

    Every cycle lives inside one biconnected block, so blocks are searched
    independently.
    """
    meter = _Meter(budget)
    best_len = 0
    best: CycleWitness | None = None
    blocks = [b for b in biconnected_components(g) if b.bit_count() >= 3]
    blocks.sort(key=lambda b: b & -b)
    for bmask in blocks:
        if bmask.bit_count() <= best_len:
            continue
        sub, ids = induced_subgraph(g, bmask)
        length, local = _block_longest_cycle(sub, meter, best_len)
        if local is not None and length > best_len:
            best_len = length
            best = CycleWitness(tuple(ids[v] for v in local))
    if best is not None:
        best.validate(g)
    return best_len, best


def find_cycle_through_X(b: BipartitionView, budget: SearchBudget | None = None) -> CycleWitness | None:
    """Cycle containing every X-vertex, or None after exhaustive refutation.

    Bipartite cycles alternate sides, so a cycle through all of X has exactly
    |X| vertices per side: an X-ordering interleaved with distinct Y
    connectors. X is branched in ascending-degree order (most constrained
    first); connectors in ascending index.
    """
    g = b.graph
    adj = g.adj
    xs = sorted(bits(b.x_mask), key=lambda v: (g.degree(v), v))
    if len(xs) < 2:
        raise ValueError("X must contain at least 2 vertices")
    meter = _Meter(budget)
    x0 = xs[0]
    y_all = b.y_mask
    seq: list[int] = [x0]

    def dfs(cur: int, rem: int, used_y: int) -> bool:
        meter.tick()
        avail = y_all & ~used_y
        if rem == 0:
            close = adj[cur] & adj[x0] & avail
            if close:
                seq.append((close & -close).bit_length() - 1)
                return True
            return False
        union = adj[cur] | adj[x0]
        for r in bits(rem):
            if (adj[r] & avail).bit_count() < 2:
                return False
            union |= adj[r]
        if (union & avail).bit_count() < rem.bit_count() + 1:
            return False
        if not adj[cur] & avail or not adj[x0] & avail:
            return False
        for nx in xs:
            if not rem >> nx & 1:
                continue
            for y in bits(adj[cur] & adj[nx] & avail):
                seq.append(y)
                seq.append(nx)
                if dfs(nx, rem ^ 1 << nx, used_y | 1 << y):
                    return True
                seq.pop()
                seq.pop()
        return False

    if dfs(x0, mask_of(xs[1:]), 0):
        wit = CycleWitness(tuple(seq))
        wit.validate(g, bipartite=True)
        assert b.x_mask & ~mask_of(seq) == 0
        return wit
    return None


def _without_isolated_y(b: BipartitionView) -> tuple[Graph, list[int], int]:
    """The graph minus its isolated Y-vertices, which lie on no path through
    X: the subgraph, its labels' original vertices, and X in its labels."""
    g = b.graph
    iso = mask_of(y for y in bits(b.y_mask) if not g.adj[y])
    sub, ids = induced_subgraph(g, g.vertex_mask() & ~iso)
    return sub, ids, mask_of(i for i, orig in enumerate(ids) if b.x_mask >> orig & 1)


def find_path_through_X(b: BipartitionView, mode: str,
                        budget: SearchBudget | None = None,
                        require_hypothesis: bool = True) -> PathWitness | None:
    """Path containing every X-vertex, by apex reduction to a cycle search.

    Modes name the hypothesis profile that guarantees existence:
      jackson    |X| <= d+1 and |Y| <= 2d-1
      essential  connected and |X| <= d and |Y| <= 3d-3
    with d the minimum X-degree. Under a satisfied profile an exhaustive miss
    raises LemmaViolationError. With require_hypothesis=False a violating
    instance is searched anyway and may honestly return None. Isolated
    Y-vertices are deleted before the apex is added.
    """
    if mode not in ("jackson", "essential"):
        raise ValueError(f"unknown mode: {mode}")
    g = b.graph
    xs = list(bits(b.x_mask))
    if not xs:
        raise ValueError("X must be non-empty")
    d = b.min_x_degree()
    nx = len(xs)
    ny = b.y_mask.bit_count()
    if mode == "jackson":
        ok = nx <= d + 1 and ny <= 2 * d - 1
    else:
        ok = is_connected(g) and nx <= d and ny <= 3 * d - 3
    if not ok and require_hypothesis:
        raise HypothesisViolation(
            f"{mode} hypothesis violated: |X|={nx}, |Y|={ny}, min X-degree {d}"
            + ("" if mode == "jackson" or is_connected(g) else ", graph disconnected"))
    if nx == 1:
        wit = PathWitness((xs[0],))
        wit.validate(g)
        return wit
    sub, ids, x_local = _without_isolated_y(b)
    if sub.n >= MAX_VERTICES:
        raise ValueError(f"n={sub.n} too large: the apex reduction needs n <= {MAX_VERTICES - 1}")
    apex = sub.n
    aug = Graph(sub.n + 1, tuple(row | 1 << apex if x_local >> v & 1 else row
                                 for v, row in enumerate(sub.adj)) + (x_local,))
    cyc = find_cycle_through_X(BipartitionView(aug, x_local, aug.vertex_mask() & ~x_local), budget)
    if cyc is None:
        if ok:
            raise LemmaViolationError(
                f"{mode} path guarantee failed on a hypothesis-satisfying "
                "instance (exhaustive search)")
        return None
    verts = list(cyc.vertices)
    if apex in verts:
        i = verts.index(apex)
        verts = verts[i + 1:] + verts[:i]
    # otherwise the cycle avoids the apex: cut its closing edge
    path = [ids[v] for v in verts]
    wit = PathWitness(tuple(path))
    wit.validate(g)
    assert b.x_mask & ~mask_of(path) == 0
    return wit


def path_cover_of_X(b: BipartitionView, t: int,
                    budget: SearchBudget | None = None,
                    require_hypothesis: bool = True) -> PathCover | None:
    """At most t+1 disjoint paths jointly containing X.

    Hypothesis (guaranteeing existence): |X| <= d+t and |Y| <= 3d+2t-3 with d
    the minimum X-degree. Isolated Y-vertices are deleted and t+1 apexes
    joined to all of X are added, which puts the graph in the essential window
    (connected, |X| <= d+t = min X-degree, |Y| <= 3(d+t)-3). A cycle through X
    there, read from just after the last apex and split at the others, is the
    cover.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    g = b.graph
    if not b.x_mask:
        raise ValueError("X must be non-empty")
    d = b.min_x_degree()
    nx = b.x_mask.bit_count()
    ny = b.y_mask.bit_count()
    ok = nx <= d + t and ny <= 3 * d + 2 * t - 3
    if not ok and require_hypothesis:
        raise HypothesisViolation(
            f"path cover hypothesis violated: |X|={nx} vs d+t={d + t}, "
            f"|Y|={ny} vs 3d+2t-3={3 * d + 2 * t - 3}")
    if nx == 1:
        return PathCover((PathWitness((b.x_mask.bit_length() - 1,)),))
    sub, ids, x_local = _without_isolated_y(b)
    if sub.n + t + 1 > MAX_VERTICES:
        raise ValueError(f"t={t} too large: the largest allowed t is {MAX_VERTICES - 1 - sub.n}")
    apexes = ((1 << t + 1) - 1) << sub.n
    aug = Graph(sub.n + t + 1, tuple(row | apexes if x_local >> v & 1 else row
                                     for v, row in enumerate(sub.adj)) + (x_local,) * (t + 1))
    cyc = find_cycle_through_X(BipartitionView(aug, x_local, aug.vertex_mask() & ~x_local), budget)
    if cyc is None:
        if ok:
            raise LemmaViolationError(
                "essential path guarantee failed on a hypothesis-satisfying "
                "instance (exhaustive search)")
        return None
    verts = list(cyc.vertices)
    if sub.n + t in verts:
        i = verts.index(sub.n + t)
        verts = verts[i + 1:] + verts[:i]
    paths, seg = [], []
    for v in verts + [sub.n]:  # an apex at the end closes the last segment
        if v < sub.n:
            seg.append(ids[v])
        elif seg:
            # trim to X end-vertices; every segment contains an X-vertex
            ends = [i for i, u in enumerate(seg) if b.x_mask >> u & 1]
            paths.append(PathWitness(tuple(seg[ends[0]:ends[-1] + 1])))
            seg = []
    cover = PathCover(tuple(paths))
    cover.validate(g, required=b.x_mask)
    assert len(cover.paths) <= t + 1
    return cover


def merge_high_end_paths(g: Graph, d: int, family: PathCover,
                         budget: SearchBudget | None = None) -> PathWitness:
    """Single path with high-degree ends containing every family vertex.

    Requires |V(g)| <= 2d+1 and a non-empty family of disjoint paths whose
    end-vertices all have degree >= d. Existence is unconditional under these
    hypotheses, so exhaustive failure raises LemmaViolationError.
    """
    if g.n > 2 * d + 1:
        raise HypothesisViolation(f"graph has {g.n} > 2d+1 = {2 * d + 1} vertices")
    if not family.paths:
        raise ValueError("family must contain at least one path")
    high = high_degree_vertices(g, d)
    required = 0
    for p in family.paths:
        p.validate(g)
        pm = mask_of(p.vertices)
        if pm & required:
            raise ValueError("family paths are not pairwise disjoint")
        required |= pm
        for e in (p.vertices[0], p.vertices[-1]):
            if not high >> e & 1:
                raise HypothesisViolation(
                    f"path end {e} has degree {g.degree(e)} < d={d}")
    meter = _Meter(budget)
    adj = g.adj
    full = g.vertex_mask()
    stack: list[int] = []

    def dfs(v: int, visited: int) -> bool:
        meter.tick()
        stack.append(v)
        visited |= 1 << v
        rem = required & ~visited
        if not rem and high >> v & 1:
            return True
        reach = _reach_mask(adj, adj[v] & ~visited, full & ~visited)
        if rem & ~reach or (not rem and not reach & high):
            stack.pop()
            return False
        for u in bits(adj[v] & ~visited):
            if dfs(u, visited):
                return True
        stack.pop()
        return False

    for s in bits(high):
        if dfs(s, 0):
            wit = PathWitness(tuple(stack))
            wit.validate(g)
            assert required & ~mask_of(stack) == 0
            assert high >> stack[0] & 1 and high >> stack[-1] & 1
            return wit
    raise LemmaViolationError(
        "high-end merge guarantee failed (exhaustive search)")
