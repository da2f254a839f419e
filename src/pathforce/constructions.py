"""Extremal and near-extremal constructions.

Labeling conventions, fixed so that emitted graphs are reproducible:
clique vertices come first within each block; a block precedes any set
appended to it; disjoint unions concatenate summands in definition order;
trailing isolated vertices take the highest labels.
"""

from __future__ import annotations

from .formulas import PhiParams, phi, psi_tree_counts, theta_chain_formula
from .graph import BipartitionView, Graph, build_graph, mask_of


def _clique_join_edges(clique: list[int], rest: list[int]) -> list[tuple[int, int]]:
    edges = [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    edges += [(a, b) for a in clique for b in rest]
    return edges


def build_H(d: int, k: int) -> Graph:
    """Clique on floor((k-1)/2) vertices joined to an independent set; d+1
    vertices total. Clique vertices have degree d, the rest floor((k-1)/2).

    Accepts any d >= 1, k >= 1 with floor((k-1)/2) <= d, which covers the
    block shapes the chained constructions instantiate.
    """
    if d < 1 or k < 1:
        raise ValueError(f"parameter domain violated: d={d}, k={k}")
    c = (k - 1) // 2
    if c > d:
        raise ValueError(f"parameter domain violated: clique size {c} exceeds d={d}")
    return build_graph(d + 1, _clique_join_edges(list(range(c)), list(range(c, d + 1))))


def build_H_star(d: int, k: int) -> Graph:
    """For even k: build_H(d, k) with a fresh independent set of d+1-k/2
    vertices joined to its lowest-indexed non-clique vertex.

    2d+2-k/2 vertices; exactly k/2 of them reach degree d.
    """
    if k % 2 != 0 or k < 4:
        raise ValueError(f"parameter domain violated: k={k} must be even and >= 4")
    if d < k:
        raise ValueError(f"parameter domain violated: d={d} < k={k}")
    c = (k - 1) // 2  # equals k/2 - 1 for even k; also the attachment vertex
    base = build_H(d, k)
    extra = list(range(d + 1, 2 * d + 2 - k // 2))
    edges = base.edges() + [(c, w) for w in extra]
    return build_graph(2 * d + 2 - k // 2, edges)


def _concat(parts: list[Graph], isolated: int) -> Graph:
    """Disjoint union in order, plus trailing isolated vertices."""
    edges: list[tuple[int, int]] = []
    offset = 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n
    return build_graph(offset + isolated, edges)


def build_G(n: int, d: int, k: int) -> Graph:
    """The extremal example on n vertices: phi(n,d,k)-1 vertices of degree
    >= d and no path on k+1 vertices."""
    PhiParams(n, d, k)
    if k <= 2:
        return _concat([], n)
    if k == 4:
        q, r = divmod(n, 2 * d)
        parts = [build_H_star(d, 4)] * q
        if r <= d:
            return _concat(parts, r)
        # a star accounts for one more high-degree vertex; d < r < 2d
        return _concat(parts + [build_H(d, 4)], r - d - 1)
    if k % 2 == 1:
        q, r = divmod(n, d + 1)
        return _concat([build_H(d, k)] * q, r)
    # even k >= 6
    q, r = divmod(n, d + 1)
    if r <= d - k // 2:
        return _concat([build_H(d, k)] * q, r)
    return _concat([build_H(d, k)] * (q - 1) + [build_H_star(d, k)], r - d + k // 2 - 1)


def expected_high_count(n: int, d: int, k: int) -> int:
    """High-degree count that build_G is designed to hit: phi - 1."""
    return phi(PhiParams(n, d, k)) - 1


def build_theta_chain(d: int, k: int, alpha: int, beta: int) -> Graph:
    """Chain of 1 + alpha*beta blocks, each a copy of build_H(d, k+1), glued
    at low-degree vertices: block 0 carries a distinguished low vertex; each
    of the beta groups merges one low vertex from alpha fresh blocks into the
    previous group's distinguished vertex.

    Total 1 + d + alpha*beta*d vertices, (1 + alpha*beta)*floor(k/2) + beta
    of degree >= d, and every cycle confined to a single block (so
    circumference <= k for k >= 2).

    Domain: k >= 2, alpha, beta >= 1, floor(k/2) < d <= (1+alpha)*floor(k/2).
    The upper constraint keeps every merge vertex at degree >= d; the exact
    parameterization used by theta_chain_counts satisfies it with equality.
    """
    if k < 2 or alpha < 1 or beta < 1:
        raise ValueError(f"parameter domain violated: k={k}, alpha={alpha}, beta={beta}")
    c = k // 2  # clique size of each block
    if d <= c:
        raise ValueError(f"parameter domain violated: d={d} <= floor(k/2)={c}")
    if (1 + alpha) * c < d:
        raise ValueError(
            f"parameter domain violated: merge degree {(1 + alpha) * c} below d={d}"
        )
    edges: list[tuple[int, int]] = []
    nxt = 0

    def alloc(count: int) -> list[int]:
        nonlocal nxt
        out = list(range(nxt, nxt + count))
        nxt += count
        return out

    clique0 = alloc(c)
    low0 = alloc(d + 1 - c)
    edges += _clique_join_edges(clique0, low0)
    attach = low0[0]
    for _ in range(beta):
        next_attach = None
        for _ in range(alpha):
            clique = alloc(c)
            low = alloc(d - c)
            edges += _clique_join_edges(clique, low + [attach])
            if next_attach is None:
                next_attach = low[0]
        attach = next_attach
    g = build_graph(nxt, edges)
    assert g.n == theta_chain_formula(d, k, alpha, beta)[0]
    return g


def build_psi_tree(d: int, k: int, alpha: int, beta: int) -> Graph:
    """Star with beta leaves where each leaf is the merge point of alpha
    blocks, each block a clique on floor((k-3)/4) vertices joined to an
    independent set of size d+1-floor((k-3)/4) (one member being the leaf).

    Connected, 1 + beta*(1 + alpha*d) vertices,
    alpha*beta*floor((k-3)/4) + beta + 1 of degree >= d, and no path on
    k+1 vertices. Domain as psi_tree_counts (k >= 7, alpha >= 2, beta >= d,
    d = 1 + alpha*floor((k-3)/4)).
    """
    n, _ = psi_tree_counts(d, k, alpha, beta)
    c = (k - 3) // 4
    edges: list[tuple[int, int]] = []
    # center 0, leaves 1..beta
    edges += [(0, i) for i in range(1, beta + 1)]
    nxt = beta + 1
    for leaf in range(1, beta + 1):
        for _ in range(alpha):
            clique = list(range(nxt, nxt + c))
            nxt += c
            low = list(range(nxt, nxt + d - c))
            nxt += d - c
            edges += _clique_join_edges(clique, low + [leaf])
    g = build_graph(nxt, edges)
    assert g.n == n
    return g


def build_essential_counterexample(d: int, pendants: list[int] | None = None) -> BipartitionView:
    """Complete bipartite core with sides of size d (call it X) and d-1, plus
    at least one pendant vertex hanging from every X-vertex.

    The result is essentially 2-connected, every X-vertex has degree >= d,
    |Y| >= 2d-1, and no cycle passes through all of X (any cycle alternates
    between X and the d-1 core vertices on the other side).

    Requires d >= 3: a smaller core is a path, which is not 2-connected.
    """
    if d < 3:
        raise ValueError(f"parameter domain violated: d={d} < 3")
    if pendants is None:
        pendants = [1] * d
    if len(pendants) != d or any(p < 1 for p in pendants):
        raise ValueError("parameter domain violated: need one pendant count >= 1 per X-vertex")
    xs = list(range(d))
    core_ys = list(range(d, 2 * d - 1))
    edges = [(x, y) for x in xs for y in core_ys]
    nxt = 2 * d - 1
    for x, count in zip(xs, pendants):
        edges += [(x, nxt + i) for i in range(count)]
        nxt += count
    g = build_graph(nxt, edges)
    return BipartitionView(g, mask_of(xs), g.vertex_mask() & ~mask_of(xs))
