"""Canonical forms for small graphs.

The certificate of a graph is the smallest integer packing of the upper
triangle of its adjacency matrix over a label-independent family of vertex
orderings. The family is defined by the search below (orderings compatible
with equitable refinement), so the minimum is a complete invariant: equal
certificate at equal n holds exactly for isomorphic graphs. It is not in
general the minimum over all n! orderings.

The search refines an ordered partition to equitability, individualizes
inside the first non-singleton cell, and prunes branches whose partial packing
already exceeds the best completed one. Cells whose members are mutual twins
(equal rows off the cell, uniformly empty or complete inside it) are
interchangeable under automorphisms, so only one member is branched on.

refine splits every cell by its vertices' neighbour counts in a splitter
popped from a queue; the root queues the whole vertex set. A child that
individualizes v in cell C of its parent's equitable partition queues only
{v} and C - v, remainder first: each of its cells lies inside a parent cell,
on which counts against any parent cell are uniform, so an old cell never
splits anything. Refinement stops once the partition is discrete.

certificate_bruteforce is an independent reference invariant (true minimum
over all orderings, n <= 8). The two invariants differ as numbers but induce
the same equivalence, which is what tests cross-check.
"""

from __future__ import annotations

from collections.abc import Callable

from .graph import Graph, bits

CANONICAL_MAX = 64


def pack_by_order(adj: tuple[int, ...] | list[int], order: list[int]) -> int:
    """Upper-triangle bits of the graph relabeled by order, column-major,
    packed most significant first."""
    cert = 0
    for j in range(1, len(order)):
        vj = order[j]
        row = 0
        avj = adj[vj]
        for i in range(j):
            row = (row << 1) | (avj >> order[i] & 1)
        cert = (cert << j) | row
    return cert


def certificate_adj(n: int, adj: tuple[int, ...] | list[int],
                    tick: Callable[[], None] | None = None) -> int:
    """Canonical certificate for an adjacency-row tuple (internal fast path).

    tick, if given, is called once per search node, so a caller's budget can
    stop the search by raising from it.
    """
    if n > CANONICAL_MAX:
        raise ValueError(f"canonical form limited to n <= {CANONICAL_MAX}")
    if n <= 1:
        return 0
    nbits = n * (n - 1) // 2

    def refine(cells: list[int], queue: list[int]) -> list[int]:
        while queue and len(cells) < n:
            splitter = queue.pop()
            touched = 0
            rest = splitter
            while rest:
                low = rest & -rest
                touched |= adj[low.bit_length() - 1]
                rest ^= low
            out: list[int] = []
            for cell in cells:
                if cell.bit_count() <= 1 or not cell & touched:
                    out.append(cell)
                    continue
                groups: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    cnt = (adj[low.bit_length() - 1] & splitter).bit_count()
                    groups[cnt] = groups.get(cnt, 0) | low
                    rest ^= low
                if len(groups) == 1:
                    out.append(cell)
                else:
                    for cnt in sorted(groups):
                        out.append(groups[cnt])
                        queue.append(groups[cnt])
            cells = out
        return cells

    def is_twin_cell(cell: int) -> bool:
        vs = list(bits(cell))
        first = vs[0]
        outside = adj[first] & ~cell
        inside = (adj[first] & cell).bit_count()
        if inside not in (0, len(vs) - 1):
            return False
        for v in vs[1:]:
            if adj[v] & ~cell != outside or (adj[v] & cell).bit_count() != inside:
                return False
        return True

    best: int | None = None

    # Invariant: cells[0:len(order)] are the placed singletons in placement
    # order; refine never splits singletons, so the prefix is stable.
    def search(cells: list[int], queue: list[int], order: list[int], partial: int,
               done_bits: int) -> None:
        nonlocal best
        if tick is not None:
            tick()
        cells = refine(cells, queue)
        idx = len(order)
        appended = 0
        pruned = False
        while idx < len(cells) and cells[idx].bit_count() == 1:
            v = cells[idx].bit_length() - 1
            row = 0
            av = adj[v]
            for i in range(idx):
                row = (row << 1) | (av >> (cells[i].bit_length() - 1) & 1)
            partial = (partial << idx) | row
            done_bits += idx
            if best is not None and partial > (best >> (nbits - done_bits)):
                pruned = True
                break
            order.append(v)
            appended += 1
            idx += 1
        if not pruned:
            if idx == len(cells):
                if best is None or partial < best:
                    best = partial
            else:
                cell = cells[idx]
                candidates = list(bits(cell))
                if is_twin_cell(cell):
                    candidates = candidates[:1]
                head = cells[:idx]
                tail = cells[idx + 1:]
                for v in candidates:
                    pair = [1 << v, cell ^ 1 << v]
                    search(head + pair + tail, pair, order, partial, done_bits)
        if appended:
            del order[-appended:]

    search([(1 << n) - 1], [(1 << n) - 1], [], 0, 0)
    assert best is not None
    return best


def canonical_certificate(g: Graph) -> int:
    return certificate_adj(g.n, g.adj)


def certificate_bruteforce(g: Graph) -> int:
    """Minimum packing over all n! orderings. Reference oracle, n <= 8.

    A second complete invariant, independent of canonical_certificate. The
    two agree as equivalence relations, not as numbers. Column j of a packing
    depends only on the first j+1 vertices, and earlier columns weigh more, so
    of the ordering prefixes reaching the smallest packing so far only the
    extensions by a vertex with the smallest next column can lead to the minimum.
    """
    if g.n > 8:
        raise ValueError("bruteforce certificate limited to n <= 8")
    if g.n <= 1:
        return 0
    prefixes = [[v] for v in range(g.n)]
    cert = 0
    for j in range(1, g.n):
        by_row: dict[int, list[list[int]]] = {}
        for prefix in prefixes:
            for v in set(range(g.n)).difference(prefix):
                row = 0
                for u in prefix:
                    row = (row << 1) | (g.adj[v] >> u & 1)
                by_row.setdefault(row, []).append(prefix + [v])
        row = min(by_row)
        cert = (cert << j) | row
        prefixes = by_row[row]
    return cert


def graph_from_certificate(n: int, cert: int) -> Graph:
    """Rebuild the canonical representative encoded by a certificate."""
    rows = [0] * n
    for j in range(n - 1, 0, -1):
        row = cert & ((1 << j) - 1)
        cert >>= j
        for i in range(j):
            if row >> (j - 1 - i) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n:
        return False
    if sorted(g1.degree_sequence()) != sorted(g2.degree_sequence()):
        return False
    return canonical_certificate(g1) == canonical_certificate(g2)
