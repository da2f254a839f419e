"""Canonical forms for small graphs.

The certificate of a graph is the smallest integer packing of the upper
triangle of its adjacency matrix over a label-independent family of vertex
orderings. The family is defined by the search below (orderings compatible
with equitable refinement), so the minimum is a complete invariant: equal
certificate at equal n holds exactly for isomorphic graphs. It is not in
general the minimum over all n! orderings.

The search refines an ordered partition to equitability, individualizes
inside the first non-singleton cell, and prunes branches whose partial packing
already exceeds the best completed one.

The search also records automorphisms (McKay & Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 60 (2014)). A leaf whose packing ties
the best one gives the automorphism mapping the best ordering onto the tied
one. A cell whose members are mutual twins (equal rows off the cell,
uniformly empty or complete inside it) gives the swaps of its consecutive
members; they make the cell one orbit, so only its first member is branched
on. Elsewhere the search branches on one candidate per orbit of the group
generated by the recorded automorphisms that fix the placed prefix
pointwise. Such an automorphism fixes every individualized vertex, so it
maps the node's refined partition onto itself, and the subtree below a
skipped candidate onto the subtree below a tried one, leaf by leaf, with
equal packings. Pruned subtrees are images of explored ones, so the minimum,
and with it every certificate, stays the same.

canonical_labeling returns the three results of one search: the
certificate, the recorded generators and the best ordering. Input vertex
order[i] gets canonical label i, so pack_by_order(adj, order) is the
certificate and graph_from_certificate(n, cert) is the input relabelled by
order. Each generator is a tuple of vertex images and an automorphism of the
input as labelled; together they generate a subgroup of its automorphism
group (all of it on every graph with n <= 5, as a test checks), not always
all of it. certificate_adj returns the certificate alone.

A certificate is the upper-triangle bit string of graph6 read as a binary
number, so pack_by_order and graph_from_certificate use the codec in graph.
The search packs its prefixes inline instead: it extends them one column at
a time and prunes on them.

refine splits every cell by its vertices' neighbour counts in a splitter
popped from a queue; the root queues the whole vertex set. A child that
individualizes v in cell C of its parent's equitable partition queues only
{v} and C - v, remainder first: each of its cells lies inside a parent cell,
on which counts against any parent cell are uniform, so an old cell never
splits anything. Refinement stops once the partition is discrete. A splitter
of one or two vertices a, b (most of those popped) splits a cell with row
masks alone, into its vertices adjacent to neither, to exactly one and to
both, in that order of count; larger splitters count per vertex.

certificate_bruteforce is an independent reference invariant (true minimum
over all orderings, n <= 8). The two invariants differ as numbers but induce
the same equivalence, which is what tests cross-check.
"""

from __future__ import annotations

from collections.abc import Callable

from .graph import Graph, _upper_bits, _upper_rows, bits

CANONICAL_MAX = 64


def pack_by_order(adj: tuple[int, ...] | list[int], order: list[int]) -> int:
    """Upper-triangle bits of the graph relabeled by order, column-major,
    packed most significant first."""
    rows = [sum(1 << i for i, u in enumerate(order) if adj[v] >> u & 1) for v in order]
    return int("0" + _upper_bits(rows), 2)


def canonical_labeling(n: int, adj: tuple[int, ...] | list[int],
                       tick: Callable[[], None] | None = None
                       ) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """One certificate search: the certificate, the automorphism generators
    it recorded, and the best ordering (input vertex order[i] gets canonical
    label i).

    tick, if given, is called once per search node, so a caller's budget can
    stop the search by raising from it.
    """
    if n > CANONICAL_MAX:
        raise ValueError(f"canonical form limited to n <= {CANONICAL_MAX}")
    if n <= 1:
        return 0, [], list(range(n))
    nbits = n * (n - 1) // 2

    def refine(cells: list[int], queue: list[int]) -> list[int]:
        while queue and len(cells) < n:
            splitter = queue.pop()
            out: list[int] = []
            if splitter.bit_count() <= 2:
                # one or two vertices a, b: split by row masks, counts 0, 1, 2
                ra = adj[splitter.bit_length() - 1]
                rb = adj[(splitter & -splitter).bit_length() - 1]
                one, two = ra ^ rb, ra & rb
                for cell in cells:
                    b, c = cell & one, cell & two
                    if b == cell or c == cell or not b | c:  # all in one part
                        out.append(cell)
                        continue
                    parts = [p for p in (cell ^ b ^ c, b, c) if p]
                    out += parts
                    queue += parts
                cells = out
                continue
            touched = 0
            rest = splitter
            while rest:
                low = rest & -rest
                touched |= adj[low.bit_length() - 1]
                rest ^= low
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
        # twins: equal rows off the cell, and the cell empty or complete
        # inside, so each row with its own bit added matches the first's
        first = adj[(cell & -cell).bit_length() - 1]
        base = first & ~cell | (cell if first & cell else 0)
        rest = cell
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] | low != base | low:
                return False
            rest ^= low
        return True

    # generators as (image tuple, mask of moved vertices)
    gens: list[tuple[tuple[int, ...], int]] = []
    swapped: set[int] = set()

    def closure(mask: int, live: list[tuple[tuple[int, ...], int]]) -> int:
        """Union of the orbits of mask's vertices under the group of live."""
        out = frontier = mask
        while frontier:
            grow = 0
            for perm, moved in live:
                rest = frontier & moved
                while rest:
                    low = rest & -rest
                    grow |= 1 << perm[low.bit_length() - 1]
                    rest ^= low
            frontier = grow & ~out
            out |= frontier
        return out

    best: int | None = None
    best_order: list[int] = []

    # Invariant: cells[0:len(order)] are the placed singletons in placement
    # order; refine never splits singletons, so the prefix is stable.
    def search(cells: list[int], queue: list[int], order: list[int], partial: int,
               done_bits: int) -> None:
        nonlocal best, best_order
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
            for u in order:
                row = (row << 1) | (av >> u & 1)
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
                    best, best_order = partial, order[:]
                elif partial == best:
                    image = list(range(n))
                    moved = 0
                    for u, w in zip(best_order, order):
                        if u != w:
                            image[u] = w
                            moved |= 1 << u
                    gens.append((tuple(image), moved))
            else:
                cell = cells[idx]
                head = cells[:idx]
                tail = cells[idx + 1:]
                twin = is_twin_cell(cell)
                if twin:
                    low = cell & -cell
                    rest = cell ^ low
                    while rest:  # swap consecutive members
                        high = rest & -rest
                        rest ^= high
                        if low | high not in swapped:
                            swapped.add(low | high)
                            a, b = low.bit_length() - 1, high.bit_length() - 1
                            image = list(range(n))
                            image[a], image[b] = b, a
                            gens.append((tuple(image), low | high))
                        low = high
                placed = sum(head)
                tried = 0
                for v in bits(cell):
                    if tried:
                        if twin:
                            break  # the swaps make the cell one orbit
                        if gens and closure(
                                tried, [g for g in gens if not g[1] & placed]) >> v & 1:
                            continue
                    pair = [1 << v, cell ^ 1 << v]
                    search(head + pair + tail, pair, order, partial, done_bits)
                    tried |= 1 << v
        if appended:
            del order[-appended:]

    search([(1 << n) - 1], [(1 << n) - 1], [], 0, 0)
    assert best is not None
    return best, [perm for perm, _ in gens], best_order


def certificate_adj(n: int, adj: tuple[int, ...] | list[int],
                    tick: Callable[[], None] | None = None) -> int:
    """Canonical certificate for an adjacency-row tuple (internal fast path).

    tick, if given, is called once per search node, so a caller's budget can
    stop the search by raising from it.
    """
    return canonical_labeling(n, adj, tick)[0]


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


def _certificate_rows(n: int, cert: int) -> tuple[int, ...]:
    """Adjacency rows encoded by a certificate, 0 <= cert < 2^(n(n-1)/2)."""
    return _upper_rows(n, format(cert, f"0{n * (n - 1) // 2}b"))


def graph_from_certificate(n: int, cert: int) -> Graph:
    """Rebuild the canonical representative encoded by a certificate."""
    if not 0 <= cert < 1 << n * (n - 1) // 2:
        raise ValueError(f"certificate {cert} out of range for n={n}")
    return Graph(n, _certificate_rows(n, cert))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n:
        return False
    if sorted(g1.degree_sequence()) != sorted(g2.degree_sequence()):
        return False
    return canonical_certificate(g1) == canonical_certificate(g2)
