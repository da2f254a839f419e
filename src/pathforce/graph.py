"""Dense labeled graphs on vertices 0..n-1 backed by integer bitset adjacency rows.

Vertex labels are always the contiguous range 0..n-1. Every public constructor
validates symmetry and looplessness, so any Graph instance in hand is a simple
undirected graph. Bitset rows make neighborhood algebra (intersection, union,
reachability sweeps) cheap enough for the exhaustive searches built on top.

The module holds the two bitset primitives the rest of the package shares:
_reach_mask, the one reachability sweep (components, connectivity and the
solvers' reach prunes), and the column-major upper-triangle codec
(_upper_bits and _upper_rows) behind graph6 text and canonical certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, NoReturn

MAX_VERTICES = 512


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _raise_asymmetric(adj: tuple[int, ...]) -> NoReturn:
    """Name the first unmirrored bit, scanning rows and then bits in order."""
    u, v = next((u, v) for v, row in enumerate(adj) for u in bits(row)
                if not adj[u] >> v & 1)
    raise ValueError(f"asymmetric adjacency between {u} and {v}")


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside [0, {MAX_VERTICES}]")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        adj = self.adj
        full = (1 << self.n) - 1
        total = 0
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} references vertices >= {self.n}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            total += row.bit_count()
        # Each bit above the diagonal must have its mirror below it. Then as
        # many bits below the diagonal as above leaves none without a mirror.
        upper = 0
        for v, row in enumerate(adj):
            above = row >> v >> 1
            upper += above.bit_count()
            while above:
                low = above & -above
                above ^= low
                if not adj[v + low.bit_length()] >> v & 1:
                    _raise_asymmetric(adj)
        if total != 2 * upper:
            _raise_asymmetric(adj)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((self.degree(v) for v in range(self.n)), reverse=True))

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph; rejects loops, duplicates are harmless."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) endpoint out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def high_degree_vertices(g: Graph, d: int) -> int:
    """Bitset of vertices with degree at least d."""
    return mask_of(v for v in range(g.n) if g.degree(v) >= d)


def induced_subgraph(g: Graph, mask: int) -> tuple[Graph, list[int]]:
    """Induced subgraph on the masked vertices, relabeled 0..m-1.

    Returns the subgraph and the list mapping new labels to old ones.
    """
    ids = list(bits(mask))
    pos = {v: i for i, v in enumerate(ids)}
    rows = []
    for v in ids:
        row = 0
        for u in bits(g.adj[v] & mask):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(len(ids), tuple(rows)), ids


def _reach_mask(adj: tuple[int, ...], seeds: int, allowed: int, stop: int | None = None) -> int:
    """Vertices of `allowed` reachable from `seeds` inside `allowed`. With stop
    given, the search may end once it holds stop vertices or more."""
    reach = frontier = seeds & allowed
    while frontier and (stop is None or reach.bit_count() < stop):
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & allowed & ~reach
        reach |= frontier
    return reach


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of connected components, ordered by smallest member."""
    comps = []
    rest = g.vertex_mask()
    while rest:
        comps.append(_reach_mask(g.adj, rest & -rest, rest))
        rest ^= comps[-1]
    return comps


def is_connected(g: Graph) -> bool:
    full = g.vertex_mask()
    return _reach_mask(g.adj, 1, full) == full


def _blocks_on(adj: tuple[int, ...], mask: int) -> Iterator[int]:
    """Yield the blocks of the subgraph induced on mask as vertex masks.

    One lowpoint DFS (Hopcroft and Tarjan 1973), lowest vertex first. A block
    is yielded the moment it closes: a child v of p finishes with
    low[v] >= num[p], and the block is p plus the vertices entered since v
    that no earlier block took. An undirected DFS has no cross edges, so the
    visited neighbours of a vertex entered for the first time are its
    ancestors, and its lowpoint starts at their smallest number. Isolated
    vertices lie in no block; a bridge is a 2-vertex block.
    """
    num = [0] * mask.bit_length()
    low, opened_at = num[:], num[:]
    unvisited = mask
    count = 0
    opened = 0  # entered non-root vertices that no yielded block took yet
    while unvisited:
        root = unvisited & -unvisited
        unvisited ^= root
        stack = [root.bit_length() - 1]
        num[stack[0]] = count
        count += 1
        while stack:
            v = stack[-1]
            rest = adj[v] & unvisited
            if rest:
                bit = rest & -rest
                unvisited ^= bit
                w = bit.bit_length() - 1
                num[w] = count
                count += 1
                lw = num[v]
                back = adj[w] & mask & ~unvisited
                while back:
                    b = back & -back
                    back ^= b
                    if num[b.bit_length() - 1] < lw:
                        lw = num[b.bit_length() - 1]
                low[w] = lw
                opened_at[w] = opened
                opened |= bit
                stack.append(w)
                continue
            stack.pop()
            if stack:
                p = stack[-1]
                if low[v] >= num[p]:
                    yield opened ^ opened_at[v] | 1 << p
                    opened = opened_at[v]
                elif low[v] < low[p]:
                    low[p] = low[v]


def biconnected_components(g: Graph) -> list[int]:
    """Vertex masks of the biconnected components (blocks), in the order they
    close. Isolated vertices belong to no block; each bridge forms a 2-vertex
    block."""
    return list(_blocks_on(g.adj, g.vertex_mask()))


def articulation_vertices(g: Graph) -> int:
    """Bitset of the vertices lying in two or more blocks."""
    seen = cuts = 0
    for block in _blocks_on(g.adj, g.vertex_mask()):
        cuts |= seen & block
        seen |= block
    return cuts


def _two_connected_on(adj: tuple[int, ...], mask: int) -> bool:
    """Whether the subgraph induced on mask is 2-connected: at least 3
    vertices, and the first block to close is the whole mask."""
    return mask.bit_count() >= 3 and next(_blocks_on(adj, mask), 0) == mask


def is_two_connected(g: Graph) -> bool:
    """Connected, at least 3 vertices, no cut vertex."""
    return _two_connected_on(g.adj, g.vertex_mask())


def is_essentially_two_connected(g: Graph) -> bool:
    """True when removing all degree-one vertices leaves a 2-connected graph.

    Raises ValueError for disconnected graphs and forests, where the notion
    is not defined.
    """
    if not is_connected(g):
        raise ValueError("definition not applicable: graph is disconnected")
    # a connected graph is a tree exactly when it has n - 1 edges; the empty
    # graph counts as a forest too
    if g.edge_count() == max(g.n - 1, 0):
        raise ValueError("definition not applicable: graph is a forest")
    keep = mask_of(v for v in range(g.n) if g.degree(v) != 1)
    return _two_connected_on(g.adj, keep)


@dataclass(frozen=True)
class BipartitionView:
    """A graph together with a checked bipartition into sides X and Y.

    Both sides must be independent sets; construction fails otherwise.
    """

    graph: Graph
    x_mask: int
    y_mask: int

    def __post_init__(self) -> None:
        g = self.graph
        full = g.vertex_mask()
        if self.x_mask & self.y_mask:
            raise ValueError("bipartition sides overlap")
        if (self.x_mask | self.y_mask) != full:
            raise ValueError("bipartition does not cover the vertex set")
        for side, name in ((self.x_mask, "X"), (self.y_mask, "Y")):
            rest = side
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest ^= 1 << v
                if g.adj[v] & side:
                    raise ValueError(f"{name} not independent on its side: edge at vertex {v}")

    @classmethod
    def from_x(cls, graph: Graph, x_vertices: Iterable[int]) -> "BipartitionView":
        x = 0
        for v in x_vertices:
            if not 0 <= v < graph.n:
                raise ValueError(f"X-vertex {v} out of range for n={graph.n}")
            x |= 1 << v
        return cls(graph, x, graph.vertex_mask() & ~x)

    def x_vertices(self) -> list[int]:
        return list(bits(self.x_mask))

    def y_vertices(self) -> list[int]:
        return list(bits(self.y_mask))

    def min_x_degree(self) -> int:
        adj, rest, degrees = self.graph.adj, self.x_mask, []
        while rest:
            low = rest & -rest
            rest ^= low
            degrees.append(adj[low.bit_length() - 1].bit_count())
        return min(degrees)


@dataclass(frozen=True)
class PathWitness:
    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def validate(self, g: Graph) -> None:
        vs = self.vertices
        if not vs:
            raise ValueError("empty path witness")
        if len(set(vs)) != len(vs):
            raise ValueError("path witness repeats a vertex")
        for v in vs:
            if not 0 <= v < g.n:
                raise ValueError(f"path witness vertex {v} out of range")
        for a, b in zip(vs, vs[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"path witness uses non-edge ({a}, {b})")

    def to_json(self) -> str:
        return json.dumps({"kind": "path", "vertices": list(self.vertices)})


@dataclass(frozen=True)
class CycleWitness:
    """Cycle as a vertex sequence; the closing edge back to the start is implied."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def validate(self, g: Graph, bipartite: bool = False) -> None:
        vs = self.vertices
        floor = 4 if bipartite else 3
        if len(vs) < floor:
            raise ValueError(f"cycle witness shorter than {floor} vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("cycle witness repeats a vertex")
        for v in vs:
            if not 0 <= v < g.n:
                raise ValueError(f"cycle witness vertex {v} out of range")
        for a, b in zip(vs, vs[1:] + (vs[0],)):
            if not g.has_edge(a, b):
                raise ValueError(f"cycle witness uses non-edge ({a}, {b})")

    def to_json(self) -> str:
        return json.dumps({"kind": "cycle", "vertices": list(self.vertices)})


# graph6 codec. Column-major upper triangle bits, 6 bits per printable byte,
# offset 63, zero padding; 1-, and 4-byte vertex-count headers. Canonical
# certificates pack the same upper-triangle bit string into an integer.

_SIX_BITS = [format(code, "06b") for code in range(64)]


def _upper_bits(adj: tuple[int, ...] | list[int]) -> str:
    """The upper triangle of adj as a '0'/'1' string: column j = 1..n-1 in
    turn, each listing rows 0..j-1 in order."""
    return "".join([format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1]
                    for j in range(1, len(adj))])


def _upper_rows(n: int, stream: str) -> tuple[int, ...]:
    """Adjacency rows of the n-vertex graph whose upper triangle starts
    stream (as _upper_bits writes it); bits past the triangle are ignored."""
    # Reversed, column j (rows i < j, in order) is the binary number
    # stream[end - j:end] with row i at bit i.
    stream = stream[::-1]
    rows = [0] * n
    end = len(stream)
    for j in range(1, n):
        col = int(stream[end - j:end], 2)
        end -= j
        rows[j] = col
        while col:
            low = col & -col
            col ^= low
            rows[low.bit_length() - 1] |= 1 << j
    return tuple(rows)


def _encode_count(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return chr(126) + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    raise ValueError(f"vertex count {n} too large for this encoder")


def encode_graph6(g: Graph) -> str:
    stream = _upper_bits(g.adj)
    stream += "0" * (-len(stream) % 6)
    return _encode_count(g.n) + "".join([chr(63 + int(stream[i:i + 6], 2))
                                         for i in range(0, len(stream), 6)])


def decode_graph6(data: str | bytes) -> Graph:
    if isinstance(data, (bytes, bytearray)):
        text = data.decode("ascii", errors="strict")
    else:
        text = data
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise ValueError("malformed graph6: empty input")
    codes = [ord(c) - 63 for c in text]
    if any(c < 0 or c > 63 for c in codes):
        raise ValueError("malformed graph6: byte outside the printable range")
    if codes[0] != 63:
        n = codes[0]
        body = codes[1:]
    else:
        if len(codes) >= 2 and codes[1] == 63:
            raise ValueError("malformed graph6: 36-bit vertex counts unsupported")
        if len(codes) < 4:
            raise ValueError("malformed graph6: truncated vertex count")
        n = (codes[1] << 12) | (codes[2] << 6) | codes[3]
        body = codes[4:]
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("malformed graph6: body length does not match vertex count")
    stream = "".join([_SIX_BITS[code] for code in body])
    if "1" in stream[nbits:]:
        raise ValueError("malformed graph6: nonzero padding bits")
    return Graph(n, _upper_rows(n, stream))


def export_dot(g: Graph, highlight: int = 0) -> str:
    """Render to DOT text; highlighted vertices get a filled style."""
    lines = ["graph g {"]
    for v in range(g.n):
        if highlight >> v & 1:
            lines.append(f"  {v} [style=filled fillcolor=gold];")
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: Graph, high_degree: int = 0) -> str:
    payload = {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges()],
        "high_degree": list(bits(high_degree)),
    }
    return json.dumps(payload, sort_keys=True)
