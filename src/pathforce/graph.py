"""Dense labeled graphs on vertices 0..n-1 backed by integer bitset adjacency rows.

Vertex labels are always the contiguous range 0..n-1. Every public constructor
validates symmetry and looplessness, so any Graph instance in hand is a simple
undirected graph. Bitset rows make neighborhood algebra (intersection, union,
reachability sweeps) cheap enough for the exhaustive searches built on top.
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


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of connected components, ordered by smallest member."""
    seen = 0
    comps = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        seen |= comp
    return comps


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return len(connected_components(g)) == 1


def _blocks_and_cuts(g: Graph) -> tuple[list[int], int]:
    """Biconnected components (vertex masks) and articulation vertex bitset."""
    n = g.n
    num = [-1] * n
    low = [0] * n
    children = [0] * n
    edge_stack: list[tuple[int, int]] = []
    blocks: list[int] = []
    art = 0
    counter = 0
    for root in range(n):
        if num[root] >= 0:
            continue
        num[root] = low[root] = counter
        counter += 1
        stack: list[list[int]] = [[root, -1, g.adj[root]]]
        while stack:
            frame = stack[-1]
            v, parent, rest = frame
            advanced = False
            while rest:
                w_bit = rest & -rest
                rest ^= w_bit
                frame[2] = rest
                w = w_bit.bit_length() - 1
                if w == parent:
                    continue
                if num[w] < 0:
                    edge_stack.append((v, w))
                    num[w] = low[w] = counter
                    counter += 1
                    children[v] += 1
                    stack.append([w, v, g.adj[w]])
                    advanced = True
                    break
                if num[w] < num[v]:
                    edge_stack.append((v, w))
                    if num[w] < low[v]:
                        low[v] = num[w]
            if advanced:
                continue
            stack.pop()
            if parent < 0:
                continue
            if low[v] < low[parent]:
                low[parent] = low[v]
            if low[v] >= num[parent]:
                mask = 0
                while True:
                    a, b = edge_stack.pop()
                    mask |= (1 << a) | (1 << b)
                    if (a, b) == (parent, v):
                        break
                blocks.append(mask)
                if parent != root:
                    art |= 1 << parent
        if children[root] >= 2:
            art |= 1 << root
    return blocks, art


def biconnected_components(g: Graph) -> list[int]:
    """Vertex masks of the biconnected components (blocks). Isolated vertices
    belong to no block; each bridge forms a 2-vertex block."""
    return _blocks_and_cuts(g)[0]


def articulation_vertices(g: Graph) -> int:
    return _blocks_and_cuts(g)[1]


def _two_connected_on(adj: tuple[int, ...], mask: int) -> bool:
    """Whether the subgraph induced on mask is 2-connected.

    One lowpoint DFS (Hopcroft and Tarjan 1973), returning at the first cut
    vertex. An undirected DFS has no cross edges, so the visited neighbours
    of a vertex entered for the first time are its ancestors, and its
    lowpoint starts at their smallest number.
    """
    if mask.bit_count() < 3:
        return False
    root = (mask & -mask).bit_length() - 1
    num, low = [0] * mask.bit_length(), [0] * mask.bit_length()
    unvisited = mask ^ 1 << root
    stack = [root]
    count = 1
    while stack:
        v = stack[-1]
        rest = adj[v] & unvisited
        if rest:
            if v == root and count > 1:
                return False  # a second DFS child of the root
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
            stack.append(w)
            continue
        stack.pop()
        if len(stack) > 1:
            p = stack[-1]
            if low[v] >= num[p]:
                return False  # p separates v's subtree from the root
            if low[v] < low[p]:
                low[p] = low[v]
    return not unvisited


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
# offset 63, zero padding; 1-, and 4-byte vertex-count headers.

def _encode_count(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return chr(126) + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    raise ValueError(f"vertex count {n} too large for this encoder")


def encode_graph6(g: Graph) -> str:
    out = [_encode_count(g.n)]
    acc = 0
    width = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | (col >> i & 1)
            width += 1
            if width == 6:
                out.append(chr(63 + acc))
                acc = 0
                width = 0
    if width:
        out.append(chr(63 + (acc << (6 - width))))
    return "".join(out)


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
    rows = [0] * n
    idx = 0
    for code in body:
        for shift in (5, 4, 3, 2, 1, 0):
            bit = code >> shift & 1
            if idx >= nbits:
                if bit:
                    raise ValueError("malformed graph6: nonzero padding bits")
                continue
            if bit:
                # recover (i, j) for linear index idx in column-major order
                j = _col_of(idx)
                i = idx - j * (j - 1) // 2
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(rows))


def _col_of(idx: int) -> int:
    # smallest j with j*(j+1)/2 > idx, i.e. the column of the idx-th bit
    j = int((2 * idx) ** 0.5)
    while j * (j - 1) // 2 > idx:
        j -= 1
    while (j + 1) * j // 2 <= idx:
        j += 1
    return j


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
