"""Core graph container, connectivity, graph6 codec, exports."""

import hashlib
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from pathforce.canonical import graph_from_certificate, pack_by_order
from pathforce.graph import (
    BipartitionView,
    CycleWitness,
    Graph,
    PathWitness,
    _two_connected_on,
    articulation_vertices,
    biconnected_components,
    bits,
    build_graph,
    connected_components,
    decode_graph6,
    encode_graph6,
    export_dot,
    export_json,
    high_degree_vertices,
    induced_subgraph,
    is_connected,
    is_essentially_two_connected,
    is_two_connected,
    mask_of,
)
from pathforce.oracle import level_certs
from sample_graphs import cycle_graph, random_graph

# sha256 over f"{biconnected_components(g)} {articulation_vertices(g)}\n" for
# the graphs of test_blocks_and_cuts_pinned, block order kept; captured from
# the edge-stack block routine that the vertex-mask lowpoint DFS replaced.
BLOCK_DIGEST = "d290f99033fbc4879e3ca559a7ec9c4f2866bbd9e74147c7abc7f428504fefc9"


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def ref_two_connected(g):
    """Definition: at least 3 vertices, connected, and G - v connected for every v."""
    if g.n < 3 or len(connected_components(g)) != 1:
        return False
    return all(len(connected_components(induced_subgraph(g, g.vertex_mask() ^ 1 << v)[0])) == 1
               for v in range(g.n))


def ref_essentially_two_connected(g):
    comps = connected_components(g)
    if len(comps) > 1:
        raise ValueError("definition not applicable: graph is disconnected")
    if g.edge_count() == g.n - len(comps):
        raise ValueError("definition not applicable: graph is a forest")
    core, _ = induced_subgraph(g, mask_of(v for v in range(g.n) if g.degree(v) != 1))
    return ref_two_connected(core)


def _outcome(fn, g):
    try:
        return fn(g)
    except ValueError as exc:
        return str(exc)


class TestGraph:
    def test_basic_accessors(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert g.n == 4
        assert g.degree(0) == 3 and g.degree(3) == 2
        assert g.has_edge(0, 2) and not g.has_edge(1, 3)
        assert list(g.neighbors(1)) == [0, 2]
        assert g.edge_count() == 5
        assert g.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
        assert g.degree_sequence() == (3, 3, 2, 2)
        assert g.vertex_mask() == 0b1111

    def test_rejects_loops_and_bad_edges(self):
        with pytest.raises(ValueError, match="loop"):
            build_graph(3, [(1, 1)])
        with pytest.raises(ValueError, match="out of range"):
            build_graph(3, [(0, 3)])
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))

    def test_validation_messages_match_full_scan(self):
        def reference(n, rows):
            # the plain scan: every bit of every row against its mirror
            full = (1 << n) - 1
            for v, row in enumerate(rows):
                if row & ~full:
                    return f"adjacency row {v} references vertices >= {n}"
                if row >> v & 1:
                    return f"loop at vertex {v}"
            for v in range(n):
                for u in bits(rows[v]):
                    if not rows[u] >> v & 1:
                        return f"asymmetric adjacency between {u} and {v}"
            return None

        rng = random.Random(31)
        kinds = {"ok": 0, "asymmetric": 0, "loop": 0, "references": 0}
        for trial in range(3000):
            n = rng.randrange(1, 12)
            rows = list(random_graph(rng, n, rng.random()).adj)
            for _ in range(rng.choice([0, 1, 1, 2, 3])):
                v = rng.randrange(n)
                rows[v] ^= 1 << rng.randrange(n + (trial % 7 == 0))
            expected = reference(n, rows)
            try:
                Graph(n, tuple(rows))
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == expected, (n, rows)
            kinds["ok" if got is None else next(k for k in kinds if k in got)] += 1
        assert min(kinds.values()) >= 50, kinds

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_high_degree_vertices(self):
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert high_degree_vertices(g, 2) == 0b00111
        assert high_degree_vertices(g, 3) == 0b00001
        assert high_degree_vertices(g, 4) == 0

    def test_induced_subgraph_relabels(self):
        g = build_graph(5, [(0, 2), (2, 4), (4, 0), (1, 3)])
        sub, ids = induced_subgraph(g, mask_of([0, 2, 4]))
        assert ids == [0, 2, 4]
        assert sub.n == 3 and sub.edge_count() == 3

    def test_mask_helpers(self):
        assert mask_of([0, 3]) == 0b1001
        assert list(bits(0b1010)) == [1, 3]


class TestConnectivity:
    def test_components(self):
        g = build_graph(5, [(0, 1), (2, 3)])
        comps = connected_components(g)
        assert sorted(comps) == [0b00011, 0b01100, 0b10000]
        assert not is_connected(g)
        assert is_connected(cycle_graph(4))

    def test_components_match_networkx(self):
        rng = random.Random(412)
        for trial in range(600):
            n = rng.randrange(0, 21)
            g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.2, 0.4]))
            h = _to_nx(g)
            # ordered by lowest vertex, which is the lowest set bit of the mask
            want = sorted((mask_of(c) for c in nx.connected_components(h)), key=lambda m: m & -m)
            assert connected_components(g) == want
            assert is_connected(g) == (n == 0 or nx.is_connected(h))

    def test_two_connected(self):
        assert is_two_connected(cycle_graph(4))
        assert not is_two_connected(path_graph(4))
        # two triangles sharing one vertex
        g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        assert not is_two_connected(g)

    def test_essentially_two_connected(self):
        # rectangle with a pendant hanging off one corner
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        assert is_essentially_two_connected(g)
        assert not is_two_connected(g)

    def test_essentially_two_connected_undefined_cases(self):
        with pytest.raises(ValueError, match="disconnected"):
            is_essentially_two_connected(build_graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(ValueError, match="forest"):
            is_essentially_two_connected(path_graph(4))

    def test_two_connectivity_matches_definition_exhaustively(self):
        graphs = [Graph(0, ())] + [graph_from_certificate(n, cert)
                                   for n in range(1, 8) for cert in level_certs(n)]
        for g in graphs:
            assert is_two_connected(g) == ref_two_connected(g)
            assert _outcome(is_essentially_two_connected, g) == \
                _outcome(ref_essentially_two_connected, g)

    def test_masked_two_connectivity_matches_networkx(self):
        rng = random.Random(404)
        for trial in range(600):
            n = rng.randrange(0, 14)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
            mask = rng.getrandbits(n)
            keep = list(bits(mask))
            want = len(keep) >= 3 and nx.is_biconnected(_to_nx(g).subgraph(keep))
            assert _two_connected_on(g.adj, mask) == want

    def test_two_connectivity_at_max_vertices(self):
        n = 512
        cycle = cycle_graph(n)
        pendant = build_graph(n, [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
                              + [(0, n - 1)])
        assert is_two_connected(cycle)
        assert is_essentially_two_connected(cycle)
        assert not is_two_connected(path_graph(n))
        with pytest.raises(ValueError, match="forest"):
            is_essentially_two_connected(path_graph(n))
        assert not is_two_connected(pendant)
        assert is_essentially_two_connected(pendant)

    def test_blocks_and_cuts_match_networkx(self):
        rng = random.Random(401)
        for trial in range(200):
            n = rng.randrange(2, 12)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            want_blocks = sorted(mask_of(c) for c in nx.biconnected_components(h))
            got_blocks = sorted(biconnected_components(g))
            assert got_blocks == want_blocks
            assert articulation_vertices(g) == mask_of(nx.articulation_points(h))

    def test_blocks_and_cuts_pinned(self):
        rng = random.Random(405)
        h = hashlib.sha256()
        with_isolated = 0
        for trial in range(800):
            n = rng.randrange(0, 41)
            g = random_graph(rng, n, rng.choice([0.03, 0.08, 0.15, 0.3, 0.6]))
            with_isolated += 0 in g.adj
            h.update(f"{biconnected_components(g)} {articulation_vertices(g)}\n".encode())
        assert with_isolated >= 100
        assert h.hexdigest() == BLOCK_DIGEST

    def test_blocks_and_cuts_at_max_vertices(self):
        n = 512
        path = path_graph(n)
        assert biconnected_components(path) == [3 << i for i in reversed(range(n - 1))]
        assert articulation_vertices(path) == (1 << n - 1) - 2
        cycle = cycle_graph(n)
        assert biconnected_components(cycle) == [cycle.vertex_mask()]
        assert articulation_vertices(cycle) == 0
        pendant = build_graph(n, [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
                              + [(0, n - 1)])
        assert biconnected_components(pendant) == [(1 << n - 1) - 1, 1 | 1 << n - 1]
        assert articulation_vertices(pendant) == 1


class TestGraph6:
    def test_known_encodings(self):
        assert encode_graph6(build_graph(1, [])) == "@"
        assert encode_graph6(build_graph(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"
        assert decode_graph6("@").n == 1
        k3 = decode_graph6("Bw")
        assert k3.n == 3 and k3.edge_count() == 3

    def test_roundtrip_against_networkx(self):
        rng = random.Random(402)
        for trial in range(1500):
            n = rng.randrange(0, 41)
            g = random_graph(rng, n, rng.choice([0.1, 0.5, 0.9]))
            text = encode_graph6(g)
            want = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
            assert text == want
            back = decode_graph6(text)
            assert back.n == g.n and back.adj == g.adj

    def test_long_form_counts(self):
        rng = random.Random(403)
        for n in (63, 64, 100, 130):
            g = random_graph(rng, n, 0.3)
            text = encode_graph6(g)
            want = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
            assert text == want
            assert decode_graph6(text).adj == g.adj

    def test_decode_accepts_header_and_bytes(self):
        g = decode_graph6(b">>graph6<<Bw")
        assert g.edge_count() == 3

    def test_decode_rejects_malformed(self):
        with pytest.raises(ValueError, match="empty"):
            decode_graph6("")
        with pytest.raises(ValueError, match="printable"):
            decode_graph6("B\x19")
        with pytest.raises(ValueError, match="body length"):
            decode_graph6("Bww")
        with pytest.raises(ValueError, match="body length"):
            decode_graph6("D")
        with pytest.raises(ValueError, match="padding"):
            # K_2 is 'A_'; the final 4 bits must be zero padding
            decode_graph6("A" + chr(63 + 0b011111))

    @given(st.integers(0, 20), st.integers(0, 2**63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, n, seed):
        g = random_graph(random.Random(seed), n, 0.5)
        assert decode_graph6(encode_graph6(g)).adj == g.adj

    def test_certificate_edge_cases(self):
        for n in (0, 1, 2):
            assert graph_from_certificate(n, 0).adj == (0,) * n
        # a certificate's leading zero columns belong to its bit string
        for n in range(2, 9):
            nbits = n * (n - 1) // 2
            for cert, edge in ((1, (n - 2, n - 1)), (1 << nbits - 1, (0, 1))):
                g = build_graph(n, [edge])
                assert pack_by_order(g.adj, list(range(n))) == cert
                assert graph_from_certificate(n, cert).adj == g.adj

    def test_certificate_bits_are_a_graph6_body(self):
        for n in range(1, 8):
            nbits = n * (n - 1) // 2
            for cert in level_certs(n):
                stream = format(cert, f"0{nbits}b") if nbits else ""
                stream += "0" * (-nbits % 6)
                body = "".join(chr(63 + int(stream[i:i + 6], 2)) for i in range(0, len(stream), 6))
                assert decode_graph6(chr(63 + n) + body) == graph_from_certificate(n, cert)


class TestBipartitionView:
    def test_from_x_splits(self):
        g = build_graph(4, [(0, 2), (0, 3), (1, 2)])
        b = BipartitionView.from_x(g, [0, 1])
        assert b.x_vertices() == [0, 1]
        assert b.y_vertices() == [2, 3]
        assert b.min_x_degree() == 1

    def test_from_x_rejects_out_of_range(self):
        g = cycle_graph(8)
        with pytest.raises(ValueError, match=r"^X-vertex 99 out of range for n=8$"):
            BipartitionView.from_x(g, [0, 99])
        with pytest.raises(ValueError, match=r"^X-vertex -1 out of range for n=8$"):
            BipartitionView.from_x(g, [-1, 0])

    def test_rejects_edges_inside_a_side(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="independent"):
            BipartitionView.from_x(g, [0, 1])

    def test_rejects_overlap_and_gaps(self):
        g = build_graph(2, [])
        with pytest.raises(ValueError, match="overlap"):
            BipartitionView(g, 0b11, 0b10)
        with pytest.raises(ValueError, match="cover"):
            BipartitionView(g, 0b01, 0b00)


class TestWitnesses:
    def test_path_witness_validates(self):
        g = path_graph(4)
        PathWitness((0, 1, 2, 3)).validate(g)
        with pytest.raises(ValueError, match="non-edge"):
            PathWitness((0, 2)).validate(g)
        with pytest.raises(ValueError, match="repeats"):
            PathWitness((0, 1, 0)).validate(g)
        with pytest.raises(ValueError, match="empty"):
            PathWitness(()).validate(g)
        with pytest.raises(ValueError, match="out of range"):
            PathWitness((4,)).validate(g)

    def test_cycle_witness_validates(self):
        g = cycle_graph(5)
        CycleWitness((0, 1, 2, 3, 4)).validate(g)
        with pytest.raises(ValueError, match="shorter"):
            CycleWitness((0, 1)).validate(g)
        with pytest.raises(ValueError, match="non-edge"):
            CycleWitness((0, 1, 3)).validate(g)

    def test_bipartite_cycle_needs_four(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
        CycleWitness((0, 1, 2)).validate(g)
        with pytest.raises(ValueError, match="shorter"):
            CycleWitness((0, 1, 2)).validate(g, bipartite=True)

    def test_witness_json(self):
        payload = json.loads(PathWitness((2, 0, 1)).to_json())
        assert payload["vertices"] == [2, 0, 1]


class TestExports:
    def test_dot_highlights(self):
        g = build_graph(3, [(0, 1)])
        text = export_dot(g, highlight=0b001)
        assert "graph" in text and "0 -- 1;" in text
        assert text.count("filled") == 1

    def test_json_fields(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        payload = json.loads(export_json(g, high_degree=0b010))
        assert payload["n"] == 3
        assert payload["edges"] == [[0, 1], [1, 2]]
        assert payload["high_degree"] == [1]


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h
