"""Canonical certificates cross-checked against the factorial reference."""

import hashlib
import random
import time
from itertools import combinations, permutations

import pytest

from pathforce.canonical import (
    CANONICAL_MAX,
    are_isomorphic,
    canonical_certificate,
    canonical_labeling,
    certificate_adj,
    certificate_bruteforce,
    graph_from_certificate,
    pack_by_order,
)
from pathforce.constructions import build_G
from pathforce.graph import build_graph
from pathforce.oracle import level_certs
from sample_graphs import all_labeled_graphs, friendship_graph, random_graph


def disjoint_triangles(k):
    return build_graph(3 * k, [(3 * i + a, 3 * i + b) for i in range(k)
                               for a, b in ((0, 1), (0, 2), (1, 2))])


class TestCertificate:
    def test_trivial_sizes(self):
        assert canonical_certificate(build_graph(0, [])) == 0
        assert canonical_certificate(build_graph(1, [])) == 0
        assert canonical_certificate(build_graph(2, [(0, 1)])) == 1

    def test_pack_by_order_is_column_major(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        # order (0,1,2): column for 1 is [edge 0-1], column for 2 is [0-2, 1-2]
        assert pack_by_order(g.adj, [0, 1, 2]) == 0b101
        assert pack_by_order(g.adj, [1, 0, 2]) == 0b110

    def test_equivalence_matches_reference_exhaustively(self):
        # both invariants must induce the same partition of all 5-vertex graphs
        for n in range(2, 6):
            fast_to_ref = {}
            ref_to_fast = {}
            for g in all_labeled_graphs(n):
                fast = canonical_certificate(g)
                ref = certificate_bruteforce(g)
                assert fast_to_ref.setdefault(fast, ref) == ref
                assert ref_to_fast.setdefault(ref, fast) == fast

    def test_equivalence_matches_reference_random(self):
        rng = random.Random(404)
        seen = {}
        for trial in range(600):
            g = random_graph(rng, rng.randrange(6, 9), rng.choice([0.2, 0.5, 0.8]))
            fast = canonical_certificate(g)
            ref = certificate_bruteforce(g)
            assert seen.setdefault((g.n, fast), ref) == ref

    def test_certificate_values_pinned(self):
        # sha256 of the certificate values, captured before the refinement
        # queue was narrowed; any change to the search shows here
        rng = random.Random(420)
        graphs = [random_graph(rng, rng.randrange(8, 31), rng.choice([0.1, 0.2, 0.35, 0.5, 0.8]))
                  for _ in range(120)]
        graphs += [friendship_graph(4), friendship_graph(5), disjoint_triangles(4),
                   build_G(24, 4, 4)]
        blob = ",".join(str(canonical_certificate(g)) for g in graphs).encode()
        assert hashlib.sha256(blob).hexdigest() == \
            "422c73a23002c16b04daa9f68fc6cd97d1d6c52f493d8a307d28fd50a52dbaa5"

    def test_graph_from_certificate_range(self):
        assert graph_from_certificate(3, 7).adj == build_graph(3, [(0, 1), (0, 2), (1, 2)]).adj
        for cert in (-1, 0b1000):
            with pytest.raises(ValueError, match="out of range"):
                graph_from_certificate(3, cert)

    def test_bruteforce_is_minimum_over_all_orderings(self):
        rng = random.Random(408)
        graphs = [g for n in range(2, 5) for g in all_labeled_graphs(n)]
        graphs += [random_graph(rng, rng.randrange(5, 8), rng.choice([0.2, 0.5, 0.8]))
                   for _ in range(60)]
        graphs += [build_graph(7, []), friendship_graph(3)]
        for g in graphs:
            want = min(pack_by_order(g.adj, list(p)) for p in permutations(range(g.n)))
            assert certificate_bruteforce(g) == want

    def test_relabeling_invariance(self):
        rng = random.Random(405)
        for trial in range(500):
            n = rng.randrange(2, 10)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            perm = list(range(n))
            rng.shuffle(perm)
            g = build_graph(n, edges)
            h = build_graph(n, [(perm[a], perm[b]) for a, b in edges])
            assert canonical_certificate(g) == canonical_certificate(h)

    def test_roundtrip_through_certificate(self):
        rng = random.Random(406)
        for trial in range(300):
            g = random_graph(rng, rng.randrange(1, 10), 0.5)
            cert = canonical_certificate(g)
            rebuilt = graph_from_certificate(g.n, cert)
            assert rebuilt.n == g.n
            assert rebuilt.edge_count() == g.edge_count()
            assert canonical_certificate(rebuilt) == cert

    def test_size_limits(self):
        with pytest.raises(ValueError, match=str(CANONICAL_MAX)):
            canonical_certificate(build_graph(CANONICAL_MAX + 1, []))
        with pytest.raises(ValueError, match="n <= 8"):
            certificate_bruteforce(build_graph(9, []))


def relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def is_automorphism(g, perm):
    return sorted(perm) == list(range(g.n)) and all(
        g.adj[perm[v]] == sum(1 << perm[u] for u in range(g.n) if g.adj[v] >> u & 1)
        for v in range(g.n))


def group_order(n, gens):
    seen = {tuple(range(n))}
    stack = list(seen)
    while stack:
        p = stack.pop()
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen)


class TestAutomorphisms:
    def test_generators_preserve_adjacency(self):
        rng = random.Random(409)
        graphs = [relabeled(rng, graph_from_certificate(n, c))
                  for n in range(1, 8) for c in level_certs(n)]
        graphs += [random_graph(rng, rng.randrange(2, 16), rng.choice([0.1, 0.3, 0.5, 0.8]))
                   for _ in range(400)]
        graphs += [friendship_graph(k) for k in range(3, 7)]
        graphs += [disjoint_triangles(k) for k in range(2, 6)]
        for g in graphs:
            gens = canonical_labeling(g.n, g.adj)[1]
            assert all(is_automorphism(g, perm) for perm in gens)

    def test_generators_give_the_whole_group_to_five(self):
        for n in range(1, 6):
            for c in level_certs(n):
                g = graph_from_certificate(n, c)
                aut = sum(is_automorphism(g, p) for p in permutations(range(n)))
                assert group_order(n, canonical_labeling(n, g.adj)[1]) == aut

    def test_symmetric_graphs(self):
        # friendship graphs and disjoint triangles: orders 2^k k! and 6^k k!
        assert group_order(7, canonical_labeling(7, friendship_graph(3).adj)[1]) == 48
        assert group_order(9, canonical_labeling(9, disjoint_triangles(3).adj)[1]) == 1296
        # the spider with legs 1, 2, 3 is the smallest asymmetric tree
        spider = build_graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        assert canonical_labeling(7, spider.adj)[1] == []

    def test_search_nodes_pinned(self):
        # nodes of one certificate search; without orbit pruning F8 needs
        # 11,857,009. An orbit rule that also used generators moving the
        # placed prefix would prune more, and unsoundly.
        petersen = build_graph(10, [(i, (i + 1) % 5) for i in range(5)] +
                               [(5 + i, 5 + (i + 2) % 5) for i in range(5)] +
                               [(i, i + 5) for i in range(5)])
        cube = build_graph(16, [(u, u ^ 1 << i) for u in range(16) for i in range(4)
                                if u < u ^ 1 << i])
        circulant = build_graph(13, [(i, (i + s) % 13) for i in range(13) for s in (1, 5)])
        graphs = [friendship_graph(8), disjoint_triangles(5), petersen, cube, circulant]
        counts = []
        for g in graphs:
            nodes = []
            certificate_adj(g.n, g.adj, lambda: nodes.append(0))
            counts.append(len(nodes))
        assert counts == [156, 99, 22, 25, 9]

    def test_friendship_twelve_is_fast(self):
        g = friendship_graph(12)
        start = time.monotonic()
        cert = canonical_certificate(g)
        assert time.monotonic() - start < 1
        assert cert == canonical_certificate(relabeled(random.Random(410), g))


class TestLabeling:
    def test_ordering_contract(self):
        # input vertex order[i] gets canonical label i
        rng = random.Random(411)
        graphs = [random_graph(rng, rng.randrange(0, 11), rng.choice([0.1, 0.3, 0.5, 0.8]))
                  for _ in range(200)]
        graphs += [friendship_graph(k) for k in range(1, 6)]
        graphs += [build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
                   for a in range(1, 5) for b in range(a, 6)]
        graphs += [build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 11)]
        for g in graphs:
            cert, gens, order = canonical_labeling(g.n, g.adj)
            assert sorted(order) == list(range(g.n))
            assert cert == certificate_adj(g.n, g.adj) == pack_by_order(g.adj, order)
            assert gens == canonical_labeling(g.n, g.adj)[1]
            assert all(is_automorphism(g, perm) for perm in gens)
            relabeled_rows = tuple(sum((g.adj[v] >> u & 1) << j for j, u in enumerate(order))
                                   for v in order)
            assert relabeled_rows == graph_from_certificate(g.n, cert).adj

    def test_labeling_pinned(self):
        # sha256 of the whole (certificate, generators, ordering) per graph,
        # captured before the refinement's mask split: a change to the search
        # that kept the certificates could still move the other two
        rng = random.Random(430)
        graphs = [g for n in range(6) for g in all_labeled_graphs(n)]
        graphs += [random_graph(rng, rng.randrange(6, 17), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
                   for _ in range(400)]
        blob = "\n".join(repr(canonical_labeling(g.n, g.adj)) for g in graphs).encode()
        assert hashlib.sha256(blob).hexdigest() == \
            "56bda067dc4101adc683734e01bd21113fde89397105936b60afed8efdbab228"


class TestAreIsomorphic:
    def test_positive_pair(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        h = build_graph(4, [(3, 2), (2, 0), (0, 1)])
        assert are_isomorphic(g, h)

    def test_same_degree_sequence_not_isomorphic(self):
        c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        two_triangles = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not are_isomorphic(c6, two_triangles)

    def test_different_sizes(self):
        assert not are_isomorphic(build_graph(3, []), build_graph(4, []))

    def test_medium_structured_pair(self):
        # join of a 3-clique with 20 isolated vertices, two labelings
        edges = [(a, b) for a, b in combinations(range(3), 2)]
        edges += [(a, b) for a in range(3) for b in range(3, 23)]
        g = build_graph(23, edges)
        perm = list(range(23))
        random.Random(407).shuffle(perm)
        h = build_graph(23, [(perm[a], perm[b]) for a, b in edges])
        assert are_isomorphic(g, h)
