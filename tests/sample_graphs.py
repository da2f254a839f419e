"""Graph builders shared by the test modules."""

from itertools import combinations

from pathforce.graph import build_graph


def random_graph(rng, n, p):
    return build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def friendship_graph(k):
    return build_graph(2 * k + 1, [e for i in range(k) for e in
                                   ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))])


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if code >> i & 1])
