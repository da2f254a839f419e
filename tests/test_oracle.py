"""Independent ground truth: enumeration, brute-force thresholds, instance
generators, and the verification suites."""

import hashlib
import json
from itertools import permutations

import networkx as nx
import pytest

import pathforce.oracle as oracle
from pathforce.canonical import certificate_adj, certificate_bruteforce, graph_from_certificate
from pathforce.formulas import PhiParams, phi
from pathforce.graph import (
    BipartitionView,
    Graph,
    PathWitness,
    bits,
    build_graph,
    decode_graph6,
    encode_graph6,
)
from pathforce.oracle import (
    CONSTRUCTIONS,
    ENUMERATION_MAX,
    PROFILES,
    SUITES,
    VerificationReport,
    derive_seed,
    enumerate_graphs,
    hypothesis_holds,
    level_certs,
    phi_bruteforce,
    random_bipartite_instance,
    run_suite,
)
from pathforce.solvers import (
    LemmaViolationError,
    SearchBudgetExceeded,
    _path_table,
    contains_path,
    longest_path,
)
from sample_graphs import all_labeled_graphs

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346, 9: 274668}

# sha256 of ",".join(map(str, level_certs(n))), captured from the global-set
# enumeration that grew every parent by every neighbourhood; enumerate_graphs
# depends on this order and content.
LEVEL_DIGESTS = {
    1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    2: "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350",
    3: "e07a92fb5aaa979553ff4952bd4597b190f6f37b327b065caeb0272ef00c4a82",
    4: "1f954cdcbe5d9b26bd1e165b6d252c9dd8c1207c433c253ba6eaf508eeaa447a",
    5: "e841846dc8ee6488b5f4eba4cf78e50f8fdd09cb896ea35ac94637dde64948a6",
    6: "20f3a544a005d293676dec378241a64354079e96f9e79392d60fb0f241f5705c",
    7: "f662069ede6b06b62688400f8f814de8a2f30cdcc34c048c980f7df1f1e3af8d",
    8: "2104a43585f8c53ac586220d848d63964bca1b83d655192480354d3280652c1d",
}


def unpruned_child_certs(n_prev, cert):
    """Every neighbourhood grown, kept by the rule of level_certs."""
    def maxima(rows):
        deg = [r.bit_count() for r in rows]
        inv = [(deg[v], sorted(deg[u] for u in range(len(rows)) if r >> u & 1))
               for v, r in enumerate(rows)]
        return [v for v in range(len(rows)) if inv[v] == max(inv)]

    adj = graph_from_certificate(n_prev, cert).adj
    out = set()
    for nb in range(1 << n_prev):
        rows = [a | (nb >> v & 1) << n_prev for v, a in enumerate(adj)] + [nb]
        top = maxima(rows)
        if n_prev not in top:
            continue
        c = certificate_adj(n_prev + 1, rows)
        canon = graph_from_certificate(n_prev + 1, c)
        m = maxima(canon.adj)[0]
        keep = [v for v in range(n_prev + 1) if v != m]
        rest = [sum((canon.adj[v] >> u & 1) << i for i, u in enumerate(keep)) for v in keep]
        if certificate_adj(n_prev, rest) == cert:
            out.add(c)
    return out


class TestEnumeration:
    def test_class_counts_to_seven(self):
        for n in range(1, 8):
            assert len(level_certs(n)) == KNOWN_CLASS_COUNTS[n]

    def test_matches_naive_dedup(self):
        # independent route: dedup all labeled graphs by the factorial invariant
        for n in range(1, 6):
            naive = {certificate_bruteforce(g) for g in all_labeled_graphs(n)}
            fast = level_certs(n)
            assert len(fast) == len(naive)
            rebuilt = {certificate_bruteforce(graph_from_certificate(n, c)) for c in fast}
            assert rebuilt == naive

    def test_levels_match_golden_digests(self):
        for n, digest in LEVEL_DIGESTS.items():
            text = ",".join(map(str, level_certs(n)))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, n

    def test_each_class_has_one_parent(self):
        for n in range(2, 9):
            parts = [oracle._child_certs((n - 1, p)) for p in level_certs(n - 1)]
            union = set().union(*parts)
            assert sum(map(len, parts)) == len(union)
            assert tuple(sorted(union)) == level_certs(n)

    def test_orbit_pruning_keeps_every_child(self):
        for n in range(2, 8):
            for p in level_certs(n - 1):
                assert oracle._child_certs((n - 1, p)) == unpruned_child_certs(n - 1, p)

    def test_tie_routes_to_eight(self, monkeypatch):
        # a tied child is kept when m, the maximum placed first in its own
        # canonical ordering, is the new vertex or lies in its orbit; only
        # the rest need the certificate of C - m
        routes = {"new vertex": 0, "other": 0, "fallback": 0}
        labeling, certificate = oracle.canonical_labeling, oracle.certificate_adj

        def counted_labeling(n, rows):
            found = labeling(n, rows)
            ties = oracle._top_vertices(rows)
            # children come as lists; the parent's own search for its
            # generators passes Graph.adj, a tuple, and is no tie
            if isinstance(rows, list) and len(ties) > 1:
                m = min(ties, key=found[2].index)
                routes["new vertex" if m == n - 1 else "other"] += 1
            return found

        def counted_certificate(n, rows):
            routes["fallback"] += 1
            return certificate(n, rows)

        monkeypatch.setattr(oracle, "_LEVELS", {1: (0,)})
        monkeypatch.setattr(oracle, "canonical_labeling", counted_labeling)
        monkeypatch.setattr(oracle, "certificate_adj", counted_certificate)
        level_certs(8)
        # 4,624 tied children, 7 of them repeats of a class already kept (6
        # with m = w, 1 without); of the 4,617 decided, 1,814 have m = w,
        # 1,924 go by orbit and 879 need the certificate of C - m
        assert routes == {"new vertex": 1820, "other": 2804, "fallback": 879}

    def test_fallback_alone_is_complete(self, monkeypatch):
        # withheld generators send every tie with m != w to the certificate test
        # and leave every neighbourhood of a parent to be tried
        labeling = oracle.canonical_labeling

        def without_generators(n, rows):
            cert, _, order = labeling(n, rows)
            return cert, [], order

        monkeypatch.setattr(oracle, "_LEVELS", {1: (0,)})
        monkeypatch.setattr(oracle, "canonical_labeling", without_generators)
        for n in range(1, 8):
            text = ",".join(map(str, level_certs(n)))
            assert hashlib.sha256(text.encode()).hexdigest() == LEVEL_DIGESTS[n], n

    def test_parallel_matches_serial(self, monkeypatch):
        serial = level_certs(7)
        monkeypatch.setattr(oracle, "_LEVELS", {1: (0,)})
        assert level_certs(7, jobs=2) == serial
        assert set(oracle._LEVELS) == set(range(1, 8))

    def test_networkx_atlas_lies_in_levels(self):
        # the atlas lists every graph on up to 7 vertices, built independently
        found = {6: set(), 7: set()}
        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if n in found:
                rows = [sum(1 << u for u in g[v]) for v in range(n)]
                found[n].add(certificate_adj(n, rows))
        for n, certs in found.items():
            assert len(certs) == KNOWN_CLASS_COUNTS[n]
            assert certs <= set(level_certs(n))

    def test_enumerate_graphs_yields_valid_graphs(self):
        seen = set()
        for g in enumerate_graphs(5):
            assert g.n == 5
            seen.add(certificate_bruteforce(g))
        assert len(seen) == KNOWN_CLASS_COUNTS[5]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="enumeration limited"):
            level_certs(ENUMERATION_MAX + 1)
        with pytest.raises(ValueError, match="enumeration limited"):
            level_certs(0)

    @pytest.mark.slow
    def test_class_count_at_limit(self):
        certs = level_certs(ENUMERATION_MAX)
        assert len(certs) == KNOWN_CLASS_COUNTS[ENUMERATION_MAX]
        # captured before ties were decided from the child's own search
        assert hashlib.sha256(",".join(map(str, certs)).encode()).hexdigest() == \
            "b7a11d0d7400e03c292586e5caec10f7d06c35043d5989d6852ec00e999c9fd8"


# traceable graphs on n unlabeled vertices (OEIS A057864); the other classes
# of KNOWN_CLASS_COUNTS (A000088) are the non-traceable ones
TRACEABLE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 18, 6: 91, 7: 734, 8: 10030}


def path_table(adj):
    table, _, complete = _path_table(adj)
    assert complete
    return table


def table_says_traceable(adj, nb):
    # P + w is traceable iff N(w) meets an end of a Hamiltonian path of P,
    # or ends of paths covering some S and V - S
    table = path_table(adj)
    full = (1 << len(adj)) - 1
    return bool(nb & table.get(full, 0)) or any(
        nb & table.get(s, 0) and nb & table.get(full ^ s, 0) for s in range(1, full))


def grown(adj, nb):
    n_prev = len(adj)
    rows = [a | (nb >> v & 1) << n_prev for v, a in enumerate(adj)] + [nb]
    return Graph(n_prev + 1, tuple(rows))


def hamiltonian_ends(adj, s):
    """Ends of the Hamiltonian paths of G[S], by brute force over orders."""
    ends = 0
    for perm in permutations(bits(s)):
        if all(adj[a] >> b & 1 for a, b in zip(perm, perm[1:])):
            ends |= 1 << perm[0] | 1 << perm[-1]
    return ends


class TestPathTable:
    def test_matches_brute_force_to_six(self):
        for n in range(1, 7):
            for cert in level_certs(n):
                adj = graph_from_certificate(n, cert).adj
                table = path_table(adj)
                for s in range(1, 1 << n):
                    assert table.get(s, 0) == hamiltonian_ends(adj, s), (n, cert, s)
                assert 0 not in table.values()

    def test_budget_cut_keeps_whole_layers(self):
        adj = graph_from_certificate(7, level_certs(7)[500]).adj
        table, top, complete = _path_table(adj)
        assert complete
        size = max(s.bit_count() for s in table)
        assert top == {s: r for s, r in table.items() if s.bit_count() == size}
        states = sum(r.bit_count() for r in table.values())  # one tick each
        for limit in range(states + 2):
            calls = []

            def tick():
                calls.append(1)
                if len(calls) > limit:
                    raise SearchBudgetExceeded("cut", len(calls))

            cut, cut_top, cut_complete = _path_table(adj, tick)
            assert cut_complete == (limit >= states)
            if cut_complete:
                assert cut == table and cut_top == top
                continue
            size = max(s.bit_count() for s in cut)
            assert cut == {s: r for s, r in table.items() if s.bit_count() <= size}
            assert cut_top == {s: r for s, r in table.items() if s.bit_count() == size}

    def test_matches_path_search_to_six(self):
        for n_prev in range(1, 7):
            for cert in level_certs(n_prev):
                adj = graph_from_certificate(n_prev, cert).adj
                for nb in range(1 << n_prev):
                    found = contains_path(grown(adj, nb), n_prev + 1) is not None
                    assert table_says_traceable(adj, nb) == found, (n_prev, cert, nb)

    def test_new_vertex_joins_two_paths(self):
        # 2K2 has no Hamiltonian path; w on 1 and 2 gives 0-1-w-2-3
        adj = build_graph(4, [(0, 1), (2, 3)]).adj
        table = path_table(adj)
        assert 0b1111 not in table
        assert table[0b0011] == 0b0011 and table[0b1100] == 0b1100
        assert table_says_traceable(adj, 0b0110)
        path = contains_path(grown(adj, 0b0110), 5).vertices
        assert 4 in path[1:-1]

    def test_traceable_parent_untraceable_child(self):
        # w on 1 and 3 of the path 0-1-2-3-4: the leaves 0 and 4 must end a
        # Hamiltonian path, and 0-1 ... 3-4 cannot hold both 2 and w
        adj = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).adj
        assert path_table(adj)[0b11111] == 0b10001
        assert not table_says_traceable(adj, 0b01010)
        assert contains_path(grown(adj, 0b01010), 6) is None


class TestClassStats:
    def test_non_traceable_classes_to_seven(self):
        for n in range(2, 8):
            want = []
            for cert in level_certs(n):
                g = graph_from_certificate(n, cert)
                length = longest_path(g).length
                if length < n:
                    want.append((cert, length, g.degree_sequence()))
            assert oracle._graph_stats(n) == want

    def test_counts_to_eight(self):
        for n in range(2, 9):
            certs = [cert for cert, _, _ in oracle._graph_stats(n)]
            assert len(certs) == KNOWN_CLASS_COUNTS[n] - TRACEABLE_COUNTS[n]
            assert set(certs) <= set(level_certs(n))
        # the whole of what phi_bruteforce reads at n = 8, captured when every
        # child was decided by a path search
        text = json.dumps(oracle._graph_stats(8))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "a363f20d1bac137f1a48b6a246b15408d41bb93d79f8d31613d3191bf5975bba"

    def test_parent_searches_deferred(self, monkeypatch):
        # a parent's generator search runs only once a neighbourhood passes
        # both filters; children come as lists, the parent's rows as a tuple
        parents = level_certs(7)
        searches = []
        labeling = oracle.canonical_labeling

        def counted_labeling(n, rows):
            if isinstance(rows, tuple):
                searches.append(n)
            return labeling(n, rows)

        monkeypatch.setattr(oracle, "canonical_labeling", counted_labeling)
        assert parents[-1] == (1 << 21) - 1  # K7
        assert oracle._child_certs((7, parents[-1], True)) == set()
        assert searches == []
        for cert in parents:
            oracle._child_certs((7, cert, True))
        # 248 of the 1,044 parents grow a neighbourhood past both filters
        assert len(searches) == 248

    def test_parallel_matches_serial(self, monkeypatch):
        serial = oracle._graph_stats(7)
        monkeypatch.setattr(oracle, "_STATS", {})
        assert oracle._graph_stats(7, jobs=2) == serial


class TestPhiBruteforce:
    @pytest.mark.parametrize("n,d,k,want", [
        (4, 3, 3, 2),
        (6, 5, 5, 3),
        (5, 3, 2, 1),
        (7, 3, 3, 2),
    ])
    def test_frozen_values(self, n, d, k, want):
        assert phi_bruteforce(n, d, k) == want

    def test_agrees_with_closed_form_to_six(self):
        for n in range(2, 7):
            for d in range(1, n):
                for k in range(1, d + 1):
                    assert phi_bruteforce(n, d, k) == phi(PhiParams(n, d, k))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="brute force limited"):
            phi_bruteforce(5, 3, 3, max_n=10)
        with pytest.raises(ValueError, match="1 <= k <= d < n"):
            phi_bruteforce(5, 3, 4)
        with pytest.raises(ValueError, match="out of brute-force range"):
            phi_bruteforce(9, 3, 3, max_n=8)


class TestDeriveSeed:
    def test_frozen_values(self):
        assert derive_seed(0) == 16294208416658607535
        assert derive_seed(0, 1) == 12935080325729570654
        assert derive_seed(7, 3, 4, 5) == 4778854914628838918

    def test_index_separation(self):
        seen = {derive_seed(0, i, j) for i in range(20) for j in range(20)}
        assert len(seen) == 400


# sha256 over one "graph6 |X|" line per sampled instance (every valid d in
# 2..6, t in {1, 2} for lemma35, seeds 0..49), and over one "graph6 paths"
# line per merge instance (d = 3..5, seeds 0..99). The lemma suites' instances,
# and so their reports, are fixed by these streams.
SAMPLER_DIGESTS = {
    "jackson": "577899cebfbcc17a1ff41cb3acea39660c9df0715a0194f48b4588942b40026e",
    "klz": "98c0fd61802708e0f0b17e1e49974e8de1931ea04ecfadb7da56f8e57ce5aa4e",
    "essential": "fb21ed57e41e9740da80e9e2f0d21920a9ccfcaef6d8073637a0c94848f651dc",
    "lemma35": "479d7edfdca52e4a72db63f38601baaabddaa4aa91ea68d789eff13957c94414",
}
MERGE_DIGEST = "3f1765222196c61e891f32546c9b899614a50dff9beaf0bcbee08da8273d0ce4"


class TestRandomInstances:
    @pytest.mark.parametrize("profile", sorted(SAMPLER_DIGESTS))
    def test_sampler_stream_pinned(self, profile):
        h = hashlib.sha256()
        for d in range(3 if profile in ("klz", "essential") else 2, 7):
            for t in ((1, 2) if profile == "lemma35" else (1,)):
                for seed in range(50):
                    b = random_bipartite_instance(seed, d, profile, t)
                    h.update(f"{encode_graph6(b.graph)} {b.x_mask.bit_count()}\n".encode())
        assert h.hexdigest() == SAMPLER_DIGESTS[profile]

    def test_merge_stream_pinned(self):
        h = hashlib.sha256()
        for d in range(3, 6):
            for seed in range(100):
                g, family = oracle._random_merge_instance(seed, d)
                paths = [list(p.vertices) for p in family.paths]
                h.update(f"{encode_graph6(g)} {paths}\n".encode())
        assert h.hexdigest() == MERGE_DIGEST

    def test_self_consistency_all_profiles(self):
        for profile in PROFILES:
            d0 = 3 if profile in ("klz", "essential") else 2
            for d in range(d0, 6):
                for seed in range(10):
                    b = random_bipartite_instance(seed, d, profile, t=2)
                    assert hypothesis_holds(b, d, profile, t=2)

    def test_deterministic_by_seed(self):
        a = random_bipartite_instance(5, 4, "jackson")
        b = random_bipartite_instance(5, 4, "jackson")
        c = random_bipartite_instance(6, 4, "jackson")
        assert a.graph.adj == b.graph.adj and a.x_mask == b.x_mask
        assert (a.graph.adj, a.x_mask) != (c.graph.adj, c.x_mask)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="unknown profile"):
            random_bipartite_instance(0, 4, "nope")
        with pytest.raises(ValueError, match="d must be"):
            random_bipartite_instance(0, 1, "jackson")
        with pytest.raises(ValueError, match="needs d >= 3"):
            random_bipartite_instance(0, 2, "klz")
        with pytest.raises(ValueError, match="t must be"):
            random_bipartite_instance(0, 3, "lemma35", t=0)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_hypothesis_holds_rejects_narrow_window(self, profile):
        # one X vertex is below the lower |X| bound of jackson, klz and
        # essential; lemma35's window has none, and one path covers it
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        b = BipartitionView.from_x(g, [0])
        assert hypothesis_holds(b, 3, profile) == (profile == "lemma35")


class TestVerificationReport:
    def test_json_shape_and_default_runtime(self):
        report = VerificationReport(claim="c", params={"a": 1}, outcome="pass",
                                    counts={"trials": 2}, seed=9, runtime=1.25)
        payload = json.loads(report.to_json())
        assert payload["runtime"] is None
        assert payload["seed"] == 9
        timed = json.loads(report.to_json(include_runtime=True))
        assert timed["runtime"] == 1.25

    def test_json_is_key_sorted(self):
        report = VerificationReport(claim="c", params={}, outcome="pass", counts={})
        text = report.to_json()
        keys = list(json.loads(text))
        assert keys == sorted(keys)


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_formula_suite_small(self):
        report = run_suite("formula-vs-oracle", max_n=5)
        assert report.outcome == "pass"
        assert report.counts["mismatches"] == 0
        assert report.counts["triples"] == sum(
            1 for n in range(2, 6) for d in range(1, n) for k in range(1, d + 1))

    def test_formula_mismatch_names_an_extremal_graph(self, monkeypatch):
        real = oracle.phi
        monkeypatch.setattr(oracle, "phi",
                            lambda p: real(p) + ((p.n, p.d, p.k) == (5, 4, 3)))
        report = run_suite("formula-vs-oracle", max_n=5)
        assert report.outcome == "fail"
        assert report.counts["mismatches"] == 1
        assert report.params["first_mismatch"] == {
            "n": 5, "d": 4, "k": 3, "bruteforce": 2, "formula": 3}
        # the only 5-vertex graph with a degree-4 vertex and no 4-vertex path
        g = decode_graph6(report.witness)
        assert sorted(g.degree_sequence()) == [1, 1, 1, 1, 4]

    def test_formula_mismatch_witness_at_eight(self, monkeypatch):
        # fifteen classes on 8 vertices attain the maximum at (8, 5, 5); the
        # witness is the one with the smallest certificate
        real = oracle.phi
        monkeypatch.setattr(oracle, "phi",
                            lambda p: real(p) + ((p.n, p.d, p.k) == (8, 5, 5)))
        report = run_suite("formula-vs-oracle", max_n=8)
        assert report.counts["mismatches"] == 1
        assert report.params["first_mismatch"] == {
            "n": 8, "d": 5, "k": 5, "bruteforce": 3, "formula": 4}
        assert report.witness == "G??@x{"

    def test_formula_suite_range_check(self):
        with pytest.raises(ValueError, match="max-n out of range"):
            run_suite("formula-vs-oracle", max_n=12)

    def test_construction_suite_small(self):
        report = run_suite("construction-invariants", max_n=20)
        assert report.outcome == "pass"
        assert report.counts["failures"] == 0

    @pytest.mark.parametrize("suite", ["jackson", "klz", "essential"])
    def test_cycle_suites_small(self, suite):
        report = run_suite(suite, seed=1, trials=5)
        assert report.outcome == "pass"
        assert report.counts["succeeded"] == report.counts["trials"] == 20

    def test_lemma35_suite_small(self):
        report = run_suite("lemma35", seed=1, trials=4)
        assert report.outcome == "pass"
        assert report.counts["failed"] == 0

    def test_merge_suite_small(self):
        report = run_suite("merge", seed=1, trials=5)
        assert report.outcome == "pass"
        assert report.counts["failed"] == 0

    def test_theta_psi_suite(self):
        report = run_suite("theta-psi")
        assert report.outcome == "pass"
        assert report.counts["failures"] == 0

    def test_reports_deterministic_and_job_invariant(self):
        one = run_suite("jackson", seed=3, trials=4, jobs=1)
        two = run_suite("jackson", seed=3, trials=4, jobs=2)
        assert one.to_json() == two.to_json()

    def test_runtime_recorded(self):
        report = run_suite("theta-psi")
        assert report.runtime is not None and report.runtime >= 0

    def test_suite_registry(self):
        assert set(SUITES) == {"formula-vs-oracle", "construction-invariants",
                               "jackson", "klz", "essential", "lemma35",
                               "merge", "theta-psi"}

    @pytest.mark.parametrize("suite,trials", [("jackson", 0), ("merge", -5), ("lemma35", 0)])
    def test_empty_trial_run_rejected(self, suite, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_suite(suite, trials=trials)

    @pytest.mark.parametrize("max_n", [0, 1])
    def test_empty_construction_run_rejected(self, max_n):
        with pytest.raises(ValueError, match="max-n out of range"):
            run_suite("construction-invariants", max_n=max_n)

    @pytest.mark.parametrize("suite,params,unused", [
        ("theta-psi", {"trials": 0}, "trials"),
        ("theta-psi", {"max_n": 8}, "max-n"),
        ("jackson", {"trials": 2, "max_n": 1}, "max-n"),
        ("lemma35", {"max_n": 4}, "max-n"),
        ("formula-vs-oracle", {"max_n": 3, "trials": 0}, "trials"),
        ("construction-invariants", {"trials": 2}, "trials"),
    ])
    def test_unused_parameter_rejected(self, suite, params, unused):
        with pytest.raises(ValueError, match=f"suite {suite} takes no {unused}"):
            run_suite(suite, **params)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_suite("jackson", trials=3, jobs=jobs)

    def test_violated_guarantee_is_a_failure(self, monkeypatch):
        def path_cover_of_X(b, t, budget=None):
            raise LemmaViolationError("no cover")
        monkeypatch.setattr(oracle, "path_cover_of_X", path_cover_of_X)
        report = run_suite("lemma35", trials=2)
        assert report.outcome == "fail"
        assert report.counts["failed"] == report.counts["trials"] == 8
        assert report.params["first_failure"] == {"d": 3, "t": 1, "trial": 0}
        assert report.witness is not None

    def test_theta_psi_failures_use_construction_check_names(self, monkeypatch):
        monkeypatch.setattr(oracle, "contains_path",
                            lambda g, m, budget=None: PathWitness(tuple(range(m))))
        report = run_suite("theta-psi")
        assert report.outcome == "fail"
        assert report.counts == {"checks": 19, "failures": 1}
        assert report.params == {"failed_checks": ["tree(3,7,2,3): path-free"]}


class TestConstructionTable:
    def test_builders_resolved_at_call_time(self, monkeypatch):
        # a tracer patches module globals; the table must see the patched name
        calls = []
        real = oracle.build_G
        monkeypatch.setattr(oracle, "build_G", lambda *p: calls.append(p) or real(*p))
        spec = CONSTRUCTIONS["G"]
        g = spec.build(13, 4, 4)
        assert calls == [(13, 4, 4)]
        assert [name for name, ok, _ in spec.checks((13, 4, 4), g) if ok] == [
            "vertex-count", "high-degree-count", "path-free"]

