"""Answer checks that do not trust pathforce.

The graph6 codec, the witness validation and the parsing of command output
here are the benchmark's own code. A benchmark input is encoded by this
module, and every witness pathforce returns is checked against the edge set
the benchmark generated, never against pathforce's own decoding of it.

An answer's invariant is the part a correct implementation may not change:
the exit-code class, whether the answer is NONE or a witness, and its
length. Witness vertex order is left out on purpose, so that a new engine
may return a different witness of the same length.
"""

from __future__ import annotations

import json

EXIT_OK = 0
EXIT_INCONCLUSIVE = 3


class CheckFailure(Exception):
    """An answer that is wrong, malformed or inconsistent with its reference."""


def encode_graph6(n: int, edges: set[tuple[int, int]]) -> str:
    """graph6 text for n <= 62 vertices; edges are pairs (u, v) with u < v."""
    if not 0 <= n <= 62:
        raise ValueError("the benchmark encodes only n <= 62")
    out = [chr(63 + n)]
    acc = width = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | ((i, j) in edges)
            width += 1
            if width == 6:
                out.append(chr(63 + acc))
                acc = width = 0
    if width:
        out.append(chr(63 + (acc << (6 - width))))
    return "".join(out)


def decode_graph6(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Vertex count and edge set of a graph6 line with n <= 62."""
    codes = [ord(c) - 63 for c in text.strip()]
    if not codes or not 0 <= codes[0] <= 62 or any(not 0 <= c <= 63 for c in codes):
        raise CheckFailure(f"not a small graph6 line: {text[:40]!r}")
    n = codes[0]
    nbits = n * (n - 1) // 2
    if len(codes) - 1 != (nbits + 5) // 6:
        raise CheckFailure("graph6 body length does not match its vertex count")
    stream = [c >> s & 1 for c in codes[1:] for s in (5, 4, 3, 2, 1, 0)]
    edges = set()
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if stream[idx]:
                edges.add((i, j))
            idx += 1
    return n, edges


def degrees(n: int, edges: set[tuple[int, int]]) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _has_edge(edges: set[tuple[int, int]], a: int, b: int) -> bool:
    return (min(a, b), max(a, b)) in edges


def validate_walk(n: int, edges: set[tuple[int, int]], vertices: list[int],
                  closed: bool) -> None:
    """Raise unless vertices form a path (or, if closed, a cycle) of the graph."""
    if not vertices:
        raise CheckFailure("empty witness")
    if any(not isinstance(v, int) or not 0 <= v < n for v in vertices):
        raise CheckFailure("witness vertex out of range")
    if len(set(vertices)) != len(vertices):
        raise CheckFailure("witness repeats a vertex")
    pairs = list(zip(vertices, vertices[1:]))
    if closed:
        if len(vertices) < 3:
            raise CheckFailure("cycle witness shorter than 3 vertices")
        pairs.append((vertices[-1], vertices[0]))
    for a, b in pairs:
        if not _has_edge(edges, a, b):
            raise CheckFailure(f"witness uses non-edge ({a}, {b})")


def _expect_exit(code: int, allowed: tuple[int, ...]) -> None:
    if code not in allowed:
        raise CheckFailure(f"unexpected exit code {code}")


def longest_path_invariant(code: int, out: str, n: int,
                           edges: set[tuple[int, int]], budgeted: bool) -> str:
    """Invariant of `solve longest-path --json`: "exit:length"."""
    _expect_exit(code, (EXIT_OK, EXIT_INCONCLUSIVE) if budgeted else (EXIT_OK,))
    payload = json.loads(out)
    length, witness = payload["length"], payload["witness"]
    if payload["optimal"] != (code == EXIT_OK):
        raise CheckFailure("optimal flag disagrees with the exit code")
    if witness is None:
        if length != 0 or n != 0:
            raise CheckFailure("no witness for a non-empty graph")
    else:
        validate_walk(n, edges, witness, closed=False)
        if len(witness) != length:
            raise CheckFailure(f"length {length} but witness has {len(witness)} vertices")
    return f"{code}:{length}"


def longest_cycle_invariant(code: int, out: str, n: int,
                            edges: set[tuple[int, int]]) -> str:
    """Invariant of budgeted `solve longest-cycle --json`: "exit:length" or "3:-"."""
    _expect_exit(code, (EXIT_OK, EXIT_INCONCLUSIVE))
    if code == EXIT_INCONCLUSIVE:
        if not out.startswith("INCONCLUSIVE"):
            raise CheckFailure("exit 3 without an INCONCLUSIVE line")
        return "3:-"
    payload = json.loads(out)
    length, witness = payload["length"], payload["witness"]
    if witness is None:
        if length != 0:
            raise CheckFailure("cycle length without a witness")
    else:
        validate_walk(n, edges, witness, closed=True)
        if len(witness) != length:
            raise CheckFailure(f"length {length} but witness has {len(witness)} vertices")
    return f"0:{length}"


def phi_invariant(code: int, out: str, n: int, d: int, k: int) -> str:
    """Invariant of `phi N D K --conjecture`: "0:phi/bound" plus "R" if it refutes."""
    _expect_exit(code, (EXIT_OK,))
    lines = out.splitlines()
    prefix = f"phi({n},{d},{k}) = "
    if len(lines) not in (2, 3) or not lines[0].startswith(prefix) \
            or not lines[1].startswith("conjecture bound = "):
        raise CheckFailure(f"malformed phi output: {out!r}")
    value = int(lines[0][len(prefix):])
    bound = int(lines[1][len("conjecture bound = "):])
    refutes = len(lines) == 3
    if refutes != (value > bound) or (refutes and lines[2] != "REFUTES conjectured bound"):
        raise CheckFailure("REFUTES line disagrees with the printed values")
    return f"0:{value}/{bound}" + ("R" if refutes else "")


def construct_invariant(code: int, out: str, degree: int) -> str:
    """Invariant of `construct KIND ... --verify`: "0:n<N>:h<high>:<checks>ok".

    The vertex count and the number of vertices of degree >= `degree` come
    from the benchmark's own decoding of the printed graph6 line.
    """
    _expect_exit(code, (EXIT_OK,))
    lines = out.splitlines()
    if len(lines) < 2:
        raise CheckFailure("construct printed no checks")
    n, edges = decode_graph6(lines[0])
    high = sum(1 for x in degrees(n, edges) if x >= degree)
    for line in lines[1:]:
        name, _, rest = line.partition(": ")
        if not rest.startswith("ok"):
            raise CheckFailure(f"check {name} did not pass: {line!r}")
    return f"0:n{n}:h{high}:{len(lines) - 1}ok"


def oracle_report(code: int, out: str) -> dict:
    """Parsed `oracle SUITE --json` report that passed."""
    _expect_exit(code, (EXIT_OK,))
    report = json.loads(out)
    if report["outcome"] != "pass":
        raise CheckFailure(f"suite outcome {report['outcome']}")
    return report


def _reference_exact(reference: str) -> str | None:
    """The exact length a reference "exit:length[:e<exact>|:e?]" knows, or None."""
    parts = reference.split(":")
    if len(parts) == 3:
        return None if parts[2] == "e?" else parts[2][1:]
    return parts[1] if parts[0] == str(EXIT_OK) else None


def compare_longest_path(invariant: str, reference: str, budgeted: bool) -> None:
    """Compare "exit:length" with its reference.

    An unbudgeted answer must equal the reference. A budgeted answer may
    change class: an optimal one must have the exact length (or at least the
    recorded lower bound when the exact length is unknown), and an
    INCONCLUSIVE one may not claim more than the exact length.
    """
    if not budgeted:
        if invariant != reference:
            raise CheckFailure(f"answer {invariant} differs from reference {reference}")
        return
    code, length = (int(x) for x in invariant.split(":"))
    exact = _reference_exact(reference)
    if exact is None:
        if code == EXIT_OK and length < int(reference.split(":")[1]):
            raise CheckFailure(f"optimal length {length} below recorded bound {reference}")
    elif length > int(exact) or (code == EXIT_OK and length != int(exact)):
        raise CheckFailure(f"answer {invariant} but the exact length is {exact}")


def compare_cycle(invariant: str, reference: str) -> None:
    """Budgeted cycle answers: INCONCLUSIVE is always honest; a conclusive
    length must equal the exact one whenever the reference knows it."""
    exact = _reference_exact(reference)
    if invariant != "3:-" and exact is not None and invariant != f"0:{exact}":
        raise CheckFailure(f"answer {invariant} but the exact length is {exact}")
