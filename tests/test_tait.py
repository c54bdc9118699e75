import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpoly.activity import ActivityWord
from braidpoly.braid import BraidWord, parse_braid
from braidpoly.diagram import build_diagram
from braidpoly.errors import TooManyCrossings
from braidpoly.laurent import LaurentPoly1
from braidpoly.oracle import bracket_state_sum, jones_state_sum, writhe_correction
from braidpoly.tait import (
    TaitEdge,
    TaitGraph,
    build_tait,
    dual_tait,
    spanning_trees,
    tait_to_dot,
    thistlethwaite_sum,
    tree_activity_word,
)
from words import connected_words, family_words


def tait_of(text: str):
    d = build_diagram(parse_braid(text))
    return build_tait(d), d


def test_single_crossing_graph():
    g, _ = tait_of("s1")
    assert len(g.vertices) == 1
    assert len(g.edges) == 1
    e = g.edges[0]
    assert e.sign == 1
    assert e.endpoints[0] == e.endpoints[1]


def test_hopf_graph():
    g, _ = tait_of("s1^2")
    assert len(g.vertices) == 2
    assert len(g.edges) == 2
    assert all(e.sign == 1 for e in g.edges)
    assert g.edges[0].endpoints[0] != g.edges[0].endpoints[1]
    assert set(g.edges[0].endpoints) == set(g.edges[1].endpoints)


def test_trefoil_graph_is_a_triangle():
    g, _ = tait_of("s1^3")
    assert len(g.vertices) == 3
    assert len(g.edges) == 3
    assert all(e.sign == 1 for e in g.edges)
    degree = {v: 0 for v in g.vertices}
    for e in g.edges:
        assert e.endpoints[0] != e.endpoints[1]
        for v in e.endpoints:
            degree[v] += 1
    assert set(degree.values()) == {2}


def test_trefoil_trees_and_words():
    g, _ = tait_of("s1^3")
    trees = list(spanning_trees(g))
    assert len(trees) == 3
    words = {tree_activity_word(g, t) for t in trees}
    assert words == {
        ActivityWord("LLd"),
        ActivityWord("LdD"),
        ActivityWord(["l", "D", "D"]),
    }


def test_trefoil_sum():
    g, _ = tait_of("s1^3")
    assert thistlethwaite_sum(g) == LaurentPoly1({-7: 1, -3: -1, 5: -1})


def test_single_crossing_sum():
    g, _ = tait_of("s1")
    trees = list(spanning_trees(g))
    assert trees == [frozenset()]
    assert tree_activity_word(g, trees[0]) == ActivityWord(["l"])
    assert thistlethwaite_sum(g) == LaurentPoly1({3: -1})


def test_negative_torus_words_are_barred():
    g, _ = tait_of("s1^-3")
    assert all(e.sign == -1 for e in g.edges)
    for t in spanning_trees(g):
        assert all(letter.endswith("~") for letter in tree_activity_word(g, t))
    assert thistlethwaite_sum(g) == LaurentPoly1({7: 1, 3: -1, -5: -1})


def test_torus_cycle_words_match_formula():
    for q in range(2, 7):
        g, _ = tait_of(f"s1^{q}")
        words = sorted(str(tree_activity_word(g, t)) for t in spanning_trees(g))
        expected = {ActivityWord(["l"] + ["D"] * (q - 1))}
        for k in range(1, q):
            expected.add(ActivityWord(["d"] + ["L"] * k + ["D"] * (q - 1 - k)))
        assert words == sorted(str(w) for w in expected)


def test_tree_count_on_cycles():
    for q in range(2, 8):
        g, _ = tait_of(f"s1^{q}")
        assert sum(1 for _ in spanning_trees(g)) == q


def test_tree_cap():
    g, _ = tait_of("s1^3")
    with pytest.raises(TooManyCrossings):
        spanning_trees(g, max_edges=2)
    with pytest.raises(TooManyCrossings):
        thistlethwaite_sum(g, max_edges=2)


def trees_by_brute_force(g) -> list[frozenset]:
    """Every (|V| - 1)-edge subset that is a tree, in lexicographic order."""
    index = {v: i for i, v in enumerate(g.vertices)}
    out = []
    for subset in combinations(range(len(g.edges)), len(g.vertices) - 1):
        root = list(range(len(g.vertices)))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for pos in subset:
            u, v = (find(index[x]) for x in g.edges[pos].endpoints)
            if u == v:
                break
            root[u] = v
        else:
            out.append(frozenset(subset))
    return out


def assert_stream_matches_brute_force(g):
    # the stream takes each edge before leaving it out, so its trees come
    # in the lexicographic order of their sorted edge positions
    assert list(spanning_trees(g)) == trees_by_brute_force(g)


@settings(max_examples=60, deadline=None)
@given(connected_words())
def test_tree_stream_matches_brute_force_in_order(word):
    d = build_diagram(word)
    assert_stream_matches_brute_force(build_tait(d))
    assert_stream_matches_brute_force(dual_tait(d))


def test_tree_stream_matches_brute_force_on_fixed_graphs():
    for text in ("s1", "s1^6", "s1^3 s2^-2 s1 s3^2 s2^-1", "s1^-4 s2^-3 s3^-5", "s1 s2 s3 s4"):
        d = build_diagram(parse_braid(text))
        assert_stream_matches_brute_force(build_tait(d))
        assert_stream_matches_brute_force(dual_tait(d))
    # a disconnected graph has no tree, and a lone vertex one empty tree
    apart = TaitGraph((0, 1, 2), (TaitEdge(1, (0, 1), 1), TaitEdge(2, (1, 1), -1)))
    assert list(spanning_trees(apart)) == trees_by_brute_force(apart) == []
    lone = TaitGraph((0,), (TaitEdge(1, (0, 0), 1),))
    assert list(spanning_trees(lone)) == trees_by_brute_force(lone) == [frozenset()]


def letters_by_definition(g, tree) -> list[str]:
    """Each edge's letter from the definitions: a cut scan in the tree, a tree path outside."""
    adj = {v: [] for v in g.vertices}
    for pos in tree:
        u, v = g.edges[pos].endpoints
        adj[u].append((v, pos))
        adj[v].append((u, pos))

    def reach(start, skip):
        """Vertices and tree-edge paths reachable from start without edge ``skip``."""
        paths, stack = {start: ()}, [start]
        while stack:
            x = stack.pop()
            for y, pos in adj[x]:
                if pos != skip and y not in paths:
                    paths[y] = paths[x] + (pos,)
                    stack.append(y)
        return paths

    letters = []
    for pos, edge in enumerate(g.edges):
        u, v = edge.endpoints
        if pos in tree:
            side = reach(u, pos)
            cut = [j for j, e in enumerate(g.edges) if (e.endpoints[0] in side) != (e.endpoints[1] in side)]
            base = "L" if min(cut) == pos else "D"
        else:
            cycle = set(reach(u, None)[v]) | {pos}
            base = "l" if min(cycle) == pos else "d"
        letters.append(base if edge.sign > 0 else base + "~")
    return letters


def assert_letters_match_definitions(g):
    # with only edge i negative, the word's one barred letter is edge i's
    marked = [
        TaitGraph(g.vertices, tuple(
            TaitEdge(e.crossing_id, e.endpoints, -1 if j == i else 1) for j, e in enumerate(g.edges)
        ))
        for i in range(len(g.edges))
    ]
    for tree in spanning_trees(g):
        expected = letters_by_definition(g, tree)
        assert tree_activity_word(g, tree) == ActivityWord(expected)
        for i, h in enumerate(marked):
            barred = [x for x in tree_activity_word(h, tree) if x.endswith("~")]
            assert barred == [expected[i].rstrip("~") + "~"], (tree, i)


@settings(max_examples=60, deadline=None)
@given(st.one_of(family_words(max_strands=5, max_exponent=3), connected_words()))
def test_tree_letters_match_their_definitions(word):
    d = build_diagram(word)
    assert_letters_match_definitions(build_tait(d))
    assert_letters_match_definitions(dual_tait(d))


def test_tree_letters_match_their_definitions_with_loops_and_parallel_edges():
    for text in ("s1 s2 s1 s2", "s1^2 s2^-3 s1 s3^2 s2^-1"):
        d = build_diagram(parse_braid(text))
        for g in (build_tait(d), dual_tait(d)):
            ends = [e.endpoints for e in g.edges]
            assert any(u == v for u, v in ends) or len(set(map(frozenset, ends))) < len(ends)
            assert_letters_match_definitions(g)


def test_tree_activity_word_refuses_a_set_that_is_not_a_spanning_tree():
    # a triangle 1-2-3 with a pendant edge 3-4
    g = TaitGraph((1, 2, 3, 4), tuple(
        TaitEdge(k, ends, 1) for k, ends in enumerate(((1, 2), (2, 3), (3, 1), (3, 4)), 1)
    ))
    assert tree_activity_word(g, frozenset({0, 1, 3})) == ActivityWord(["L", "L", "d", "L"])
    for tree in ({0, 1, 2, 3}, {0, 1}):
        with pytest.raises(ValueError, match="cannot span a tree on 4 vertices"):
            tree_activity_word(g, frozenset(tree))
    with pytest.raises(ValueError, match="hold a cycle"):
        tree_activity_word(g, frozenset({0, 1, 2}))


def test_tree_stream_costs_what_it_lists():
    # a stream that leaves out edges the later ones cannot replace
    # explores dead branches: about 12 s on this word
    g, _ = tait_of("s1^18 s2^18")
    start = time.perf_counter()
    assert sum(1 for _ in spanning_trees(g, max_edges=36)) == 324
    assert time.perf_counter() - start < 0.5


def test_dual_of_trefoil():
    g, d = tait_of("s1^3")
    dual = dual_tait(d)
    assert len(dual.vertices) == 2
    assert len(dual.edges) == 3
    assert all(e.sign == -1 for e in dual.edges)
    assert all(set(e.endpoints) == set(dual.vertices) for e in dual.edges)
    assert thistlethwaite_sum(dual) == thistlethwaite_sum(g)


def test_dot_export():
    g, _ = tait_of("s1^3")
    dot = tait_to_dot(g)
    assert dot.startswith("graph tait {")
    assert dot.count(" -- ") == 3
    assert dot.count('label="+"') == 3


@settings(max_examples=40, deadline=None)
@given(connected_words())
def test_tree_sum_matches_state_sum(word):
    d = build_diagram(word)
    g = build_tait(d)
    assert thistlethwaite_sum(g) == bracket_state_sum(d)


@settings(max_examples=40, deadline=None)
@given(connected_words())
def test_jones_via_trees(word):
    g = build_tait(build_diagram(word))
    assert writhe_correction(word.writhe) * thistlethwaite_sum(g) == jones_state_sum(
        word
    )


@settings(max_examples=25, deadline=None)
@given(family_words(max_strands=3, max_exponent=3))
def test_word_shape_invariant(word):
    g = build_tait(build_diagram(word))
    tree_letters = {"L", "D", "L~", "D~"}
    for t in spanning_trees(g):
        w = tree_activity_word(g, t)
        assert len(w) == len(g.edges)
        assert sum(w.count(x) for x in tree_letters) == len(g.vertices) - 1


@settings(max_examples=25, deadline=None)
@given(family_words(max_strands=3, max_exponent=3), st.randoms(use_true_random=False))
def test_sum_is_edge_order_independent(word, rng):
    g = build_tait(build_diagram(word))
    order = list(range(len(g.edges)))
    rng.shuffle(order)
    reordered = TaitGraph(g.vertices, tuple(g.edges[i] for i in order))
    assert thistlethwaite_sum(reordered) == thistlethwaite_sum(g)


@settings(max_examples=25, deadline=None)
@given(family_words(max_strands=3, max_exponent=3))
def test_duality_preserves_sum(word):
    d = build_diagram(word)
    g = build_tait(d)
    dual = dual_tait(d)
    assert len(dual.edges) == len(g.edges)
    assert len(dual.vertices) + len(g.vertices) == len(d.faces)
    assert thistlethwaite_sum(dual) == thistlethwaite_sum(g)
