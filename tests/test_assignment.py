import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsim import acquisition as acq, assignment as asg, core
from spinsim.acceptance import _edge_relation, oracle_reconstruct, random_system

EQ13_TEXT = """\
 0  0 -1  1  0  0  1  0
 0  0  1 -1 -1  0  0  1
-1  1  0  0  1  0  0  0
 1 -1  0  0  0  0 -1  1
 0 -1  1  0  0  1 -1  0
 0  0  0  0  1  0  1 -1
 1  0  0 -1 -1  1  0  0
 0  1  0  1  0 -1  0  0
"""


@pytest.fixture(scope="module")
def eq13():
    return asg.parse_connectivity(EQ13_TEXT)


def test_parse_connectivity_validates():
    with pytest.raises(asg.AssignmentError, match="square"):
        asg.parse_connectivity("0 1\n")
    with pytest.raises(asg.AssignmentError, match="symmetric"):
        asg.parse_connectivity("0 1\n0 0\n")
    with pytest.raises(asg.AssignmentError, match="diagonal"):
        asg.parse_connectivity("1 0\n0 0\n")
    with pytest.raises(asg.AssignmentError, match="entries"):
        asg.parse_connectivity("0 2\n2 0\n")


def int_loop_parse_connectivity(text, source="<string>"):
    """Reference: every entry read by int(), then checked."""
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            row = [int(x) for x in line.split()]
        except ValueError:
            raise asg.AssignmentError(f"{source}:{ln}: malformed row {line!r}") from None
        bad = [v for v in row if v not in (-1, 0, 1)]
        if bad:
            raise asg.AssignmentError(
                f"{source}:{ln}: entries must be -1, 0 or +1, got {bad[0]}")
        rows.append(row)
    if not rows:
        raise asg.AssignmentError(f"{source}: empty connectivity matrix")
    if any(len(r) != len(rows) for r in rows):
        raise asg.AssignmentError(f"{source}: matrix is not square")
    return asg.ConnectivityMatrix(m=np.array(rows, dtype=int))


def parse_outcome(parse, text):
    """("ok", matrix, ids) or ("error", message) of one parse."""
    try:
        cm = parse(text, "m.cm")
    except asg.AssignmentError as exc:
        return ("error", str(exc))
    return ("ok", cm.m.tolist(), cm.m.dtype, cm.ids)


# canonical entries, the other spellings int() reads, and tokens it rejects
_CM_TOKENS = ("-1", "0", "1", "+1", "-0", "+0", "01", "00", "-01", "1_0", "2",
              "-2", "12345678901234567890", "x", "1.0", "--1", "١")


@st.composite
def connectivity_texts(draw):
    """Square symmetric matrices in canonical spelling, some entries
    respelled, some rows cut or comments and blank lines added."""
    t = draw(st.integers(1, 5))
    m = np.zeros((t, t), dtype=int)
    for i, j in zip(*np.triu_indices(t, 1)):
        m[i, j] = m[j, i] = draw(st.sampled_from((-1, 0, 1)))
    rows = [[str(v) for v in row] for row in m]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, t - 1)), draw(st.integers(0, t - 1))
        rows[i][j] = draw(st.sampled_from(_CM_TOKENS))
    if draw(st.booleans()):
        i = draw(st.integers(0, t - 1))
        rows[i] = rows[i][:draw(st.integers(0, t))]
    lines = [" ".join(r) for r in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# comment")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "   ")
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", " # end\n")))


@settings(max_examples=300, deadline=None)
@given(connectivity_texts())
def test_parse_connectivity_matches_int_loop(text):
    assert (parse_outcome(asg.parse_connectivity, text)
            == parse_outcome(int_loop_parse_connectivity, text))


@pytest.mark.parametrize("text", [
    "", "\n# only a comment\n", "0 +1\n+1 0\n", "00 1\n1 -0\n", "0 2\n2 0\n",
    "0 1_0\n1 0\n", "0 12345678901234567890\n1 0\n", "0 x\n1 0\n",
    "0 1\n1\n", "0 1 0\n1 0\n", "0 1\n1 0 # c\n", "0 " + "1" * 5000 + "\n1 0\n",
    "0\t1\r\n1 0\r\n", "0 -1\r-1 0", "0 -1\n-1 0\n", "0 - 1\n1 0\n", "0 1-1\n1 0\n",
    "0 -\n1 0\n", "0 -10\n1 0\n", "0 10\n10 0\n", "0 1\n\n1 0\n\n0 1\n",
    "-1 0\n0 0\n", "0 1\n-1 0\n",
])
def test_parse_connectivity_edge_texts_match_int_loop(text):
    assert (parse_outcome(asg.parse_connectivity, text)
            == parse_outcome(int_loop_parse_connectivity, text))


def test_eq13_reconstruction(eq13):
    res = asg.reconstruct_levels(eq13, 3)
    assert len(res.diagrams) >= 1
    assert not res.truncated
    ld = res.diagrams[0]
    ok, disc = asg.verify_diagram(ld, eq13)
    assert ok and not disc
    # the eight connected transitions use all edges of a (1,2,2,1)
    # sub-diamond, leaving exactly one free edge between the two untouched
    # middle levels: the slot of the unconnected ninth transition
    bases = asg.manifold_bases(3)
    touched = set()
    for lo, up in ld.edges.values():
        touched |= {lo, up}
    free = [lvl for lvl in range(bases[1], bases[3]) if lvl not in touched]
    assert len(free) == 2
    assert ld.manifold_of(free[0]) == 1 and ld.manifold_of(free[1]) == 2


def test_citrate_unique_diamond(citrate_es, citrate_cat):
    cm = acq.zcosy_connectivity(citrate_es, 0.05, citrate_cat)
    res = asg.reconstruct_levels(cm, 2)
    assert len(res.diagrams) == 1
    truth = asg.diagram_from_catalog(citrate_es, 0.05)
    assert asg.diagrams_isomorphic(res.diagrams[0], truth)


def test_single_transition_n1():
    cm = asg.ConnectivityMatrix(m=np.zeros((1, 1), dtype=int))
    res = asg.reconstruct_levels(cm, 1)
    assert len(res.diagrams) == 1
    assert res.diagrams[0].edges == {1: (0, 1)}
    assert not res.diagrams[0].ambiguous


def test_verify_detects_corruption(eq13):
    res = asg.reconstruct_levels(eq13, 3)
    ld = res.diagrams[0]
    broken = dict(ld.edges)
    # move transition 1 onto a different legal edge in the same manifolds
    lo, up = broken[1]
    man = ld.manifold_of(up)
    bases = asg.manifold_bases(3)
    other_up = next(u for u in range(bases[man], bases[man + 1]) if u != up)
    broken[1] = (lo, other_up)
    bad = asg.LevelDiagram(n=3, edges=broken)
    ok, disc = asg.verify_diagram(bad, eq13)
    assert not ok
    assert any(1 in pair[:2] for pair in disc)


def test_unsatisfiable_reports_conflict():
    # three mutually progressive transitions cannot close on two spins:
    # 1-2 and 2-3 chains force 1 and 3 two quanta apart, but +1 demands
    # they also share a level
    m = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    res = asg.reconstruct_levels(asg.ConnectivityMatrix(m=m), 2)
    assert not res.diagrams
    assert res.conflict == (1, 2, 3)


def test_ambiguous_flagging():
    # two transitions with no mutual connectivity: placements are
    # underdetermined and both are flagged
    m = np.zeros((2, 2), dtype=int)
    res = asg.reconstruct_levels(asg.ConnectivityMatrix(m=m), 2)
    assert len(res.diagrams) >= 1
    assert all(ld.ambiguous == (1, 2) for ld in res.diagrams)


def test_solution_cap_and_truncation():
    m = np.zeros((2, 2), dtype=int)
    res = asg.reconstruct_levels(asg.ConnectivityMatrix(m=m), 3,
                                 max_solutions=2)
    assert len(res.diagrams) == 2
    assert res.truncated


def test_roundtrip_random_systems():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        es = core.eigensystem(random_system(rng, n))
        cm = acq.zcosy_connectivity(es, threshold=0.0)
        truth = asg.diagram_from_catalog(es, threshold=0.0)
        res = asg.reconstruct_levels(cm, n, max_solutions=4)
        assert res.diagrams
        assert all(asg.verify_diagram(ld, cm)[0] for ld in res.diagrams)
        assert any(asg.diagrams_isomorphic(ld, truth) for ld in res.diagrams)


def test_backtracking_matches_exhaustive_oracle():
    rng = np.random.default_rng(123)
    for n, t in ((2, 3), (2, 4), (3, 4)):
        es = core.eigensystem(random_system(rng, n))
        cm_full = acq.zcosy_connectivity(es, threshold=0.0)
        pick = sorted(rng.choice(cm_full.size, size=t, replace=False).tolist())
        sub = asg.ConnectivityMatrix(
            m=cm_full.m[np.ix_(pick, pick)],
            ids=tuple(cm_full.ids[k] for k in pick))
        res = asg.reconstruct_levels(sub, n, max_solutions=100000)
        got = {ld.signature(sub.ids) for ld in res.diagrams}
        assert got == oracle_reconstruct(sub, n)



@st.composite
def random_diagrams(draw):
    """Up to 12 edges, (layer, lower, upper) with the levels numbered
    within their manifolds, repeats allowed."""
    n = draw(st.integers(1, 5))
    edge = st.integers(0, n - 1).flatmap(lambda p: st.tuples(
        st.just(p), st.integers(0, math.comb(n, p) - 1),
        st.integers(0, math.comb(n, p + 1) - 1)))
    return n, draw(st.lists(edge, min_size=1, max_size=12))


@settings(max_examples=150, deadline=None)
@given(random_diagrams())
def test_connectivity_matches_edge_relation(diagram):
    n, edges = diagram
    bases = asg.manifold_bases(n)
    lower = [bases[p] + u for p, u, v in edges]
    upper = [bases[p + 1] + v for p, u, v in edges]
    want = np.array([[0 if i == j else _edge_relation(a, b)
                      for j, b in enumerate(edges)]
                     for i, a in enumerate(edges)], dtype=int)
    assert np.array_equal(asg.connectivity(np.array(lower), np.array(upper)),
                          want)
    ld = asg.LevelDiagram(n=n, edges={k + 1: (lo, up) for k, (lo, up)
                                      in enumerate(zip(lower, upper))})
    assert np.array_equal(ld.derived_connectivity(tuple(ld.edges)), want)


def offsets_diagram_from_catalog(es, threshold):
    """Reference: levels numbered by counting the eigenstates of each
    manifold, placed at the manifold's base."""
    catalog = core.transition_catalog(es)
    ids = tuple((np.flatnonzero(catalog.observable_at(threshold)) + 1).tolist())
    n = es.n
    bases = [0]
    for k in range(n + 1):
        bases.append(bases[-1] + math.comb(n, k))
    offsets, local = {}, {}
    for idx in range(es.dim):
        man = int(round(n / 2 - es.mz[idx]))
        local[idx] = offsets.get(man, 0)
        offsets[man] = offsets.get(man, 0) + 1
    edges = {}
    for tid in ids:
        t = catalog.by_id(tid)
        man = int(round(n / 2 - es.mz[t.lower]))
        edges[tid] = (bases[man] + local[t.lower],
                      bases[man + 1] + local[t.upper])
    return asg.LevelDiagram(n=n, edges=edges)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
def test_diagram_from_catalog_matches_offsets(citrate_es, demo3_es, demo4_es):
    rng = np.random.default_rng(31)
    systems = [citrate_es, demo3_es, demo4_es] + [
        core.eigensystem(random_system(rng, n)) for n in (1, 2, 3, 4, 5, 6)]
    for es in systems:
        for threshold in (0.0, 0.05, 0.5):
            got = asg.diagram_from_catalog(es, threshold)
            want = offsets_diagram_from_catalog(es, threshold)
            assert got.n == want.n and got.edges == want.edges


def test_transition_count_guard():
    m = np.zeros((5, 5), dtype=int)
    with pytest.raises(asg.AssignmentError, match="exceed"):
        asg.reconstruct_levels(asg.ConnectivityMatrix(m=m), 2)


def test_diagram_format(eq13):
    ld = asg.reconstruct_levels(eq13, 3).diagrams[0]
    text = asg.format_diagram(ld)
    assert text.startswith("level 1 mz 1.5\n")
    assert "edge 1 " in text
    assert text.count("level") == 8
    assert text.count("edge") == 8


def cubic_search_order(m):
    """Reference: the search order with links recounted at every pick."""
    t_count = m.shape[0]
    degree = np.count_nonzero(m, axis=1)
    remaining = set(range(t_count))
    order = []
    while remaining:
        if order:
            links = {t: sum(1 for s in order if m[t, s] != 0) for t in remaining}
        else:
            links = {t: 0 for t in remaining}
        best = max(remaining, key=lambda t: (links[t], degree[t], -t))
        order.append(best)
        remaining.discard(best)
    return order


@st.composite
def signed_matrices(draw):
    t = draw(st.integers(1, 30))
    upper = draw(st.lists(st.sampled_from([-1, 0, 0, 1]),
                          min_size=t * (t - 1) // 2, max_size=t * (t - 1) // 2))
    m = np.zeros((t, t), dtype=int)
    m[np.triu_indices(t, 1)] = upper
    return m + m.T


@settings(max_examples=80, deadline=None)
@given(signed_matrices())
def test_search_order_matches_cubic_reference(m):
    assert asg._search_order(m) == cubic_search_order(m)


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
def test_search_order_matches_reference_on_zcosy():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        es = core.eigensystem(random_system(rng, n))
        m = acq.zcosy_connectivity(es, threshold=0.0).m
        assert asg._search_order(m) == cubic_search_order(m)


def full_scan_reconstruct(cm, n, max_solutions=64, analyze_conflict=True):
    """Reference: the backtracking search with each placement checked
    against every placed transition, and the first unsatisfiable triple."""
    t_count = cm.size
    caps = [math.comb(n, k) for k in range(n + 1)]
    order = asg._search_order(cm.m)
    rows = cm.m.tolist()
    ambiguous = tuple(cm.ids[i] for i in range(t_count)
                      if t_count > 1 and not np.any(cm.m[i]))
    solutions, seen, truncated = [], set(), [False]
    placed = {}
    used_levels = {k: [] for k in range(n + 1)}
    used_edges = set()
    next_handle = [0]

    def fresh(man):
        if len(used_levels[man]) >= caps[man]:
            return None
        next_handle[0] += 1
        used_levels[man].append(next_handle[0])
        return next_handle[0]

    def candidates(t):
        row = rows[t]
        neighbors = [s for s in placed if row[s] != 0]
        if not neighbors:
            return [(p, None, None)
                    for p in range((n + 1) // 2 if not placed else n)]
        p0, u0, v0 = placed[neighbors[0]]
        if row[neighbors[0]] == 1:
            cands = [c for c in ((p0 + 1, v0, None), (p0 - 1, None, u0))
                     if 0 <= c[0] < n]
        else:
            cands = [(p0, u0, None), (p0, None, v0)]
        for s in neighbors[1:]:
            ps, us, vs = placed[s]
            refined = []
            for (p, u, v) in cands:
                if row[s] == 1:
                    if p == ps + 1 and (u is None or u == vs):
                        refined.append((p, vs, v))
                    if p == ps - 1 and (v is None or v == us):
                        refined.append((p, u, us))
                elif p == ps:
                    if u is None or u == us:
                        refined.append((p, us, v))
                    if v is None or v == vs:
                        refined.append((p, u, vs))
            cands = list(dict.fromkeys(refined))
        return list(dict.fromkeys(cands))

    def search(pos):
        if pos == t_count:
            sig = asg._canonical_signature(n, [placed[i] for i in range(t_count)])
            if sig not in seen:
                seen.add(sig)
                if len(solutions) >= max_solutions:
                    truncated[0] = True
                    return
                solutions.append(list(sig))
            return
        t = order[pos]
        for p, u, v in candidates(t):
            created = []
            for man, h in ((p, u), (p + 1, v)):
                if h is None:
                    created.append((man, fresh(man)))
            if any(h is None for _, h in created):
                for man, h in created:
                    if h is not None:
                        used_levels[man].remove(h)
                continue
            u = u if u is not None else created[0][1]
            v = v if v is not None else created[-1][1]
            edge = (p, u, v)
            if (u, v) not in used_edges and all(
                    _edge_relation(edge, e) == rows[t][s] for s, e in placed.items()):
                placed[t] = edge
                used_edges.add((u, v))
                search(pos + 1)
                del placed[t]
                used_edges.discard((u, v))
            for man, h in created:
                used_levels[man].remove(h)
            if truncated[0]:
                return

    search(0)
    if not solutions:
        conflict = None
        if analyze_conflict:
            for tri in itertools.combinations(range(t_count), 3):
                sub = asg.ConnectivityMatrix(m=cm.m[np.ix_(tri, tri)])
                if not full_scan_reconstruct(sub, n, 1, False).diagrams:
                    conflict = tuple(cm.ids[k] for k in tri)
                    break
        return asg.AssignmentResult(diagrams=[], conflict=conflict)
    solutions.sort()
    return asg.AssignmentResult(
        diagrams=[asg._diagram_from_signature(n, cm.ids, sig, ambiguous)
                  for sig in solutions],
        truncated=truncated[0])


@st.composite
def thresholded_matrices(draw):
    """The Z-COSY connectivity of the lines above a threshold in a random
    3- or 4-spin system, at most 14 of them, with up to two entries
    negated or zeroed (which can make it unsatisfiable)."""
    n = draw(st.sampled_from([3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    es = core.eigensystem(random_system(rng, n))
    cm = acq.zcosy_connectivity(es, draw(st.sampled_from([0.05, 0.2, 0.5])))
    keep = sorted(draw(st.lists(st.integers(0, cm.size - 1), min_size=1,
                                max_size=14, unique=True)))
    m = cm.m[np.ix_(keep, keep)].copy()
    for _ in range(draw(st.integers(0, 2))):
        if len(keep) > 1:
            i, j = draw(st.lists(st.integers(0, len(keep) - 1), min_size=2,
                                 max_size=2, unique=True))
            m[i, j] = m[j, i] = draw(st.sampled_from([-1, 0, 1]))
    ids = tuple(cm.ids[k] for k in keep)
    return n, asg.ConnectivityMatrix(m=m, ids=ids), draw(st.sampled_from([1, 3, 64]))


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@settings(max_examples=60, deadline=None)
@given(thresholded_matrices())
def test_reconstruct_matches_full_scan_reference(case):
    n, cm, cap = case
    got = asg.reconstruct_levels(cm, n, max_solutions=cap)
    ref = full_scan_reconstruct(cm, n, max_solutions=cap)
    assert [ld.edges for ld in got.diagrams] == [ld.edges for ld in ref.diagrams]
    assert [ld.ambiguous for ld in got.diagrams] == [
        ld.ambiguous for ld in ref.diagrams]
    assert (got.truncated, got.conflict) == (ref.truncated, ref.conflict)


def changed_full_matrix(n, changes):
    """The Z-COSY connectivity of every line of a seeded random n-spin
    system, with entry (i, j) and (j, i) set to v for each (i, j, v)."""
    es = core.eigensystem(random_system(np.random.default_rng(n - 3), n))
    cm = acq.zcosy_connectivity(es, threshold=0.0)
    m = cm.m.copy()
    for i, j, v in changes:
        m[i, j] = m[j, i] = v
    return asg.ConnectivityMatrix(m=m, ids=cm.ids)


# full matrices (T = 56 and 210, as the benchmark assigns) and copies with
# one or two entries changed: a sign negated, a zero made -1, or a -1 zeroed
# (every triple stays realizable, and only the placed -1 entries rule the
# diagram out)
@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@pytest.mark.parametrize("n, changes", [
    (4, ()), (4, ((54, 55, -1),)), (4, ((0, 19, 0),)),
    (5, ()), (5, ((0, 1, -1),)), (5, ((0, 3, -1), (0, 59, 0))),
])
def test_reconstruct_matches_full_scan_at_benchmark_sizes(n, changes):
    cm = changed_full_matrix(n, changes)
    assert cm.size == math.comb(2 * n, n - 1)
    conflict = full_scan_reconstruct(cm, n).conflict
    for cap in (1, 3, 64):
        got = asg.reconstruct_levels(cm, n, max_solutions=cap)
        ref = full_scan_reconstruct(cm, n, max_solutions=cap,
                                    analyze_conflict=False)
        assert [ld.edges for ld in got.diagrams] == [
            ld.edges for ld in ref.diagrams]
        assert [ld.ambiguous for ld in got.diagrams] == [
            ld.ambiguous for ld in ref.diagrams]
        assert (got.truncated, got.conflict) == (ref.truncated, conflict)
        assert bool(got.diagrams) == (not changes)


# the first unsatisfiable triples, as a scan over all triples in order finds them
@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
@pytest.mark.parametrize("n, changes, first", [
    (4, ((54, 55, -1),), (4, 55, 56)), (5, ((208, 209, 1),), (160, 209, 210))])
def test_conflict_analysis_searches_each_sign_pattern_once(n, changes, first,
                                                           monkeypatch):
    cm = changed_full_matrix(n, changes)
    search = asg.reconstruct_levels
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(asg, "reconstruct_levels", counting)
    assert search(cm, n).conflict == first
    assert len(calls) <= 27


@pytest.mark.filterwarnings("ignore:.*best-overlap labeling")
def test_search_deeper_than_the_stack_is_one_error():
    """The full Z-COSY matrix of a 7-spin system has 3003 lines, and the
    search needs one stack frame per placed line."""
    es = core.eigensystem(random_system(np.random.default_rng(3), 7))
    cm = acq.zcosy_connectivity(es, threshold=0.0)
    assert cm.size == 3003
    with pytest.raises(asg.AssignmentError,
                       match=r"^3003 transitions are too many for the level "
                             r"search, .*\(recursion limit \d+\)$"):
        asg.reconstruct_levels(cm, 7)
