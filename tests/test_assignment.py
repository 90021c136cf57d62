import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsim import acquisition as acq, assignment as asg, core
from spinsim.acceptance import oracle_reconstruct, random_system

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
    bases = ld.manifold_bases()
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
    truth = asg.diagram_from_catalog(citrate_es, citrate_cat)
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
    bases = ld.manifold_bases()
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
        cat = core.transition_catalog(es, threshold=0.0)
        cm = acq.zcosy_connectivity(es, threshold=0.0, catalog=cat)
        truth = asg.diagram_from_catalog(es, cat)
        res = asg.reconstruct_levels(cm, n, max_solutions=4)
        assert res.diagrams
        assert all(asg.verify_diagram(ld, cm)[0] for ld in res.diagrams)
        assert any(asg.diagrams_isomorphic(ld, truth) for ld in res.diagrams)


def test_backtracking_matches_exhaustive_oracle():
    rng = np.random.default_rng(123)
    for n, t in ((2, 3), (2, 4), (3, 4)):
        es = core.eigensystem(random_system(rng, n))
        cat = core.transition_catalog(es, threshold=0.0)
        cm_full = acq.zcosy_connectivity(es, threshold=0.0, catalog=cat)
        pick = sorted(rng.choice(cm_full.size, size=t, replace=False).tolist())
        sub = asg.ConnectivityMatrix(
            m=cm_full.m[np.ix_(pick, pick)],
            ids=tuple(cm_full.ids[k] for k in pick))
        res = asg.reconstruct_levels(sub, n, max_solutions=100000)
        got = set()
        for ld in res.diagrams:
            bases = ld.manifold_bases()
            seq = []
            for tid in sub.ids:
                lo, up = ld.edges[tid]
                p = ld.manifold_of(lo)
                seq.append((p, lo - bases[p], up - bases[p + 1]))
            sig, _ = asg._canonical_signature(n, seq)
            got.add(sig)
        assert got == oracle_reconstruct(sub, n)


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
        cat = core.transition_catalog(es, threshold=0.0)
        m = acq.zcosy_connectivity(es, threshold=0.0, catalog=cat).m
        assert asg._search_order(m) == cubic_search_order(m)
