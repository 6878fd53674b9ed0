"""Properties of the root-list stages over any finite RootList.

Coordinates come either from a quarter-step grid, which gives exact ties
and coincident roots, or from floats in [-1e3, 1e3]. The runs are
derandomized, so every run checks the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from laggcd import ClusterParams, RootList, build_graph, cluster_dnc, cluster_heuristic
from test_geometry_parity import oracle_edges

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

coords = st.one_of(
    st.integers(-40, 40).map(lambda k: k / 4),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
root_lists = st.lists(
    st.tuples(st.builds(complex, coords, coords), st.integers(1, 3)), max_size=30
).map(RootList)
sigmas = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 50.0))


@PROPERTY
@given(root_lists, sigmas, st.booleans())
def test_dnc_conserves_multiplicity(roots, sigma, fixpoint):
    out = cluster_dnc(roots, sigma, fixpoint=fixpoint)
    assert out.total_multiplicity() == roots.total_multiplicity()
    assert len(out) <= len(roots)
    if fixpoint:
        assert cluster_dnc(out, sigma) == out


@PROPERTY
@given(root_lists, sigmas, st.integers(1, 5))
def test_heuristic_conserves_multiplicity(roots, sigma, max_multiplicity):
    params = ClusterParams(
        sigma=sigma, max_multiplicity=max_multiplicity, strategy="heuristic"
    )
    out = cluster_heuristic(roots, params)
    assert out.total_multiplicity() == roots.total_multiplicity()
    assert all(m <= max_multiplicity for _, m in out)


@PROPERTY
@given(root_lists, root_lists, sigmas)
def test_build_graph_equals_all_pairs(roots_p, roots_q, sigma):
    assert build_graph(roots_p, roots_q, sigma).edges == oracle_edges(
        roots_p, roots_q, sigma
    )
