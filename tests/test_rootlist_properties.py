"""Properties of the root-list stages over any finite RootList.

Coordinates come either from a quarter-step grid, which gives exact ties
and coincident roots, or from floats in [-1e3, 1e3]. The runs are
derandomized, so every run checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from laggcd import (
    ClusterParams,
    RootList,
    assemble_gcd,
    build_graph,
    cluster,
    cluster_dnc,
    cluster_heuristic,
    exact_mwm,
    greedy_mwm,
    reconstruct,
)
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
@given(root_lists, sigmas)
def test_dnc_conserves_multiplicity(roots, sigma):
    out = cluster_dnc(roots, sigma)
    assert out.total_multiplicity() == roots.total_multiplicity()
    assert len(out) <= len(roots)


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


def assert_checked_root_list(out):
    """out is what the checking constructor makes of its own entries."""
    assert RootList(out.entries) == out
    assert all(type(r) is complex for r, _ in out)
    assert all(type(m) is int for _, m in out)


@PROPERTY
@given(
    root_lists,
    root_lists,
    sigmas,
    st.integers(1, 4),
    st.sampled_from(["dnc", "heuristic"]),
    st.sampled_from([greedy_mwm, exact_mwm]),
)
def test_stage_outputs_are_checked_root_lists(
    roots_p, roots_q, sigma, max_multiplicity, strategy, matcher
):
    # the stages build their outputs without RootList's checks
    params = ClusterParams(
        sigma=sigma, max_multiplicity=max_multiplicity, strategy=strategy
    )
    p, q = cluster(roots_p, params), cluster(roots_q, params)
    graph = build_graph(p, q, sigma)
    match = matcher(graph)
    gcd = assemble_gcd(match, graph)
    p_tilde = reconstruct(p, match, "left", gcd)
    q_tilde = reconstruct(q, match, "right", gcd)
    for out in (p, q, gcd, p_tilde, q_tilde):
        assert_checked_root_list(out)


@PROPERTY
@given(root_lists)
def test_numpy_complex_roots_become_python_complex(roots):
    out = RootList((np.complex128(r), m) for r, m in roots)
    assert out == roots
    assert_checked_root_list(out)
