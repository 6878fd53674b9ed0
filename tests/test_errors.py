"""Error types: option checks, exit codes, and typed numerical failures."""

import math

import numpy as np
import pytest

import laggcd
from laggcd import (
    ClusterParams,
    DegenerateInputError,
    Edge,
    EigensolveFailureError,
    InvalidParameterError,
    LagGcdError,
    LagrangePoly,
    Matching,
    RootList,
    ZeroPolynomialError,
    approximate_gcd,
    barycentric_weights,
    build_graph,
    build_pencil,
    certify_distance,
    cluster_dnc,
    cluster_heuristic,
    from_roots,
    greedy_mwm,
    reconstruct,
    root_pseudometric,
    roots,
)

NAN = math.nan
INF = math.inf


def _poly():
    return LagrangePoly([0.0, 1.0, 2.0], [1.0, 0.0, 3.0])


def _empty_matching():
    return greedy_mwm(build_graph(RootList(), RootList(), 1.0))


OPTION_ERRORS = {
    "params_sigma": lambda: ClusterParams(sigma=-1.0),
    "params_sigma_nan": lambda: ClusterParams(sigma=NAN),
    "params_max_mult": lambda: ClusterParams(sigma=1.0, max_multiplicity=0),
    "params_max_mult_nan": lambda: ClusterParams(sigma=1.0, max_multiplicity=NAN),
    "params_max_mult_float": lambda: ClusterParams(sigma=1.0, max_multiplicity=2.5),
    "params_max_mult_np_float": lambda: ClusterParams(
        sigma=1.0, max_multiplicity=np.float64(3.0)
    ),
    "params_max_mult_str": lambda: ClusterParams(sigma=1.0, max_multiplicity="3"),
    "params_strategy": lambda: ClusterParams(sigma=1.0, strategy="bogus"),
    "dnc_sigma": lambda: cluster_dnc(RootList(), -1.0),
    "dnc_sigma_nan": lambda: cluster_dnc(RootList(), NAN),
    "graph_sigma": lambda: build_graph(RootList(), RootList(), -1.0),
    "graph_sigma_nan": lambda: build_graph(RootList(), RootList(), NAN),
    "metric_rho": lambda: root_pseudometric([1.0], [1.0], rho="median"),
    "metric_nan_sum": lambda: root_pseudometric([NAN, 1.0], [0.0, 1.0]),
    "metric_nan_max": lambda: root_pseudometric([NAN, 1.0], [0.0, 1.0], rho="max"),
    "metric_inf_sum": lambda: root_pseudometric([INF, 1.0], [0.0, 1.0]),
    "metric_inf_max": lambda: root_pseudometric([INF, 1.0], [0.0, 1.0], rho="max"),
    # inf == inf, so only a check before the pairing of equal roots sees it
    "metric_inf_shared": lambda: root_pseudometric([INF, 1.0], [INF, 1.0]),
    "metric_complex_nan": lambda: root_pseudometric([0.0], [complex(0.0, NAN)]),
    "certify_sigma_nan": lambda: certify_distance([0.0], RootList([(0.0, 1)]), NAN),
    "certify_sigma_negative": lambda: certify_distance(
        [0.0], RootList([(0.0, 1)]), -1.0
    ),
    "agcd_sigma_cert_nan": lambda: approximate_gcd(
        _poly(), _poly(), ClusterParams(sigma=0.1), sigma=NAN
    ),
    "agcd_matcher": lambda: approximate_gcd(
        _poly(), _poly(), ClusterParams(sigma=0.1), matcher="bogus"
    ),
    "reconstruct_side": lambda: reconstruct(
        RootList(), _empty_matching(), "middle", RootList()
    ),
    "weights_nodes_shape": lambda: barycentric_weights([[0.0, 1.0]]),
    "poly_ndim": lambda: LagrangePoly([[0.0, 1.0]], [[1.0, 2.0]]),
    "poly_lengths": lambda: LagrangePoly([0.0, 1.0], [1.0]),
    "from_roots_nodes_shape": lambda: from_roots(RootList(), []),
    "pencil_degree": lambda: build_pencil(LagrangePoly([0.0], [1.0])),
    "roots_degree": lambda: roots(LagrangePoly([0.0], [1.0])),
    "agcd_degree": lambda: approximate_gcd(
        LagrangePoly([0.0], [1.0]), _poly(), ClusterParams(sigma=0.1)
    ),
    "matching_shared_vertex": lambda: Matching(
        (Edge(0, 0, 1, 0.0), Edge(0, 1, 1, 0.0)), 2
    ),
    "matching_total": lambda: Matching((Edge(0, 0, 1, 0.0),), 2),
    "rootlist_nan": lambda: RootList([(NAN, 1)]),
    "rootlist_complex_nan": lambda: RootList([(0.0, 1), (complex(1.0, NAN), 1)]),
    "rootlist_inf": lambda: RootList([(INF, 1)]),
    "rootlist_minus_inf": lambda: RootList([(-INF, 2)]),
    "rootlist_complex_inf": lambda: RootList([(complex(INF, 1.0), 1)]),
    "rootlist_mult_zero": lambda: RootList([(1.0, 0)]),
    "rootlist_mult_float": lambda: RootList([(0.0, 1.5)]),
    "rootlist_mult_str": lambda: RootList([(0.0, "2")]),
    "rootlist_mult_nan": lambda: RootList([(0.0, NAN)]),
    "rootlist_root_str": lambda: RootList([("1", 1)]),
    "rootlist_root_complex_str": lambda: RootList([("2+3j", 1)]),
    "rootlist_root_word": lambda: RootList([("x", 1)]),
    "rootlist_root_bytes": lambda: RootList([(b"1", 1)]),
    "rootlist_root_none": lambda: RootList([(None, 1)]),
    "poly_nan_node": lambda: LagrangePoly([0.0, NAN, 2.0], [1.0, 2.0, 3.0]),
    "poly_inf_node": lambda: LagrangePoly([0.0, INF, 2.0], [1.0, 2.0, 3.0]),
    "poly_inf_value": lambda: LagrangePoly([0.0, 1.0, 2.0], [1.0, INF, 3.0]),
    "poly_complex_nan_value": lambda: LagrangePoly([0.0, 1.0], [1.0, complex(0, NAN)]),
    "weights_complex_nan_node": lambda: barycentric_weights([0.0, complex(1.0, NAN)]),
    # the merged centroid (1e308 + 1.5e308) / 2 overflows to inf
    "dnc_centroid_overflow": lambda: cluster_dnc(
        RootList([(1e308, 1), (1.5e308, 1)]), 1e308
    ),
}


@pytest.mark.parametrize("call", OPTION_ERRORS.values(), ids=OPTION_ERRORS.keys())
def test_option_errors_are_typed(call):
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert isinstance(exc.value, LagGcdError)
    assert isinstance(exc.value, ValueError)
    assert exc.value.exit_code == 2


def test_exit_code_table():
    numeric = {EigensolveFailureError, DegenerateInputError, ZeroPolynomialError}
    classes = [
        obj
        for obj in vars(laggcd).values()
        if isinstance(obj, type) and issubclass(obj, LagGcdError)
    ]
    assert numeric < set(classes)
    for cls in classes:
        assert cls.exit_code == (3 if cls in numeric else 2), cls.__name__


def test_roots_of_nan_values_is_input_error():
    # the values are checked where the polynomial is built, so the
    # eigensolver never sees them
    with pytest.raises(InvalidParameterError) as exc:
        roots(LagrangePoly([0.0, 1.0, 2.0], [1.0, NAN, 5.0]))
    assert exc.value.exit_code == 2


def test_overflowing_node_differences_are_degenerate():
    # finite nodes whose difference 2e308 overflows; the suite turns the
    # RuntimeWarning of an unguarded subtraction into an error
    with pytest.raises(DegenerateInputError) as exc:
        LagrangePoly([-1e308, 0.0, 1e308], [1.0, 2.0, 3.0])
    assert exc.value.exit_code == 3


def test_heuristic_ignores_sizes_beyond_point_count():
    rl = RootList((0.5 * np.exp(2j * np.pi * k / 3), 1) for k in range(3))

    def run(max_multiplicity):
        params = ClusterParams(
            sigma=0.2, max_multiplicity=max_multiplicity, strategy="heuristic"
        )
        return cluster_heuristic(rl, params)

    # a scan from 10**12 down would not finish
    assert run(10**12) == run(3)
    assert run(3).entries[0][1] == 3
