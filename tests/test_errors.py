"""Error types: option checks, exit codes, and typed numerical failures."""

import math

import numpy as np
import pytest

import laggcd
from laggcd import rootfind as rootfind_module
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
    assemble_gcd,
    barycentric_weights,
    build_graph,
    build_pencil,
    certify_distance,
    cluster_dnc,
    cluster_heuristic,
    evaluate,
    from_roots,
    greedy_mwm,
    reconstruct,
    root_pseudometric,
    roots,
)
from laggcd.cli import main

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
    "params_max_mult_bool": lambda: ClusterParams(sigma=0.1, max_multiplicity=True),
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
    "evaluate_nan": lambda: evaluate(_poly(), NAN),
    "evaluate_inf": lambda: evaluate(_poly(), [0.5, complex(0.0, -INF)]),
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
        (Edge(0, 0, 1, 0.0), Edge(0, 1, 1, 0.0))
    ),
    "rootlist_nan": lambda: RootList([(NAN, 1)]),
    "rootlist_complex_nan": lambda: RootList([(0.0, 1), (complex(1.0, NAN), 1)]),
    "rootlist_inf": lambda: RootList([(INF, 1)]),
    "rootlist_minus_inf": lambda: RootList([(-INF, 2)]),
    "rootlist_complex_inf": lambda: RootList([(complex(INF, 1.0), 1)]),
    "rootlist_mult_zero": lambda: RootList([(1.0, 0)]),
    "rootlist_mult_float": lambda: RootList([(0.0, 1.5)]),
    "rootlist_mult_str": lambda: RootList([(0.0, "2")]),
    "rootlist_mult_nan": lambda: RootList([(0.0, NAN)]),
    "rootlist_mult_bool": lambda: RootList([(1.0, True)]),
    "rootlist_root_str": lambda: RootList([("1", 1)]),
    "rootlist_root_complex_str": lambda: RootList([("2+3j", 1)]),
    "rootlist_root_word": lambda: RootList([("x", 1)]),
    "rootlist_root_bytes": lambda: RootList([(b"1", 1)]),
    "rootlist_root_none": lambda: RootList([(None, 1)]),
    "rootlist_entry_not_pair": lambda: RootList([1 + 0j]),
    "rootlist_entry_triple": lambda: RootList([(1, 2, 3)]),
    "rootlist_not_iterable": lambda: RootList(5),
    "rootlist_root_huge_int": lambda: RootList([(0.5, 1), (10**400, 1)]),
    "poly_nan_node": lambda: LagrangePoly([0.0, NAN, 2.0], [1.0, 2.0, 3.0]),
    "poly_inf_node": lambda: LagrangePoly([0.0, INF, 2.0], [1.0, 2.0, 3.0]),
    "poly_inf_value": lambda: LagrangePoly([0.0, 1.0, 2.0], [1.0, INF, 3.0]),
    "poly_complex_nan_value": lambda: LagrangePoly([0.0, 1.0], [1.0, complex(0, NAN)]),
    "weights_complex_nan_node": lambda: barycentric_weights([0.0, complex(1.0, NAN)]),
    # the merged centroid (1e308 + 1.5e308) / 2 overflows to inf
    "dnc_centroid_overflow": lambda: cluster_dnc(
        RootList([(1e308, 1), (1.5e308, 1)]), 1e308
    ),
    "metric_scalar": lambda: root_pseudometric(1.0, 2.0),
    "metric_2d": lambda: root_pseudometric([[1.0, 2.0]], [[1.0, 2.0]]),
    "metric_ragged": lambda: root_pseudometric([[1.0], [1.0, 2.0]], [1.0, 2.0]),
    "metric_words": lambda: root_pseudometric(["a", "b"], [1.0, 2.0]),
    "metric_huge_int": lambda: root_pseudometric([10**400], [1.0]),
}
# inputs that numpy or complex() cannot read as numbers, by the message
# prefix that names the input
NON_NUMBERS = {
    "poly_node_object": (
        lambda: LagrangePoly([object(), 1.0], [1.0, 2.0]), "nodes must be numbers"
    ),
    "poly_node_huge_int": (
        lambda: LagrangePoly([10**400, 1.0], [1.0, 2.0]), "nodes must be numbers"
    ),
    "poly_value_words": (
        lambda: LagrangePoly([0.0, 1.0], ["a", "b"]), "values must be numbers"
    ),
    "weights_nodes_str": (lambda: barycentric_weights("ab"), "nodes must be numbers"),
    "from_roots_node_words": (
        lambda: from_roots(RootList([(1, 1)]), ["a", "b", "c"]), "nodes must be numbers"
    ),
    "from_roots_leading_str": (
        lambda: from_roots(RootList([(1, 1)]), [0.0, 2.0], leading_coeff="x"),
        "leading_coeff must be a number",
    ),
    "from_roots_leading_object": (
        lambda: from_roots(RootList([(1, 1)]), [0.0, 2.0], leading_coeff=object()),
        "leading_coeff must be a number",
    ),
    "from_roots_leading_huge_int": (
        lambda: from_roots(RootList([(1, 1)]), [0.0, 2.0], leading_coeff=10**400),
        "leading_coeff must be a number",
    ),
    "evaluate_object": (lambda: evaluate(_poly(), object()), "evaluation points must"),
    "evaluate_words": (lambda: evaluate(_poly(), ["0.5", "x"]), "evaluation points must"),
}
# totals of multiplicity that have no array, none of which numpy allocates:
# beyond int64, past the largest index in sum (2**64 + 1 wraps to 1 in
# numpy's count, and np.repeat then writes past its array), past the
# largest byte size, and 16 PiB
TOO_LARGE_TO_EXPAND = {
    "over_int64": [(0.0, 2**63)],
    "total_past_index": [(0.0, 4), (0.5, 2**63 - 1)],
    "total_wraps": [(0.0, 2**63 - 1), (1.0, 2**63 - 1), (2.0, 3)],
    "bytes_past_index": [(0.0, 2**62)],
    "no_memory": [(1.0, 2**50)],
}
for _name, (_call, _) in NON_NUMBERS.items():
    OPTION_ERRORS[_name] = _call
for _name, _entries in TOO_LARGE_TO_EXPAND.items():
    OPTION_ERRORS["expand_" + _name] = RootList(_entries).expand

# one check serves every tolerance: a bool is no tolerance, though it is an int
NOT_A_SIGMA = {"str": "0.1", "none": None, "complex": 0.1 + 0j, "bool": True}
SIGMA_TAKERS = {
    "params": lambda sigma: ClusterParams(sigma=sigma),
    "dnc": lambda sigma: cluster_dnc(RootList(), sigma),
    "graph": lambda sigma: build_graph(RootList(), RootList(), sigma),
    "certify": lambda sigma: certify_distance([0.0], RootList([(0.0, 1)]), sigma),
}
for _taker, _call in SIGMA_TAKERS.items():
    for _kind, _sigma in NOT_A_SIGMA.items():
        OPTION_ERRORS["%s_sigma_%s" % (_taker, _kind)] = (
            lambda call=_call, sigma=_sigma: call(sigma)
        )


@pytest.mark.parametrize(
    "sigma", [0, 0.5, np.float64(0.5), np.float32(0.5), np.int64(2), INF]
)
@pytest.mark.parametrize("call", SIGMA_TAKERS.values(), ids=SIGMA_TAKERS.keys())
def test_real_sigmas_pass(call, sigma):
    call(sigma)


@pytest.mark.parametrize("sigma", [NAN, -1.0])
@pytest.mark.parametrize("call", SIGMA_TAKERS.values(), ids=SIGMA_TAKERS.keys())
def test_nan_or_negative_sigma_message(call, sigma):
    with pytest.raises(InvalidParameterError, match=r"^sigma must be >= 0$"):
        call(sigma)


@pytest.mark.parametrize("call", OPTION_ERRORS.values(), ids=OPTION_ERRORS.keys())
def test_option_errors_are_typed(call):
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert isinstance(exc.value, LagGcdError)
    assert isinstance(exc.value, ValueError)
    assert exc.value.exit_code == 2


@pytest.mark.parametrize(
    "call, prefix", NON_NUMBERS.values(), ids=NON_NUMBERS.keys()
)
def test_non_numbers_name_their_input(call, prefix):
    with pytest.raises(InvalidParameterError, match="^" + prefix):
        call()


def test_numeric_strings_still_read():
    p = LagrangePoly(["0", "1", "2"], ["1", "0", "3+1j"])
    assert p.values.tolist() == [1, 0, 3 + 1j]
    q = from_roots(RootList([(1, 1)]), ["0", "2"], leading_coeff="2")
    assert q.values.tolist() == [-2, 2]
    assert evaluate(p, "1") == 0 and barycentric_weights(["1"]).tolist() == [1]


@pytest.mark.parametrize(
    "entries", TOO_LARGE_TO_EXPAND.values(), ids=TOO_LARGE_TO_EXPAND.keys()
)
def test_multiplicity_too_large_to_expand(entries):
    # every consumer of the expanded roots raises the one error, while
    # the list itself, and dnc clustering, which never expands, work
    rl = RootList(entries)
    message = r"^cannot expand a total multiplicity of %d$" % rl.total_multiplicity()
    heuristic = ClusterParams(sigma=0.1, strategy="heuristic")
    for call in (
        rl.expand,
        lambda: root_pseudometric(rl, [0.0]),
        lambda: cluster_heuristic(rl, heuristic),
    ):
        with pytest.raises(InvalidParameterError, match=message):
            call()
    assert cluster_dnc(rl, 0.1) == rl


def _overflow_gcd():
    g = build_graph(RootList([(1.5e308, 1)]), RootList([(1.6e308, 2)]), 1e308)
    return assemble_gcd(greedy_mwm(g), g)


_HUGE_PAIR = [(1.5e308, 1), (1.6e308, 1)]
_HEURISTIC = ClusterParams(sigma=1e308, strategy="heuristic")
# The stages build their outputs without RootList's checks; a centroid that
# overflows must still fail with its error. (1.5e308 + 1.6e308) / 2 is
# (inf+nanj); with 30 more points the heuristic takes its kNN path and
# its radius gate.
CENTROID_OVERFLOWS = {
    "dnc": lambda: cluster_dnc(RootList(_HUGE_PAIR), 1e308),
    "heuristic": lambda: cluster_heuristic(RootList(_HUGE_PAIR), _HEURISTIC),
    "heuristic_knn": lambda: cluster_heuristic(
        RootList(_HUGE_PAIR + [(complex(k, k * k % 7), 1) for k in range(30)]),
        _HEURISTIC,
    ),
    # five points near 4e307, 1e306 apart: their sum overflows, so the
    # radius gate reads their candidate's radius as inf and keeps it, and
    # the kNN search must fetch it though they lie beyond the gate's limit
    "heuristic_knn_sum": lambda: cluster_heuristic(
        RootList(
            [(4e307 + k * 1e306, 1) for k in range(5)]
            + [(complex(k, k * k % 7), 1) for k in range(30)]
        ),
        ClusterParams(sigma=1e308, max_multiplicity=5, strategy="heuristic"),
    ),
    "assemble_gcd": _overflow_gcd,
    # their distance 2e308 is inf, within sigma inf
    "dnc_distance_overflow": lambda: cluster_dnc(
        RootList([(1.7e308 + 1.3e308j, 1), (0.3e308 - 0.1e308j, 1)]), INF
    ),
}


@pytest.mark.parametrize(
    "call", CENTROID_OVERFLOWS.values(), ids=CENTROID_OVERFLOWS.keys()
)
def test_overflowing_centroid_fails_loudly(call):
    with pytest.raises(
        InvalidParameterError, match=r"^roots must be finite, got \(inf\+nanj\)$"
    ):
        call()


def test_overflowing_knn_distances_warn_nothing():
    # the kNN re-ranking's distances overflow before the centroid (nan+nanj)
    # does; the suite turns a RuntimeWarning into an error
    roots = RootList(
        [(1.5e308 + 1.5e308j, 1), (1.6e308 + 1.5e308j, 1)]
        + [(complex(k, k * k % 7), 1) for k in range(30)]
    )
    with pytest.raises(InvalidParameterError, match=r"^roots must be finite, got"):
        cluster_heuristic(roots, _HEURISTIC)


_FAR = 1e308 + 1.5e308j  # abs(_FAR) is beyond the double range
_HUGE = 1.5e308 + 1.5e308j
# A pair distance beyond the double range reads as inf, which no finite
# sigma holds: the partner sweep, the strip merge, the heuristic's scorer
# and the edge scan.
DISTANCE_OVERFLOWS = {
    "dnc_sweep": (
        lambda: cluster_dnc(RootList([(0j, 1), (_FAR, 1)]), 1.7e308),
        RootList([(0j, 1), (_FAR, 1)]),
    ),
    "dnc_strip": (
        lambda: cluster_dnc(RootList([(0j, 1), (1e-3, 1), (_FAR, 1)]), 1.7e308),
        RootList([(5e-4, 2), (_FAR, 1)]),
    ),
    "heuristic": (
        lambda: cluster_heuristic(RootList([(_HUGE, 1), (-_HUGE, 1)]), _HEURISTIC),
        RootList([(_HUGE, 1), (-_HUGE, 1)]),
    ),
    # no radius cap at sigma inf: the ratio of the two overflowing radii,
    # inf / inf, reads as inf and rejects the pair
    "heuristic_sigma_inf": (
        lambda: cluster_heuristic(
            RootList([(_HUGE, 1), (-_HUGE, 1)]),
            ClusterParams(sigma=INF, strategy="heuristic"),
        ),
        RootList([(_HUGE, 1), (-_HUGE, 1)]),
    ),
    "graph": (
        lambda: build_graph(RootList([(0j, 1)]), RootList([(_FAR, 1)]), 1.7e308).edges,
        (),
    ),
    "graph_sigma_inf": (
        lambda: build_graph(RootList([(0j, 1)]), RootList([(_FAR, 1)]), INF).edges,
        (Edge(0, 0, 1, INF),),
    ),
}


@pytest.mark.parametrize(
    "call, expected", DISTANCE_OVERFLOWS.values(), ids=DISTANCE_OVERFLOWS.keys()
)
def test_overflowing_distances_are_inf(call, expected):
    assert call() == expected


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


def _faulty_lapack(fault):
    """get_lapack_funcs whose ?ggev reports info 1, or returns a NaN alpha."""
    real = rootfind_module.get_lapack_funcs

    def get(names, arrays):
        (ggev,) = real(names, arrays)

        def faulty(*args, **kwargs):
            *out, info = ggev(*args, **kwargs)
            if fault == "info":
                info = 1
            else:  # alphar of dggev, alpha of zggev
                out[0] = np.full_like(out[0], NAN)
            return (*out, info)

        return (faulty,)

    return get


@pytest.mark.parametrize(
    "fault, message", [("info", "info 1"), ("nan_alpha", "non-finite")]
)
@pytest.mark.parametrize("imag", [0.0, 1.0], ids=["real", "complex"])
def test_eigensolver_faults_are_typed(
    monkeypatch, capsys, problem_file, fault, message, imag
):
    monkeypatch.setattr(rootfind_module, "get_lapack_funcs", _faulty_lapack(fault))
    with pytest.raises(EigensolveFailureError, match=message):
        roots(LagrangePoly([0.0, 1.0, 2.0], [1.0, 1j * imag, 3.0]))
    assert main(["roots", problem_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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
