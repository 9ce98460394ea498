"""The geometric laws as properties, over every family at N in {2, 3, 4}.

`pushforward_state` and `pushforward_tangent` respect `compose` and `invert`,
the covariant tensor law (`conftest.transform_bilinear`) respects composition,
the GGN read through a chart transforms as a covariant 2-tensor, and the
dual-number first and second derivatives of composite maps agree with central
differences.  Each test runs once per (family, N) for the inner map; the outer
map's family is drawn.  Maps come from the catalog sampler under a drawn seed;
states, tangents and forms from the state box.  Examples are derandomized, so every run checks the same
cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiflow import (
    FAMILIES,
    Dataset,
    OptimizerState,
    StateVelocity,
    compose,
    fd_jacobian,
    ggn_matrix,
    invert,
    jacobian,
    linear_model,
    mlp_tanh,
    pushforward_state,
    pushforward_tangent,
    sample_diffeomorphism,
    second_derivatives,
)
from conftest import transform_bilinear

LAWS = settings(derandomize=True, deadline=None, max_examples=8)
EVERY_FAMILY = pytest.mark.parametrize("family", FAMILIES)
EVERY_DIM = pytest.mark.parametrize("dim", (2, 3, 4))
TOL = 1e-9
# Central differences at step 1e-5 are good to about 1e-10; the oracle gate is 1e-5.
FD_TOL = 1e-5
# A tanh network with N parameters, for N in {2, 3, 4}.
TANH_NETWORKS = {2: (1, 1, 1, False), 3: (2, 1, 1, False), 4: (1, 1, 1, True)}


def vectors(dim):
    return st.lists(
        st.floats(-1.5, 1.5, allow_nan=False), min_size=dim, max_size=dim
    ).map(np.array)


def sampled(family, dim, seed):
    return sample_diffeomorphism(family, dim, np.random.default_rng(seed))


@st.composite
def cases(draw, family, dim):
    """(outer, inner, state, tangent at the state); `inner` is from `family`."""
    seeds = st.integers(0, 2**32 - 1)
    outer = sampled(draw(st.sampled_from(FAMILIES)), dim, draw(seeds))
    inner = sampled(family, dim, draw(seeds))
    order = draw(st.sampled_from((1, 2)))
    state = OptimizerState(
        draw(st.floats(0.0, 2.0)), tuple(draw(vectors(dim)) for _ in range(order))
    )
    tangent = StateVelocity(tuple(draw(vectors(dim)) for _ in range(order)))
    return outer, inner, state, tangent


def close(got, want, tol=TOL):
    return np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


@EVERY_FAMILY
@EVERY_DIM
@LAWS
@given(data=st.data())
def test_pushforward_state_respects_compose_and_invert(family, dim, data):
    outer, inner, state, _ = data.draw(cases(family, dim))
    direct = pushforward_state(compose(outer, inner), state)
    chained = pushforward_state(outer, pushforward_state(inner, state))
    assert close(direct.as_vector(), chained.as_vector())
    back = pushforward_state(invert(inner), pushforward_state(inner, state))
    assert close(back.as_vector(), state.as_vector())


@EVERY_FAMILY
@EVERY_DIM
@LAWS
@given(data=st.data())
def test_pushforward_tangent_respects_compose_and_invert(family, dim, data):
    outer, inner, state, tangent = data.draw(cases(family, dim))
    direct = pushforward_tangent(compose(outer, inner), state, tangent)
    inner_state = pushforward_state(inner, state)
    inner_tangent = pushforward_tangent(inner, state, tangent)
    chained = pushforward_tangent(outer, inner_state, inner_tangent)
    assert close(direct.as_vector(), chained.as_vector())
    back = pushforward_tangent(invert(inner), inner_state, inner_tangent)
    assert close(back.as_vector(), tangent.as_vector())


@EVERY_FAMILY
@EVERY_DIM
@LAWS
@given(data=st.data())
def test_transform_bilinear_respects_compose(family, dim, data):
    outer, inner, state, _ = data.draw(cases(family, dim))
    root = data.draw(st.lists(vectors(dim), min_size=dim, max_size=dim).map(np.array))
    form = root @ root.T
    theta_bar = inner.forward(state.theta)
    theta_barbar = outer.forward(theta_bar)
    direct = transform_bilinear(compose(outer, inner), form, theta_barbar)
    chained = transform_bilinear(outer, transform_bilinear(inner, form, theta_bar), theta_barbar)
    assert close(direct, chained)


@EVERY_FAMILY
@EVERY_DIM
@LAWS
@given(kind=st.sampled_from(("linear", "mlp-tanh")), data=st.data())
def test_ggn_through_a_chart_is_a_covariant_tensor(family, dim, kind, data):
    _, g, state, _ = data.draw(cases(family, dim))
    model = linear_model(dim, 1) if kind == "linear" else mlp_tanh(*TANH_NETWORKS[dim])
    rows = data.draw(st.integers(1, 4))
    samples = data.draw(st.lists(vectors(model.in_dim), min_size=rows, max_size=rows))
    dataset = Dataset(np.array(samples), np.zeros((rows, 1)))
    weight = np.eye(1)
    theta = state.theta
    barred = ggn_matrix(model, dataset, weight, g.forward(theta), chart=g.inverse_map)
    base = ggn_matrix(model, dataset, weight, theta)
    want = transform_bilinear(g, base, g.forward(theta))
    assert close(barred, want, tol=1e-10)


@EVERY_FAMILY
@EVERY_DIM
@LAWS
@given(data=st.data())
def test_dual_derivatives_of_composites_match_differences(family, dim, data):
    outer, inner, state, _ = data.draw(cases(family, dim))
    m = compose(outer, inner).forward_map
    theta = state.theta
    assert close(jacobian(m, theta), fd_jacobian(m.value, theta), tol=FD_TOL)
    # D[l, i, j] against differences of the Jacobian rows J[l, i] along theta^j.
    fd_d2 = fd_jacobian(lambda t: jacobian(m, t), theta)
    assert close(second_derivatives(m, theta), fd_d2, tol=FD_TOL)
