import numpy as np
import pytest

from equiflow import (
    FAMILIES,
    ConfigurationError,
    Diffeomorphism,
    EvaluationDomainError,
    GGNWeight,
    StateVelocity,
    affine_diffeomorphism,
    catalog,
    compose,
    default_flow_builder,
    fisher_matrix,
    ggn_matrix,
    gradient,
    integrate,
    jacobian,
    nesterov_flow,
    newton_flow,
    pullback_connection,
    pullback_loss,
    pushforward_state,
    pushforward_tangent,
    sample_diffeomorphism,
    second_derivatives,
    shear_diffeomorphism,
    state_order1,
    state_order2,
    translation,
)
import equiflow.geometry
from equiflow.diffcalc import derivative_pass
from equiflow.geometry import (
    check_positive,
    random_invertible,
    random_orthogonal,
    random_signed_permutation,
)
from conftest import (
    AFFINE_FAMILIES,
    assert_same_bits,
    canonical_shear,
    counting,
    flat_connection,
    identity,
    invert,
    quadratic_loss,
    transform_bilinear,
)


# (forward, inverse) of catalog(family, n, seed) at DRAW_POINT[:n], recorded once.
# A change in the draw order moves them by O(1).
DRAW_POINT = np.array([0.3, -0.8, 1.1, 0.5])
RECORDED_DRAWS = {
    ("translation", 2, 0): ([-0.538351921653625, -0.995124416012826],
                            [1.13835192165363, -0.604875583987174]),
    ("translation", 2, 1): ([0.196830286664544, -0.938236024911325],
                            [0.403169713335456, -0.661763975088675]),
    ("translation", 2, 2): ([1.00126937446576, -0.114492185020733],
                            [-0.401269374465764, -1.48550781497927]),
    ("translation", 3, 0): ([1.08994548157968, -0.0791711264501249, 0.742749644675027],
                            [-0.489945481579677, -1.52082887354988, 1.45725035532497]),
    ("translation", 3, 1): ([-0.671862722446068, -1.52678359885654, 1.01190921781475],
                            [1.27186272244607, -0.0732164011434633, 1.18809078218525]),
    ("translation", 3, 2): ([0.00289384059104963, -0.785837533482134, 1.17696463289065],
                            [0.59710615940895, -0.814162466517866, 1.02303536710935]),
    ("translation", 4, 0): ([1.06614387121546, -1.34281465641084, 0.921293191426993, 0.393386561240295],
                            [-0.466143871215458, -0.257185343589163, 1.27870680857301, 0.606613438759705]),
    ("translation", 4, 1): ([0.0896503087149329, -0.0994449243941999, 1.94471959510613, 0.540976780778099],
                            [0.510349691285067, -1.5005550756058, 0.25528040489387, 0.459023219221901]),
    ("translation", 4, 2): ([0.333742886424712, -0.495719860263028, 0.757570797508699, 1.39483137258376],
                            [0.266257113575288, -1.10428013973697, 1.4424292024913, -0.394831372583764]),
    ("euclidean", 2, 0): ([-0.236498165919838, -1.01399646620036],
                          [-0.158887569302496, -1.1507805130295]),
    ("euclidean", 2, 1): ([0.00398000940083953, -1.46671407124536],
                          [0.350840600893082, -0.0722976426232178]),
    ("euclidean", 2, 2): ([0.716455427398732, -0.615247332755947],
                          [-0.126419136124105, -0.960422540220582]),
    ("euclidean", 3, 0): ([-0.71573274320796, -0.30073112421495, -0.747658319441251],
                          [-1.74157974142206, -0.088720504348286, 1.24442063506782]),
    ("euclidean", 3, 1): ([-1.68859580197778, 0.488191292616528, -0.352691627123215],
                          [1.19363807563194, 0.531046201007336, -1.17024008291972]),
    ("euclidean", 3, 2): ([-0.349065867379409, -1.35826382575152, 0.0215673479681726],
                          [1.12239052515124, -1.20520499874459, 0.0726516085368263]),
    ("euclidean", 4, 0): ([-0.0410799451083317, 1.23001665445512, 1.01414527489394, -1.37554175400412],
                          [-0.73996649381043, 0.933948629622423, -0.168704090282861, -0.936876064258093]),
    ("euclidean", 4, 1): ([-0.875240635298495, 0.120173546074808, -0.884096200340331, -0.490087958128608],
                          [-1.18592489652737, 0.170639742253042, 0.452152551945678, -1.39076735202337]),
    ("euclidean", 4, 2): ([-1.18148257566932, -0.194812592127475, 1.01908029095374, -0.196480141241155],
                          [0.567551632217643, -0.539100033200121, 0.0476428923454048, -0.843713829840654]),
    ("signed-permutation", 2, 0): ([-0.0974215875244681, 0.0902004704309551],
                                   [-0.0974215875244681, 0.0902004704309551]),
    ("signed-permutation", 2, 1): ([0.639998258784384, -0.145953246613736],
                                   [-0.354046753386264, -0.460001741215616]),
    ("signed-permutation", 2, 2): ([-1.03902402413992, -0.055359147457237],
                                   [1.04464085254276, 0.539024024139917]),
    ("signed-permutation", 3, 0): ([0.733749217065357, -1.20173198469911, 0.0769799539071412],
                                   [-0.723020046092859, -0.398268015300894, 0.666250782934643]),
    ("signed-permutation", 3, 1): ([1.12402644161643, -0.42635721325328, -1.60788079566611],
                                   [-0.524026441616429, 1.90788079566611, 1.47364278674672]),
    ("signed-permutation", 3, 2): ([0.439467851935436, -1.6670276438314, 0.473035939617439],
                                   [0.926964060382561, 0.0670276438313959, 0.960532148064564]),
    ("signed-permutation", 4, 0): ([1.64256461609897, 0.239167698916956, 0.678880594694998, 0.153075682383334],
                                   [0.721119405305002, 0.239167698916956, -0.242564616098968, 0.153075682383334]),
    ("signed-permutation", 4, 1): ([1.17214509121079, 1.28371872142808, -1.53188281746806, 1.11090870793777],
                                   [-1.78371872142808, 1.83188281746806, 0.489091292062233, -0.37214509121079]),
    ("signed-permutation", 4, 2): ([-0.616679001735801, -0.858633790551374, 0.257571195604497, -0.597414662273544],
                                   [-0.542428804395503, 0.116679001735801, 1.04136620944863, -0.597414662273544]),
    ("affine", 2, 0): ([-0.668903719445753, -0.879743291465225],
                       [-0.288166912667366, -2.55766246608747]),
    ("affine", 2, 1): ([-0.376649503494968, -0.555213240711813],
                       [0.0566276444142046, -0.334217104984133]),
    ("affine", 2, 2): ([-0.168996637329634, -1.05456533953875],
                       [1.04343759029616, -0.647015636802551]),
    ("affine", 3, 0): ([-0.488573914768983, -0.152398182881658, -2.57529681635806],
                       [-0.521143772323626, 0.74163010433801, 0.715019838750862]),
    ("affine", 3, 1): ([-2.04256911703528, 2.02332084026382, -0.911989724508778],
                       [0.382254470196818, 0.290667564637686, -0.711177472234738]),
    ("affine", 3, 2): ([0.290805789679284, -1.4407739594192, 2.14250950809447],
                       [0.213802213545227, -0.703190594176322, 0.292246935112101]),
    ("affine", 4, 0): ([1.44730321151384, 3.17097856204387, -0.937623663411605, -2.18070229673448],
                       [-4.30831480256983, 0.269594842699588, 4.16569375592763, -1.85310743156847]),
    ("affine", 4, 1): ([-0.174535140825534, -0.984935237335907, -2.15405530070062, -1.74060276626923],
                       [-0.696381983248035, -0.363240258989193, 4.07747432228935, -5.3373157788616]),
    ("affine", 4, 2): ([-1.64406339888509, 0.431924197904433, 2.81897966693558, 0.0185859225498015],
                       [12.893507107745, -2.40578818219271, 4.81795624632552, -2.92266328682546]),
    ("shear", 2, 0): ([0.3, -0.899166314735693],
                      [0.3, -0.700833685264307]),
    ("shear", 2, 1): ([0.3, -0.645086070087785],
                      [0.3, -0.954913929912215]),
    ("shear", 2, 2): ([0.3, -1.01434593128058],
                      [0.3, -0.585654068719416]),
    ("shear", 3, 0): ([0.3, -0.582247792668299, 0.929784826375812],
                      [0.3, -1.0177522073317, 1.31831104229052]),
    ("shear", 3, 1): ([0.3, -0.709265154482192, 1.48629798460904],
                      [0.3, -0.890734845517808, 0.668207074248205]),
    ("shear", 3, 2): ([0.3, -0.938584243980155, 1.01026131383422],
                      [0.3, -0.661415756019845, 1.15712815826118]),
    ("shear", 4, 0): ([0.3, -1.01601878000776, 1.30031436273073, 0.762230744091741],
                      [0.3, -0.583981219992237, 0.972160632529669, 0.184753444597035]),
    ("shear", 4, 1): ([0.3, -0.946995467603809, 1.72683862680679, 0.50590947615337],
                      [0.3, -0.653004532396191, 0.534665295110426, 0.323432510041657]),
    ("shear", 4, 2): ([0.3, -0.965029039856132, 1.79226146034943, 1.64336826703683],
                      [0.3, -0.634970960143868, 0.503834567110936, -0.34305974922547]),
}


def rotation2d(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestPullbackLoss:
    def test_scaling_by_hand(self):
        loss = quadratic_loss(np.eye(1))
        g = affine_diffeomorphism([[2.0]])
        barred = pullback_loss(g, loss)
        for t in (0.4, -1.2, 2.0):
            assert np.isclose(barred.value([t]), t * t / 8.0)

    def test_identity(self):
        loss = quadratic_loss(np.array([[2.0, 1.0], [1.0, 3.0]]))
        barred = pullback_loss(identity(2), loss)
        for theta in ([0.3, -0.7], [1.0, 1.0]):
            assert np.isclose(barred.value(theta), loss.value(theta))

    def test_translation(self):
        loss = quadratic_loss(np.eye(2))
        shift = np.array([0.5, -1.0])
        barred = pullback_loss(translation(shift), loss)
        theta_bar = np.array([1.0, 2.0])
        assert np.isclose(barred.value(theta_bar), loss.value(theta_bar - shift))


class TestPushforwardState:
    def test_affine_order2(self):
        a = rotation2d(0.7) * 1.3
        c = np.array([0.2, -0.4])
        g = affine_diffeomorphism(a, c)
        s = state_order2([0.5, -0.1], [1.0, 2.0], time=0.3)
        out = pushforward_state(g, s)
        assert np.allclose(out.theta, a @ s.theta + c)
        assert np.allclose(out.velocity, a @ s.velocity)
        assert out.time == s.time

    def test_shear_velocity(self):
        g = canonical_shear(0.5)
        s = state_order2([0.0, 1.0], [1.0, 0.0], time=0.1)
        out = pushforward_state(g, s)
        assert np.allclose(out.velocity, [1.0, 0.5])

    def test_identity_fixed_point(self):
        s = state_order2([0.3, 0.4], [-1.0, 0.5], time=1.0)
        out = pushforward_state(identity(2), s)
        assert np.allclose(out.as_vector(), s.as_vector())

    def test_round_trip_catalog(self):
        rng = np.random.default_rng(0)
        for family in FAMILIES:
            g = sample_diffeomorphism(family, 3, rng)
            s = state_order2(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), time=0.5)
            back = pushforward_state(invert(g), pushforward_state(g, s))
            assert np.linalg.norm(back.as_vector() - s.as_vector()) <= 1e-9, family

    def test_functoriality(self):
        rng = np.random.default_rng(1)
        for fam1 in FAMILIES:
            for fam2 in ("euclidean", "shear"):
                g1 = sample_diffeomorphism(fam1, 3, rng)
                g2 = sample_diffeomorphism(fam2, 3, rng)
                s = state_order2(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), time=0.2)
                direct = pushforward_state(compose(g2, g1), s)
                chained = pushforward_state(g2, pushforward_state(g1, s))
                assert (
                    np.linalg.norm(direct.as_vector() - chained.as_vector()) <= 1e-9
                ), (fam1, fam2)

    @pytest.mark.parametrize("family", ["affine", "shear"])
    def test_wrong_length_state_refused(self, family):
        s = state_order2([0.3, 0.4, 0.5], [-1.0, 0.5, 0.2], time=1.0)
        with pytest.raises(ConfigurationError, match=r"length 2, got shape \(3,\)"):
            pushforward_state(catalog(family, 2, seed=0), s)


class TestPushforwardTangent:
    def test_affine_second_component(self):
        a = random_invertible(2, np.random.default_rng(2))
        g = affine_diffeomorphism(a)
        s = state_order2([0.1, 0.2], [0.5, -0.5], time=0.4)
        v = pushforward_tangent(g, s, nesterov_flow(quadratic_loss(np.eye(2)))(s))
        base = nesterov_flow(quadratic_loss(np.eye(2)))(s)
        assert np.allclose(v.dderivs[1], a @ base.dderivs[1])

    def test_shear_quadratic_term(self):
        from equiflow import StateVelocity

        g = canonical_shear(0.5)
        s = state_order2([np.pi / 2, 0.0], [1.0, 0.0], time=0.2)
        v = StateVelocity((np.array([1.0, 0.0]), np.array([0.0, 0.0])))
        out = pushforward_tangent(g, s, v)
        assert np.allclose(out.dderivs[1], [0.0, -0.5])

    def test_one_map_pass_per_pushforward(self):
        shear = canonical_shear(0.6, dim=3, func="tanh")
        forward, calls = counting(shear.forward_map)
        g = Diffeomorphism("shear", forward, shear.inverse_map)
        theta, u = np.array([0.4, -0.3, 0.9]), np.array([1.0, 0.5, -0.2])
        v = StateVelocity((np.array([0.2, -0.1, 0.3]), np.array([0.7, 0.0, -0.4])))
        out = pushforward_tangent(g, state_order2(theta, u, time=0.5), v)
        assert len(calls) == 1
        jac = jacobian(shear.forward_map, theta)
        quad = np.einsum("lij,i,j->l", second_derivatives(shear.forward_map, theta), v.dderivs[0], u)
        assert np.array_equal(out.dderivs[0], jac @ v.dderivs[0])
        assert np.array_equal(out.dderivs[1], jac @ v.dderivs[1] + quad)
        calls.clear()
        pushforward_tangent(g, state_order1(theta), StateVelocity((v.dderivs[0],)))
        assert len(calls) == 1

    def test_trajectory_fd_oracle(self):
        # differentiate g(theta(xi)) twice along an integrated trajectory
        loss = quadratic_loss(np.array([[2.0, 0.5], [0.5, 1.0]]))
        flow = nesterov_flow(loss)
        s0 = state_order2([1.0, -0.5], [0.0, 0.0], time=0.5)
        h = 1e-3
        traj = integrate(flow, s0, h=h, steps=400, scheme="rk4")
        g = canonical_shear(0.6, func="tanh")
        for k in (100, 200, 300):
            s = traj.states[k]
            pushed = pushforward_tangent(g, s, flow(s))
            mapped = [g.forward(traj.states[k + i].theta) for i in (-1, 0, 1)]
            fd_vel = (mapped[2] - mapped[0]) / (2 * h)
            fd_acc = (mapped[2] - 2 * mapped[1] + mapped[0]) / (h * h)
            assert np.max(np.abs(pushed.dderivs[0] - fd_vel)) <= 1e-4
            assert np.max(np.abs(pushed.dderivs[1] - fd_acc)) <= 1e-4


class TestTransformBilinear:
    def test_scaling_by_hand(self):
        g = affine_diffeomorphism([[2.0]])
        form = np.array([[1.0]])
        out = transform_bilinear(g, form, [0.3])
        assert np.allclose(out, [[0.25]])

    def test_orthogonal_preserves_identity(self):
        q = random_orthogonal(3, np.random.default_rng(4))
        g = affine_diffeomorphism(q, family="euclidean")
        out = transform_bilinear(g, np.eye(3), [0.1, 0.2, 0.3])
        assert np.allclose(out, np.eye(3), atol=1e-12)

    def test_identity_noop(self):
        form = np.array([[2.0, 0.3], [0.3, 1.0]])
        out = transform_bilinear(identity(2), form, [0.5, 0.5])
        assert np.allclose(out, form)

    def test_psd_is_preserved(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((4, 4))
        form = base @ base.T
        for family in FAMILIES:
            g = sample_diffeomorphism(family, 4, rng)
            out = transform_bilinear(g, form, rng.uniform(-1, 1, 4))
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10, family

    def test_covector_transform_law(self):
        rng = np.random.default_rng(7)
        loss = quadratic_loss(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]]))
        for family in FAMILIES:
            g = sample_diffeomorphism(family, 3, rng)
            theta_bar = rng.uniform(-1, 1, 3)
            barred_grad = gradient(pullback_loss(g, loss), theta_bar)
            jac_inv = jacobian(g.inverse_map, theta_bar)
            transported = jac_inv.T @ gradient(loss, g.inverse(theta_bar))
            assert np.max(np.abs(barred_grad - transported)) <= 1e-8, family


class TestPullbackConnection:
    def test_affine_is_flat(self):
        # D^2(g^-1) = 0 for an affine g, so the barred chart is flat: no connection
        maps = [affine_diffeomorphism(random_invertible(3, np.random.default_rng(8)))]
        maps += [catalog(family, n, seed=6) for family in AFFINE_FAMILIES for n in (2, 4)]
        for g in maps:
            assert pullback_connection(g) is None, g.family

    def test_composed_affine_maps_compute_zero_gamma(self):
        # a composite carries no matrix, so its connection is computed: the
        # oracle for the None an affine map returns
        for n in (2, 4):
            g = compose(catalog("affine", n, seed=1), catalog("euclidean", n, seed=2))
            connection = pullback_connection(g)
            assert connection is not None
            for theta_bar in np.random.default_rng(n).uniform(-1.5, 1.5, (3, n)):
                assert not np.any(connection.christoffel_at(theta_bar))

    def test_canonical_shear_by_hand(self):
        beta = 0.5
        g = canonical_shear(beta)
        theta_bar = np.array([np.pi / 2, 0.3])
        gamma = pullback_connection(g).christoffel_at(theta_bar)
        # single nonzero symbol: Gamma^2_11 = beta * sin(theta_bar_1)
        want = np.zeros((2, 2, 2))
        want[1, 0, 0] = beta * np.sin(theta_bar[0])
        assert np.allclose(gamma, want, atol=1e-12)

    @pytest.mark.parametrize("family", AFFINE_FAMILIES)
    def test_affine_flows_equal_flat_gamma(self, family):
        # the barred flows under an affine map equal those given an explicit all-zero Connection
        g = catalog(family, 4, seed=6)
        flat = flat_connection(4)
        rng = np.random.default_rng(7)
        for algorithm in ("newton-covariant", "nngd", "agn"):
            builder = default_flow_builder(algorithm, 4, seed=0)
            loss = pullback_loss(g, builder.loss)
            if algorithm == "newton-covariant":
                explicit = newton_flow(loss, connection=flat)
            else:
                model, data, chart = builder.model, builder.data, g.inverse_map
                if algorithm == "nngd":
                    nv = builder.noise_variance
                    form = lambda theta: fisher_matrix(model, data, nv, theta, chart)
                else:
                    form = lambda theta: ggn_matrix(model, data, GGNWeight(np.eye(1)), theta, chart)
                explicit = nesterov_flow(loss, form, r=builder.r, connection=flat)
            barred = builder.build(g)
            for _ in range(3):
                theta_bar, velocity = rng.uniform(-1.5, 1.5, (2, 4))
                if barred.order == 1:
                    state = state_order1(theta_bar)
                else:
                    state = state_order2(theta_bar, velocity, time=1.0)
                got, want = barred(state).as_vector(), explicit(state).as_vector()
                assert np.array_equal(got, want), algorithm

    def test_identity_composition_unchanged(self):
        g = canonical_shear(0.4)
        both = compose(g, identity(2))
        theta_bar = np.array([0.7, -0.2])
        assert np.allclose(
            pullback_connection(g).christoffel_at(theta_bar),
            pullback_connection(both).christoffel_at(theta_bar),
            atol=1e-12,
        )


class TestCatalog:
    def test_families_and_determinism(self):
        for family in FAMILIES:
            g1 = catalog(family, 3, seed=42)
            g2 = catalog(family, 3, seed=42)
            theta = np.array([0.3, -0.8, 1.1])
            assert g1.family == family
            assert np.array_equal(g1.forward(theta), g2.forward(theta))

    def test_inverse_exactness_on_box(self):
        rng = np.random.default_rng(10)
        for family in FAMILIES:
            g = sample_diffeomorphism(family, 4, rng)
            for _ in range(5):
                theta = rng.uniform(-2.0, 2.0, 4)
                assert np.linalg.norm(g.inverse(g.forward(theta)) - theta) <= 1e-10

    @pytest.mark.parametrize(
        "family, dim",
        [pytest.param(f, 1, id=f) for f in ("euclidean", "shear")]
        + [pytest.param(f, d, id=f"{f}-dim{d}") for f in FAMILIES for d in (0, -1)],
    )
    def test_degenerate_family_at_dim_one_refused(self, family, dim):
        # a 1-parameter shear is the identity, a 1x1 rotation a signed permutation,
        # and no family has members below one parameter
        draws = (
            lambda: sample_diffeomorphism(family, dim, np.random.default_rng(0)),
            lambda: catalog(family, dim, 0),
        )
        for draw in draws:
            with pytest.raises(ConfigurationError, match=f"dim {dim}"):
                draw()

    def test_unknown_family_is_refused_by_name(self):
        with pytest.raises(ConfigurationError, match="unknown family 'conformal'"):
            sample_diffeomorphism("conformal", 2, np.random.default_rng(0))

    @pytest.mark.parametrize("family, n, seed", list(RECORDED_DRAWS))
    def test_draws_are_unchanged(self, family, n, seed):
        g = catalog(family, n, seed)
        forward, inverse = RECORDED_DRAWS[family, n, seed]
        assert np.max(np.abs(g.forward(DRAW_POINT[:n]) - forward)) <= 1e-12
        assert np.max(np.abs(g.inverse(DRAW_POINT[:n]) - inverse)) <= 1e-12

    def test_sampler_properties(self):
        rng = np.random.default_rng(11)
        q = random_orthogonal(5, rng)
        assert np.max(np.abs(q @ q.T - np.eye(5))) <= 1e-12
        p = random_signed_permutation(5, rng)
        assert set(np.abs(p).sum(axis=0)) == {1.0}
        a = random_invertible(5, rng)
        assert np.linalg.cond(a) <= 50.0 + 1e-6


def nested_shear(coeffs, phi):
    """(forward, inverse) of the shear with these coefficients, phi evaluated
    inside the inner loop: once per nonzero term, j = 0, ..., k-1 for entry k."""
    n = coeffs.shape[0]

    def fwd(theta):
        theta = np.asarray(theta)
        out = [theta[0]]
        for k in range(1, n):
            acc = theta[k]
            for j in range(k):
                if coeffs[k, j] != 0.0:
                    acc = acc + coeffs[k, j] * phi(theta[j])
            out.append(acc)
        return np.array(out)

    def bwd(tbar):
        tbar = np.asarray(tbar)
        out = [tbar[0]]
        for k in range(1, n):
            acc = tbar[k]
            for j in range(k):
                if coeffs[k, j] != 0.0:
                    acc = acc - coeffs[k, j] * phi(out[j])
            out.append(acc)
        return np.array(out)

    return fwd, bwd


def shear_coefficients(n, seed):
    """A strictly lower-triangular draw with C[n-1, 0] = 0."""
    coeffs = np.tril(np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n)), k=-1)
    coeffs[n - 1, 0] = 0.0
    return coeffs


class TestShearMaps:
    @pytest.mark.parametrize("func", ("sin", "tanh"))
    @pytest.mark.parametrize("n", (3, 4, 8))
    def test_maps_are_the_nested_loop(self, n, func):
        coeffs = shear_coefficients(n, seed=n)
        g = shear_diffeomorphism(coeffs, func=func)
        oracle = nested_shear(coeffs, {"sin": np.sin, "tanh": np.tanh}[func])
        rng = np.random.default_rng([n, len(func)])
        point = rng.uniform(-1.5, 1.5, n)
        for map_, want_fn in zip((g.forward_map, g.inverse_map), oracle):
            assert map_.fn(point).tobytes() == want_fn(point).tobytes()
            for order in (1, 2):
                got = derivative_pass(map_.fn, point, order)
                want = derivative_pass(want_fn, point, order)
                for part in range(order + 1):
                    assert got[part].tobytes() == want[part].tobytes()

    def test_phi_once_per_read_entry(self, monkeypatch):
        # N = 4, C[3, 0] = 0: entries 0, 1 and 2 are read, entry 3 by no term
        calls = []
        monkeypatch.setitem(
            equiflow.geometry._SHEAR_FUNCS, "sin", lambda x: calls.append(1) or np.sin(x)
        )
        g = shear_diffeomorphism(shear_coefficients(4, seed=1))
        point = np.array([0.3, -0.8, 1.1, 0.5])
        for evaluate in (g.forward, g.inverse):
            calls.clear()
            evaluate(point)
            assert len(calls) == 3

    def test_zero_coefficients_evaluate_no_phi(self, monkeypatch):
        calls = []
        monkeypatch.setitem(
            equiflow.geometry._SHEAR_FUNCS, "sin", lambda x: calls.append(1) or np.sin(x)
        )
        g = shear_diffeomorphism(np.zeros((3, 3)))
        point = np.array([0.3, -0.8, 1.1])
        assert np.array_equal(g.forward(point), point) and np.array_equal(g.inverse(point), point)
        assert calls == []


class TestNonFiniteMaps:
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_affine_matrix_or_shift_refused_when_made(self, bad):
        matrix, shift = np.eye(2), np.zeros(2)
        for made in (
            lambda: affine_diffeomorphism([[1.0, bad], [0.0, 1.0]]),
            lambda: affine_diffeomorphism(matrix, [0.5, bad]),
            lambda: translation([bad, 0.0]),
        ):
            with pytest.raises(ConfigurationError, match="^affine map needs a finite matrix"):
                made()

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_shear_coefficient_refused_when_made(self, bad):
        coeffs = np.zeros((3, 3))
        coeffs[2, 1] = bad
        with pytest.raises(ConfigurationError, match="^shear coefficients must be finite"):
            shear_diffeomorphism(coeffs)


class TestCheckPositive:
    @pytest.mark.parametrize(
        "value",
        [0, -1.0, np.nan, np.inf, -np.inf, True, "x", None]
        + [pytest.param(10**400, id="ten-to-the-400"), pytest.param(2**1024, id="two-to-1024")],
    )
    def test_refuses(self, value):
        with pytest.raises(ConfigurationError, match="^horizon must be positive"):
            check_positive(value, "horizon")

    @pytest.mark.parametrize("value", [1, 0.5, np.float64(2.0), 5e-324, 2**64])
    def test_accepts(self, value):
        check_positive(value, "horizon")
