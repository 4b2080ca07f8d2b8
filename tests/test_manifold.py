import math
from types import SimpleNamespace

import numpy as np
import pytest

from loopsphere import manifold, trigpoly
from loopsphere.prng import SplitMix64


def random_frame(rng, k):
    raw = np.array([rng.gauss_vector(k + 1) for _ in range(3)])
    q, _ = np.linalg.qr(raw.T)
    return q[:, :3].T


def test_model_params_validation():
    with pytest.raises(ValueError, match="k must be"):
        manifold.ModelParams(k=1)
    with pytest.raises(ValueError, match="radius"):
        manifold.ModelParams(k=2, R=0.0)
    with pytest.raises(ValueError, match="coupling"):
        manifold.ModelParams(k=2, L=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="radius"):
            manifold.ModelParams(k=2, R=bad)
        with pytest.raises(ValueError, match="coupling"):
            manifold.ModelParams(k=2, L=bad)


def test_chart_loops_satisfy_constraint():
    rng = SplitMix64(11)
    for k in (2, 3, 5):
        params = manifold.ModelParams(k=k, R=1.3)
        point = manifold.FramePoint(t=0.4, frame=random_frame(rng, k))
        n = manifold.alg_chart(point, params)
        res = trigpoly.constraint_residual(n, params.R)
        assert res.max_abs_coeff() < 1e-12


def test_chart_inverse_roundtrip():
    rng = SplitMix64(12)
    params = manifold.ModelParams(k=3, R=0.8)
    frame = random_frame(rng, 3)
    point = manifold.FramePoint(t=0.25, frame=frame)
    n = manifold.alg_chart(point, params)
    back = manifold.chart_inverse(n, params)
    assert abs(back.t - 0.25) < 1e-12
    # Frame legs recovered up to the signs fixed by the chart (all positive here).
    assert np.allclose(np.abs(back.frame @ frame.T), np.eye(3), atol=1e-10)


def test_trig_chart_matches_alg_chart():
    rng = SplitMix64(13)
    params = manifold.ModelParams(k=2, R=2.0)
    frame = random_frame(rng, 2)
    tau = 0.6
    t = manifold.t_of_tau(tau, params)
    n1 = manifold.trig_chart(tau, frame, params)
    n2 = manifold.alg_chart(manifold.FramePoint(t=t, frame=frame), params)
    assert np.allclose(n1.eval(0.3), n2.eval(0.3), atol=1e-13)
    assert abs(manifold.tau_of_t(t, params) - tau) < 1e-13


def test_classify_stratum_cases():
    params = manifold.ModelParams(k=2, R=1.0)
    point_loop = trigpoly.trig_poly(np.array([1.0, 0.0, 0.0]))
    assert manifold.classify_stratum(point_loop, 1.0) is manifold.Stratum.POINT_LOOPS
    circle = trigpoly.trig_poly(
        np.zeros(3), a=np.array([[1.0, 0.0, 0.0]]), b=np.array([[0.0, 1.0, 0.0]])
    )
    assert manifold.classify_stratum(circle, 1.0) is manifold.Stratum.GREAT_CIRCLES
    rng = SplitMix64(14)
    smooth = manifold.alg_chart(
        manifold.FramePoint(t=0.5, frame=random_frame(rng, 2)), params
    )
    assert manifold.classify_stratum(smooth, 1.0) is manifold.Stratum.SMOOTH
    off = trigpoly.trig_poly(np.array([2.0, 0.0, 0.0]))
    assert manifold.classify_stratum(off, 1.0) is manifold.Stratum.NOT_ON_VARIETY
    # The circle (k = 1) has no ModelParams; its loops classify all the same.
    circle_of_circle = trigpoly.trig_poly(
        np.zeros(2), a=np.array([[1.0, 0.0]]), b=np.array([[0.0, 1.0]])
    )
    assert manifold.classify_stratum(circle_of_circle, 1.0) is manifold.Stratum.GREAT_CIRCLES
    with pytest.raises(ValueError, match="R\\^4 but parameters specify R\\^3"):
        manifold.chart_inverse(trigpoly.trig_poly(np.array([1.0, 0.0, 0.0, 0.0])), params)
    with pytest.raises(manifold.StratumError, match="point-loops"):
        manifold.chart_inverse(point_loop, params)


def test_weight_change_of_variable():
    # weight_trig(tau) = weight_alg(t) * dt/dtau at t = sin^2(tau/R).
    params = manifold.ModelParams(k=4, R=1.7)
    for tau in (0.3, 0.9, 1.8):
        if tau >= math.pi * params.R / 2.0:
            continue
        t = manifold.t_of_tau(tau, params)
        dt_dtau = 2.0 * math.sin(tau / params.R) * math.cos(tau / params.R) / params.R
        assert np.isclose(
            manifold.weight_trig(tau, params),
            manifold.weight_alg(t, params) * dt_dtau,
            rtol=1e-12,
        )


def test_weight_prefactor_value():
    params = manifold.ModelParams(k=3, R=2.0)
    assert np.isclose(
        manifold.weight_prefactor(params), 2.0**7 / 2.0**6, rtol=1e-14
    )


def test_stored_prefactor_leaves_the_parameters_identity_alone():
    params = manifold.ModelParams(k=3, R=2.0)
    assert params.prefactor == manifold.weight_prefactor(params)
    assert repr(params) == "ModelParams(k=3, R=2.0, L=1.0)"
    twin = manifold.ModelParams(k=3.0, R=2)
    assert twin == params and hash(twin) == hash(params)
    assert manifold.ModelParams(k=3, R=2.5) != params


def test_weight_with_an_overflowing_prefactor_raises_on_use():
    # 2^((5k-3)/2) in the weight prefactor overflows a double above k = 410,
    # so ModelParams refuses such k and the weight never meets the overflow.
    with pytest.raises(OverflowError):
        manifold.weight_prefactor(SimpleNamespace(k=manifold.K_MAX + 1, R=1.0))
    with pytest.raises(ValueError, match=r"k = 411 is out of range.*k > 410"):
        manifold.ModelParams(k=manifold.K_MAX + 1)
    params = manifold.ModelParams(k=manifold.K_MAX)
    assert params.prefactor > 0.0
    assert math.isfinite(manifold.weight_alg(0.5, params))
    with pytest.raises(ValueError, match="open interval"):
        manifold.weight_alg(1.5, params)


def test_metric_omega_structure():
    params = manifold.ModelParams(k=5, R=2.0)
    block = manifold.metric_omega(0.3, params)
    assert block.scale == params.R**2 / 4.0
    assert block.multiplicities == {"va": 1, "vb": 1, "ab": 1, "vi": 3, "ai": 3, "bi": 3}
    assert block.coefficients["va"] == pytest.approx(1.3)
    assert block.coefficients["ab"] == pytest.approx(1.4)
    assert block.coefficients["vi"] == pytest.approx(0.6)
    k2 = manifold.metric_omega(0.3, manifold.ModelParams(k=2))
    assert set(k2.coefficients) == {"va", "vb", "ab"}


def test_sphere_and_stiefel_volumes():
    assert np.isclose(manifold.sphere_volume(1), 2.0 * math.pi, rtol=1e-14)
    assert np.isclose(manifold.sphere_volume(2), 4.0 * math.pi, rtol=1e-14)
    assert np.isclose(manifold.sphere_volume(3), 2.0 * math.pi**2, rtol=1e-14)
    assert np.isclose(manifold.stiefel_volume(2), 16.0 * math.pi**2, rtol=1e-14)
    for k in range(2, 7):
        prod = (
            manifold.sphere_volume(k)
            * manifold.sphere_volume(k - 1)
            * manifold.sphere_volume(k - 2)
        )
        assert np.isclose(manifold.stiefel_volume(k), prod, rtol=1e-13)


def test_radial_volume_quadrature_matches_closed_form():
    for k in (2, 3, 4, 6):
        params = manifold.ModelParams(k=k, R=1.5)
        quad = manifold.radial_volume_quadrature(params)
        closed = manifold.radial_volume_closed_form(params)
        assert abs(quad - closed) <= 1e-11 * closed


def test_volume_density_discrepancy_record():
    rec = manifold.volume_density_discrepancy(manifold.ModelParams(k=4))
    assert rec["ratio_matches_model"]
    assert np.allclose(rec["ratio"], (1.0 - rec["t"]) / math.sqrt(2.0), rtol=1e-12)
