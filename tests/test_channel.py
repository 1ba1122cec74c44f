import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc
from scipy.stats import kstest

from semsample.channel import (
    FadingParams,
    LinkBudget,
    expected_energy,
    moment,
    pdf,
    rate_bits_per_s,
    sample_gain,
    transmission_duration,
)
from oracles import moment_quadrature

UNIT = FadingParams(m=6.0, m_s=6.0, g_bar=1.0)


def test_fading_params_domain():
    with pytest.raises(ValueError):
        FadingParams(m=1.0, m_s=6.0, g_bar=1.0)
    with pytest.raises(ValueError):
        FadingParams(m=6.0, m_s=0.5, g_bar=1.0)
    with pytest.raises(ValueError):
        FadingParams(m=6.0, m_s=6.0, g_bar=0.0)


def test_link_budget_derived_constants():
    link = LinkBudget()
    assert link.pathloss_db == pytest.approx(35.3 + 37.6 * 2.0)
    assert link.g_bar == pytest.approx(10 ** (-link.pathloss_db / 10))
    # -90 dBm/Hz over 1 kHz -> -60 dBm -> 1e-9 W
    assert link.noise_power_w == pytest.approx(1e-9)
    assert link.snr_threshold == pytest.approx(10 ** 1.5)


# -- pdf ---------------------------------------------------------------------


def test_pdf_rejects_nonpositive_gain():
    with pytest.raises(ValueError):
        pdf(UNIT, 0.0)
    with pytest.raises(ValueError):
        pdf(UNIT, np.array([0.5, -1.0]))


def test_pdf_normalizes_to_one():
    total, _ = quad(lambda g: pdf(UNIT, g), 0, np.inf, limit=300)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_pdf_first_moment_matches_mean():
    mean, _ = quad(lambda g: g * pdf(UNIT, g), 0, np.inf, limit=300)
    assert mean == pytest.approx(UNIT.g_bar, rel=1e-6)


def test_pdf_finite_positive_at_mode():
    g = np.linspace(0.01, 5.0, 500)
    density = pdf(UNIT, g)
    assert np.isfinite(density).all()
    assert density.max() > 0
    # also stable at tiny mean gains typical of long links
    tiny = FadingParams(m=6.0, m_s=6.0, g_bar=1e-11)
    assert np.isfinite(pdf(tiny, 1e-11))


# -- moments -----------------------------------------------------------------


def test_moment_zero_is_one():
    assert moment(UNIT, 0) == pytest.approx(1.0, rel=1e-12)


def test_moment_one_is_mean():
    for params in (UNIT, FadingParams(3.0, 8.0, 2.5e-11)):
        assert moment(params, 1) == pytest.approx(params.g_bar, rel=1e-12)


def test_inverse_moment_known_value():
    # 6 G(5) G(7) / (5 G(6) G(6)) = 1.44
    assert moment(UNIT, -1) == pytest.approx(1.44, rel=1e-9)


def test_moment_matches_quadrature():
    for n in (-1, 0.5, 2):
        assert moment(UNIT, n) == pytest.approx(moment_quadrature(UNIT, n), rel=1e-6)


def test_moment_domain_errors():
    with pytest.raises(ValueError):
        moment(UNIT, 6.0)  # n >= m_s diverges
    with pytest.raises(ValueError):
        moment(UNIT, -6.0)  # n <= -m diverges


# -- sampler -----------------------------------------------------------------


def test_sample_gain_deterministic_under_seed():
    a = sample_gain(UNIT, np.random.default_rng(99), size=1000)
    b = sample_gain(UNIT, np.random.default_rng(99), size=1000)
    assert np.array_equal(a, b)


def test_sample_gain_mean_and_inverse_mean():
    rng = np.random.default_rng(1234)
    draws = sample_gain(UNIT, rng, size=1_000_000)
    assert draws.mean() == pytest.approx(UNIT.g_bar, rel=0.01)
    assert (1.0 / draws).mean() == pytest.approx(moment(UNIT, -1), rel=0.02)


def test_sample_gain_distribution_ks():
    # closed-form CDF via the regularized incomplete beta, itself validated
    # against direct quadrature of the density on a coarse grid
    params = UNIT
    scale = params.g_bar * (params.m_s - 1) / params.m

    def cdf(x):
        z = np.asarray(x) / scale
        return betainc(params.m, params.m_s, z / (1.0 + z))

    for probe in (0.2, 0.7, 1.5, 3.0):
        by_quad, _ = quad(lambda g: pdf(params, g), 0, probe, limit=300)
        assert cdf(probe) == pytest.approx(by_quad, abs=1e-9)

    rng = np.random.default_rng(7)
    draws = sample_gain(params, rng, size=100_000)
    result = kstest(draws, cdf)
    assert result.pvalue > 0.01


# -- rate and duration --------------------------------------------------------


def test_rate_at_default_link():
    link = LinkBudget()
    expected = 1000.0 * math.log2(1.0 + 10**1.5)
    assert rate_bits_per_s(link) == pytest.approx(expected, rel=1e-12)
    assert rate_bits_per_s(link) == pytest.approx(5027.8, abs=0.1)


def test_rate_unit_bandwidth_zero_db():
    link = LinkBudget(bandwidth_hz=1.0, snr_threshold_db=0.0)
    assert rate_bits_per_s(link) == pytest.approx(1.0)


def test_rate_vanishes_with_threshold():
    link = LinkBudget(snr_threshold_db=-80.0)
    assert rate_bits_per_s(link) < 2e-5 * link.bandwidth_hz


def test_duration_of_single_record():
    link = LinkBudget()
    assert transmission_duration(22, link) == pytest.approx(4.3757e-3, rel=1e-4)
    assert transmission_duration(0, link) == 0.0
    assert transmission_duration(44, link) == pytest.approx(
        2 * transmission_duration(22, link), rel=1e-12
    )
    with pytest.raises(ValueError):
        transmission_duration(-1, link)


# -- energy --------------------------------------------------------------------


def test_expected_energy_zero_for_empty_packet():
    link = LinkBudget()
    assert expected_energy(0, link, link.fading(6.0, 6.0)) == 0.0


def test_expected_energy_moment_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        link = LinkBudget(
            bandwidth_hz=float(rng.uniform(100, 1e6)),
            snr_threshold_db=float(rng.uniform(0, 30)),
            noise_psd_dbm_hz=float(rng.uniform(-120, -60)),
            distance_m=float(rng.uniform(5, 500)),
        )
        params = FadingParams(
            m=float(rng.uniform(1.2, 12)),
            m_s=float(rng.uniform(1.2, 12)),
            g_bar=link.g_bar,
        )
        bits = float(rng.integers(1, 1500))
        direct = expected_energy(bits, link, params)
        via_moment = (
            transmission_duration(bits, link)
            * link.snr_threshold
            * link.noise_power_w
            * moment(params, -1)
        )
        assert direct == pytest.approx(via_moment, rel=1e-12)


def test_expected_energy_monte_carlo():
    link = LinkBudget()
    params = link.fading(6.0, 6.0)
    rng = np.random.default_rng(11)
    draws = sample_gain(params, rng, size=1_000_000)
    mc = (
        transmission_duration(22, link)
        * link.snr_threshold
        * link.noise_power_w
        * (1.0 / draws).mean()
    )
    assert expected_energy(22, link, params) == pytest.approx(mc, rel=0.02)


def test_expected_energy_monotonicity_grid():
    base_psd = -90.0
    sizes = np.linspace(10, 2000, 5)
    thresholds = np.linspace(0.0, 24.0, 5)
    distances = np.linspace(20, 400, 5)  # larger distance = smaller gain
    values = np.empty((5, 5, 5))
    for i, bits in enumerate(sizes):
        for j, th in enumerate(thresholds):
            for k, d in enumerate(distances):
                link = LinkBudget(
                    snr_threshold_db=float(th), noise_psd_dbm_hz=base_psd,
                    distance_m=float(d),
                )
                values[i, j, k] = expected_energy(float(bits), link, link.fading(6.0, 6.0))
    assert (np.diff(values, axis=0) > 0).all()  # more bits cost more
    assert (np.diff(values, axis=1) > 0).all()  # higher threshold costs more
    assert (np.diff(values, axis=2) > 0).all()  # weaker gain costs more
