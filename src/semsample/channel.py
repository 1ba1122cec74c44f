"""Composite fading channel model and transmission energy math.

The channel gain follows the two-shape composite fading distribution that
jointly captures multipath (shape ``m``) and shadowing (shape ``m_s``).  The
transmitter holds the received SNR at a decoding threshold via power control,
so energy per packet reduces to closed-form gamma-function expressions; a
seeded gain sampler exists for Monte-Carlo validation.

All dB-to-linear conversions happen once at :class:`LinkBudget` construction;
everything at runtime is linear-domain.  Gamma/beta evaluations go through
log-gamma to stay stable at large shapes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln

__all__ = [
    "FadingParams",
    "LinkBudget",
    "pdf",
    "moment",
    "sample_gain",
    "rate_bits_per_s",
    "transmission_duration",
    "expected_energy",
]

MAX_SHAPE = 2.0 ** 53


@dataclass(frozen=True)
class FadingParams:
    """Shape parameters and mean of the composite fading gain distribution."""

    m: float
    m_s: float
    g_bar: float

    def __post_init__(self) -> None:
        # m > 1 keeps the inverse-gain moment finite (power control would
        # otherwise need unbounded mean power); m_s > 1 keeps the mean finite.
        # The closed forms take log-gamma differences such as
        # lgamma(m - 1) - lgamma(m): from MAX_SHAPE on, a shape plus or minus
        # 1 can round to the shape itself, which loses the difference (and
        # past about 2.5e305 lgamma overflows)
        if not 1.0 < self.m < MAX_SHAPE:
            raise ValueError(f"multipath shape m must be > 1 and < 2**53, got {self.m}")
        if not 1.0 < self.m_s < MAX_SHAPE:
            raise ValueError(f"shadowing shape m_s must be > 1 and < 2**53, got {self.m_s}")
        if not self.g_bar > 0.0:
            raise ValueError(f"average gain must be > 0, got {self.g_bar}")


@dataclass(frozen=True)
class LinkBudget:
    """Static link parameters with derived linear-domain constants.

    Construction takes the human units (dB, dBm/Hz, meters); the derived
    fields ``snr_threshold`` (linear), ``pathloss_db``, ``g_bar`` and
    ``noise_power_w`` are computed once here.
    """

    bandwidth_hz: float = 1000.0
    snr_threshold_db: float = 15.0
    noise_psd_dbm_hz: float = -90.0
    distance_m: float = 100.0
    snr_threshold: float = field(init=False)
    pathloss_db: float = field(init=False)
    g_bar: float = field(init=False)
    noise_power_w: float = field(init=False)

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if self.distance_m <= 0:
            raise ValueError("distance must be positive")
        object.__setattr__(self, "snr_threshold", 10.0 ** (self.snr_threshold_db / 10.0))
        pl = 35.3 + 37.6 * math.log10(self.distance_m)
        object.__setattr__(self, "pathloss_db", pl)
        object.__setattr__(self, "g_bar", 10.0 ** (-pl / 10.0))
        noise_dbm = self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz)
        object.__setattr__(self, "noise_power_w", 10.0 ** ((noise_dbm - 30.0) / 10.0))

    def fading(self, m: float, m_s: float) -> FadingParams:
        """Fading parameters whose mean gain is this link's pathloss gain."""
        return FadingParams(m=m, m_s=m_s, g_bar=self.g_bar)


def pdf(params: FadingParams, g):
    """Density of the instantaneous channel gain, elementwise over ``g``."""
    g_arr = np.asarray(g, dtype=np.float64)
    if np.any(g_arr <= 0.0):
        raise ValueError("gain must be positive")
    m, m_s, g_bar = params.m, params.m_s, params.g_bar
    log_f = (
        m * math.log(m)
        + m_s * math.log(m_s - 1.0)
        + m_s * math.log(g_bar)
        - betaln(m, m_s)
        + (m - 1.0) * np.log(g_arr)
        - (m + m_s) * np.log(m * g_arr + (m_s - 1.0) * g_bar)
    )
    out = np.exp(log_f)
    return float(out) if np.isscalar(g) or np.ndim(g) == 0 else out


def moment(params: FadingParams, n: float) -> float:
    """n-th moment of the gain, E[g^n], in closed form via log-gamma.

    Finite only for -m < n < m_s.
    """
    m, m_s, g_bar = params.m, params.m_s, params.g_bar
    if not (-m < n < m_s):
        raise ValueError(f"moment order {n} outside convergence range (-{m}, {m_s})")
    log_val = (
        n * (math.log(m_s - 1.0) + math.log(g_bar) - math.log(m))
        + math.lgamma(m + n)
        + math.lgamma(m_s - n)
        - math.lgamma(m)
        - math.lgamma(m_s)
    )
    return math.exp(log_val)


def sample_gain(params: FadingParams, rng: np.random.Generator, size=None):
    """Draw instantaneous gains: g = g_bar (m_s-1) U / (m V) with independent
    U ~ Gamma(m, 1) and V ~ Gamma(m_s, 1), which realizes the model pdf.

    The two gamma draws happen in a fixed order (U first), so equal seeds
    give identical sequences.
    """
    u = rng.gamma(params.m, size=size)
    v = rng.gamma(params.m_s, size=size)
    return params.g_bar * (params.m_s - 1.0) * u / (params.m * v)


def rate_bits_per_s(link: LinkBudget) -> float:
    """Achievable rate W log2(1 + SNR threshold), in bits per second."""
    return link.bandwidth_hz * math.log2(1.0 + link.snr_threshold)


def transmission_duration(size_bits: float, link: LinkBudget) -> float:
    """Airtime of a packet of ``size_bits`` bits; 0 for an empty packet."""
    if size_bits < 0:
        raise ValueError("packet size must be >= 0")
    if size_bits == 0:
        return 0.0
    return size_bits / rate_bits_per_s(link)


def expected_energy(size_bits: float, link: LinkBudget, params: FadingParams) -> float:
    """Mean transmission energy in joules under SNR-holding power control.

    Evaluates the closed form
    ``delta * Theta * sigma^2 * m G(m-1) G(m_s+1) / ((m_s-1) g_bar G(m) G(m_s))``
    directly (deliberately not routed through :func:`moment`, so the two can
    cross-check each other).
    """
    delta = transmission_duration(size_bits, link)
    if delta == 0.0:
        return 0.0
    m, m_s, g_bar = params.m, params.m_s, params.g_bar
    log_inv = (
        math.log(m)
        + math.lgamma(m - 1.0)
        + math.lgamma(m_s + 1.0)
        - math.log(m_s - 1.0)
        - math.log(g_bar)
        - math.lgamma(m)
        - math.lgamma(m_s)
    )
    return delta * link.snr_threshold * link.noise_power_w * math.exp(log_inv)
