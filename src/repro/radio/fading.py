"""Alternative channel-gain models (shadowing and fast fading).

Section 2.2 of the paper notes that "the SINR can be calculated based on
other wireless communication models based on the actual networking
environment — it will not impact the IDDE problem or the performance of
the proposed approaches fundamentally."  This module makes that claim
testable by providing drop-in gain models beyond the deterministic power
law:

* :func:`lognormal_shadowing` — the power law multiplied by a per-link
  log-normal shadowing term (σ in dB, the standard urban model);
* :func:`rayleigh_expected` — the power law scaled by the expectation of
  a unit-mean exponential fast-fading power gain (which is 1 — Rayleigh
  fading leaves the *mean* gain unchanged) with an optional diversity
  back-off for worst-case provisioning;
* :func:`composite_gain` — shadowing and fading combined.

A gain matrix from any of these enters a whole instance as
``IDDEInstance(..., gain_override=gain)``, or one standalone
:class:`~repro.radio.sinr.SinrEngine` as
``SinrEngine(scenario, cfg, tables=RadioTables.build(scenario, cfg, gain))``;
the robustness bench re-runs the solver line-up under shadowing and asserts
the orderings survive.
"""

from __future__ import annotations

import numpy as np

from ..config import RadioConfig
from ..errors import ConfigurationError
from ..rng import ensure_rng
from .channel import gain_matrix

__all__ = ["lognormal_shadowing", "rayleigh_expected", "composite_gain"]


def lognormal_shadowing(
    server_xy: np.ndarray,
    user_xy: np.ndarray,
    rng: np.random.Generator | int | None = None,
    *,
    sigma_db: float = 6.0,
    cfg: RadioConfig | None = None,
) -> np.ndarray:
    """Power-law gain with per-link log-normal shadowing.

    ``g = η H^-loss · 10^(X/10)`` with ``X ~ N(0, σ_dB²)`` drawn once per
    (server, user) link — the slow-fading component stays fixed for the
    scenario's lifetime, as in standard urban measurement models.
    """
    if sigma_db < 0:
        raise ConfigurationError(f"sigma_db must be >= 0, got {sigma_db}")
    rng = ensure_rng(rng)
    base = gain_matrix(server_xy, user_xy, cfg)
    shadow_db = rng.normal(0.0, sigma_db, size=base.shape)
    return base * 10.0 ** (shadow_db / 10.0)


def rayleigh_expected(
    server_xy: np.ndarray,
    user_xy: np.ndarray,
    *,
    diversity_backoff: float = 1.0,
    cfg: RadioConfig | None = None,
) -> np.ndarray:
    """Power-law gain under expected Rayleigh fast fading.

    The exponential power-fading term has unit mean, so the expected gain
    equals the power law; ``diversity_backoff ≤ 1`` optionally derates the
    signal (not the interference would be inconsistent — the backoff
    applies uniformly) to provision for outage rather than the mean.
    """
    if not (0 < diversity_backoff <= 1.0):
        raise ConfigurationError(
            f"diversity_backoff must be in (0, 1], got {diversity_backoff}"
        )
    return diversity_backoff * gain_matrix(server_xy, user_xy, cfg)


def composite_gain(
    server_xy: np.ndarray,
    user_xy: np.ndarray,
    rng: np.random.Generator | int | None = None,
    *,
    sigma_db: float = 6.0,
    diversity_backoff: float = 1.0,
    cfg: RadioConfig | None = None,
) -> np.ndarray:
    """Shadowing and expected fast fading combined."""
    shadowed = lognormal_shadowing(
        server_xy, user_xy, rng, sigma_db=sigma_db, cfg=cfg
    )
    if not (0 < diversity_backoff <= 1.0):
        raise ConfigurationError(
            f"diversity_backoff must be in (0, 1], got {diversity_backoff}"
        )
    return diversity_backoff * shadowed
