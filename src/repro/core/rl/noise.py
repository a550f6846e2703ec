"""Exploration noise for DDPG action selection.

DDPG explores by adding temporally correlated noise to the deterministic
policy's actions (Algorithm 3, line 8: ``a_t = pi(s_t) + N_t``).  We use an
Ornstein-Uhlenbeck process, the standard choice for DDPG on continuous
control.
"""

from __future__ import annotations


import numpy as np


class OrnsteinUhlenbeckNoise:
    """Ornstein-Uhlenbeck process noise.

    Parameters
    ----------
    size:
        Dimensionality of the action vector.
    mu / theta / sigma:
        Process parameters (long-run mean, mean-reversion rate, volatility).
    seed:
        Seed for the underlying Gaussian draws.
    """

    def __init__(
        self,
        size: int,
        mu: float = 0.0,
        theta: float = 0.15,
        sigma: float = 0.2,
        seed: int = 0,
    ) -> None:
        self.size = int(size)
        self.mu = float(mu)
        self.theta = float(theta)
        self.sigma = float(sigma)
        self._rng = np.random.default_rng(seed)
        self._state = np.full(self.size, self.mu)

    def reset(self) -> None:
        """Reset the process to its long-run mean (start of an episode)."""
        self._state = np.full(self.size, self.mu)

    def sample(self) -> np.ndarray:
        """Draw the next correlated noise vector."""
        drift = self.theta * (self.mu - self._state)
        diffusion = self.sigma * self._rng.normal(size=self.size)
        self._state = self._state + drift + diffusion
        return self._state.copy()

    def scaled_sample(self, scale: float) -> np.ndarray:
        """Noise sample multiplied by ``scale`` (for annealed exploration)."""
        return self.sample() * float(scale)
