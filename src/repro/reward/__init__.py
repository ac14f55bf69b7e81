"""The occupation-time algorithm of the analytic solver.

:mod:`repro.reward.occupation` holds the exact uniformisation-based
algorithm for the accumulated-reward distribution when the rewards take (at
most) two distinct values, following De Souza e Silva & Gail / Sericola.
The ``analytic`` solver uses it for single-well two-level-current
workloads, and it is the independent correctness oracle for the Markovian
approximation.
"""

from repro.reward.occupation import (
    occupation_time_distribution,
    two_level_reward_distribution,
)

__all__ = [
    "occupation_time_distribution",
    "two_level_reward_distribution",
]
