"""The tolerances of the identity checks, the `tolerances` object of a config.

They live apart from `identities` so that the CLI can validate a config
without loading the 2-D layers and scipy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Tolerances:
    identity_rel: float = 0.02
    flux_rel: float = 0.01
    eq_curvature_nodewise: float = 0.05
    flags_tol: float = 0.03
