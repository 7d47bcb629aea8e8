"""Gate power: a table of known-wrong inputs that each check must reject.

Each row names a check with a ``pass`` key (or a data section, below), a
perturbation of the solved u and a case (flat disk h=0.05 or flat ellipse
(2, 1) h=0.035, at p=2 or p=3).  The perturbed u goes through `recover_derivatives`, `boundary_trace`
and `build_report`, as in a verify case, and the check must fail there; the
row first asserts that the check passes on the unperturbed u.

- ``fundamental`` and ``flux`` reject u x 1.03 and u x 0.97 in all four
  cases.
- ``eq_curvature`` rejects u x (1 + 0.05x) in all four cases, and u x 1.03
  and u x 0.97 only at p=3 (at p=2 a 3% scale leaves it at about 0.6 of its
  tolerance).
- ``subharmonicity`` rejects u x 0.97 and u x (1 + 0.05x) on the disk at
  both p, but on the ellipse only u x (1 + 0.05x) at p=3.

``sbt`` and ``hk`` regroup ``fundamental``'s volume residual and the flux,
so they are data with no ``pass``.  Their rows show that dropping their
verdicts loses no rejection: where u x 1.03 or u x 0.97 moves their
``rel_residual`` past ``IDENTITY_REL``, ``fundamental`` or ``flux`` fails.

Two gates are weak.  The subharmonicity scan is one-sided: it tests
min L_u P >= -tol, so it passes u x 1.03 everywhere, and it passes u x 0.97
on the ellipse at both p.  `matcheck` has no row: its planar gap is
identically 0, so in the plane it cannot fail for a real kernel error.
"""

import functools

import pytest

from plap_lab.fields import recover_derivatives
from plap_lab.identities import IDENTITY_REL, boundary_trace, build_report
from plap_lab.metric import ConformalMetric

H = {"disk": 0.05, "ellipse": 0.035}
PERTURBATIONS = {
    "u*1.03": lambda u, x: 1.03 * u,
    "u*0.97": lambda u, x: 0.97 * u,
    "u*(1+0.05x)": lambda u, x: u * (1.0 + 0.05 * x[:, 0]),
}
CASES = [(domain, p) for domain in H for p in (2.0, 3.0)]
DATA_SECTIONS = ("sbt", "hk")

ROWS = (
    [(check, pert, domain, p) for check in ("fundamental", "sbt", "flux", "hk")
     for pert in ("u*1.03", "u*0.97") for domain, p in CASES]
    + [("eq_curvature", "u*(1+0.05x)", domain, p) for domain, p in CASES]
    + [("eq_curvature", pert, domain, 3.0) for pert in ("u*1.03", "u*0.97") for domain in H]
    + [("subharmonicity", pert, "disk", p) for pert in ("u*0.97", "u*(1+0.05x)") for p in (2.0, 3.0)]
    + [("subharmonicity", "u*(1+0.05x)", "ellipse", 3.0)]
)


@functools.cache
def _sections(lab, domain: str, p: float, perturbation: str | None) -> dict:
    """The report sections on the case's u, perturbed if asked."""
    mesh = lab.mesh(domain, H[domain])
    u = lab.solution(domain, p, H[domain]).u
    if perturbation is not None:
        u = PERTURBATIONS[perturbation](u, mesh.points)
    bundle = recover_derivatives(mesh, u, ConformalMetric.flat())
    return build_report(u, bundle, boundary_trace(bundle, p)).sections


def _verdicts(sections: dict) -> dict:
    return {name: section["pass"] for name, section in sections.items()
            if isinstance(section, dict) and "pass" in section}


@pytest.mark.parametrize("check, perturbation, domain, p", ROWS,
                         ids=[f"{c}-{pert}-{d}-p{p:g}" for c, pert, d, p in ROWS])
def test_check_rejects_perturbed_solution(lab, check, perturbation, domain, p):
    before, after = _sections(lab, domain, p, None), _sections(lab, domain, p, perturbation)
    if check in DATA_SECTIONS:
        assert before[check]["rel_residual"] <= IDENTITY_REL < after[check]["rel_residual"]
        assert not (after["fundamental"]["pass"] and after["flux"]["pass"])
    else:
        assert before[check]["pass"] and not after[check]["pass"]


@pytest.mark.parametrize("domain, p", CASES, ids=[f"{d}-p{p:g}" for d, p in CASES])
def test_every_check_has_a_row(lab, domain, p):
    # a check added to the report gets its rows here, or is named weak above
    assert set(_verdicts(_sections(lab, domain, p, None))) == \
        {row[0] for row in ROWS} - set(DATA_SECTIONS)
