"""Trajectory oracle for the integrated meridian families.

Each realized trajectory is re-integrated with scipy's DOP853 at tight
tolerances on the same branch-tracked field, and the knot states must agree.
The property checks of the verifier cannot see a coarse trajectory (for the
derivative-only families the constraint is identically 0 and the derivatives
are recomputed from the defining relation at every query), so this is the
check that fails when the integration is too coarse.
"""

import numpy as np
import pytest

scipy_integrate = pytest.importorskip("scipy.integrate")

from grs4 import meridians  # noqa: E402
from grs4.meridians import (FAMILY_CATALOG, build_family,  # noqa: E402
                            descriptor_from_catalog)
from point_reference import tracking_field  # noqa: E402

INTEGRATED = [c for c, e in FAMILY_CATALOG.items() if e.realization == "ode"]
GATE = 1e-11   # max knot difference over max(1, max|y|)


def knot_deviation(case):
    """Relative max knot difference between the realization and DOP853."""
    desc = descriptor_from_catalog(case)
    sm = build_family(desc).ensure_realized()
    ts, ys = sm.traj.ts, sm.traj.ys
    field, _ = tracking_field(sm.rule, desc.root)
    sol = scipy_integrate.solve_ivp(field, (ts[0], ts[-1]), ys[0],
                                    method="DOP853", rtol=1e-13, atol=1e-13,
                                    t_eval=ts)
    assert sol.success, sol.message
    ref = sol.y.T
    return float(np.max(np.abs(ys - ref))) / max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("case", INTEGRATED)
def test_realization_matches_dop853(case):
    assert knot_deviation(case) <= GATE


@pytest.mark.parametrize("case", INTEGRATED)
def test_oracle_rejects_coarse_integration(monkeypatch, case):
    monkeypatch.setattr(meridians, "_INITIAL_STEPS", 32)
    monkeypatch.setattr(meridians, "_MAX_HALVINGS", 0)
    assert knot_deviation(case) > GATE
