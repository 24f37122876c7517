"""A nan or +-inf anywhere in the input of a public entry point gives a
finite result, a typed ArmError, or ValueError("<name> must be finite"):
never a silent nan, nor an error from deeper down (math domain error,
scipy's own message)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armctl import (
    ArmError,
    ControllerMode,
    GridSpec,
    JointAngles,
    LinearModel,
    OperatingPoint,
    SimConfig,
    Trajectory,
    equilibrium_point,
    equilibrium_torque,
    fk_planar,
    fk_spatial,
    forward_dynamics,
    ik,
    joint_inertias,
    linearize,
    lookup,
    lqr_gain,
    precompute,
    refine,
    simulate,
    total_energy,
)

THETA = [0.3, 0.8, -0.9, 0.5]
RATES = [0.1, -0.2, 0.3, 0.1]
X0 = THETA + RATES


@pytest.fixture(scope="module")
def entry_points(geom, masses, weights, theta_ref):
    """name -> (finite base input, call taking that input as a list)."""
    box = (tuple(theta_ref - 0.1), tuple(theta_ref + 0.1))
    flat = precompute(geom, masses, weights, GridSpec(*box, (2, 2, 2, 2)))
    refined = refine(geom, masses, weights, box, 0.4, 2)
    torque = list(equilibrium_torque(geom, masses, THETA))
    model = linearize(geom, masses, equilibrium_point(geom, masses, THETA))
    target = list(fk_spatial(geom, JointAngles(*THETA))[-1])
    sim = SimConfig(duration=0.02)

    def simulate_table(v):
        return simulate(geom, masses, sim, ControllerMode.TABLE_LQR, v[:8], v[8:],
                        weights=weights, table=flat)

    return {
        "fk_planar": (THETA[1:], lambda v: fk_planar(geom, *v)),
        "fk_spatial": (THETA, lambda v: fk_spatial(geom, JointAngles(*v))),
        "ik": (target + [sum(THETA[1:])], lambda v: ik(geom, v[:3], pitch=v[3])),
        "forward_dynamics": (THETA + RATES + torque,
                             lambda v: forward_dynamics(geom, masses, v[:4], v[4:8], v[8:])),
        "equilibrium_torque": (THETA, lambda v: equilibrium_torque(geom, masses, v)),
        "total_energy": (X0, lambda v: total_energy(geom, masses, v[:4], v[4:])),
        "joint_inertias": (THETA, lambda v: joint_inertias(geom, masses, v)),
        "linearize": (THETA + RATES + torque, lambda v: linearize(
            geom, masses, OperatingPoint(v[:4], v[4:8], v[8:]))),
        "lqr_gain": (list(model.A.ravel()) + list(model.B.ravel()), lambda v: lqr_gain(
            np.reshape(v[:64], (8, 8)), np.reshape(v[64:], (8, 4)), weights)),
        "lookup flat": (THETA, lambda v: lookup(flat, v)),
        "lookup refined": (THETA, lambda v: lookup(refined, v)),
        "simulate": (X0 + THETA + [0.0] * 4, simulate_table),
        "SimConfig": ([1e-3, 0.02, 0.04], lambda v: SimConfig(*v)),
    }


def _floats(result) -> np.ndarray:
    if isinstance(result, LinearModel):
        return np.concatenate([result.A.ravel(), result.B.ravel()])
    if isinstance(result, Trajectory):
        return np.concatenate([result.states.ravel(), result.inputs.ravel()])
    if isinstance(result, SimConfig):
        return np.array([result.dt, result.control_period, result.duration])
    return np.asarray(list(result) if isinstance(result, JointAngles) else result,
                      dtype=float).ravel()


NAMES = ["fk_planar", "fk_spatial", "ik", "forward_dynamics", "equilibrium_torque",
         "total_energy", "joint_inertias", "linearize", "lqr_gain", "lookup flat",
         "lookup refined", "simulate", "SimConfig"]


@pytest.mark.parametrize("name", NAMES)
def test_base_input_is_finite_and_accepted(entry_points, name):
    values, call = entry_points[name]
    assert np.all(np.isfinite(_floats(call(list(values)))))


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    position=st.integers(0, 2**16),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_non_finite_input(entry_points, name, position, bad):
    values, call = entry_points[name]
    values = list(values)
    values[position % len(values)] = bad
    try:
        result = call(values)
    except ArmError:
        return
    except ValueError as exc:
        assert "must be finite" in str(exc), f"{name}: {exc}"
        return
    assert np.all(np.isfinite(_floats(result))), f"{name} returned a non-finite result"
