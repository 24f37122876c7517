"""A nan or +-inf anywhere in the input of a public entry point gives a
finite result, a typed ArmError, or ValueError("<name> must be finite"):
never a silent nan, nor an error from deeper down (math domain error,
scipy's own message).  An int beyond float range in a vector argument is
not finite either.  A vector argument of the wrong size gives
ValueError("<name> must have N components, got M"), and one of the right
size in any shape is read flattened.  A scalar argument gets the same
finiteness checks, and a count must be a whole number: each bad value
raises a ValueError whose message starts with the argument's name."""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armctl import (
    ArmError,
    ArmGeometry,
    ControllerMode,
    GridSpec,
    JointAngles,
    LinearModel,
    MassModel,
    OperatingPoint,
    SimConfig,
    Trajectory,
    bench_controller,
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
    step_rk4,
    total_energy,
)

THETA = [0.3, 0.8, -0.9, 0.5]
RATES = [0.1, -0.2, 0.3, 0.1]
X0 = THETA + RATES


@pytest.fixture(scope="module")
def entry_points(geom, masses, weights, theta_ref):
    """name -> (arguments, call): the finite base value of each argument by
    name, in the order `call` takes them.  A list is a vector argument, a
    float a scalar and an array a matrix."""
    box = (tuple(theta_ref - 0.1), tuple(theta_ref + 0.1))
    flat = precompute(geom, masses, weights, GridSpec(*box, (2, 2, 2, 2)))
    refined = refine(geom, masses, weights, box, 0.4, 2)
    torque = equilibrium_torque(geom, masses, THETA).tolist()
    model = linearize(geom, masses, equilibrium_point(geom, masses, THETA))
    target = list(fk_spatial(geom, JointAngles(*THETA))[-1])
    sim = SimConfig(duration=0.02)

    def simulate_table(x0, x_ref):
        return simulate(geom, masses, sim, ControllerMode.TABLE_LQR, x0, x_ref,
                        weights=weights, table=flat)

    state = {"theta": THETA, "rates": RATES, "torque": torque}
    return {
        "fk_planar": (dict(zip(("theta2", "theta3", "theta4"), THETA[1:])),
                      partial(fk_planar, geom)),
        "fk_spatial": (dict(zip(("theta1", "theta2", "theta3", "theta4"), THETA)),
                       lambda *v: fk_spatial(geom, JointAngles(*v))),
        "JointAngles.from_array": ({"values": THETA}, JointAngles.from_array),
        "ik": ({"target": target, "pitch": sum(THETA[1:])},
               lambda target, pitch: ik(geom, target, pitch=pitch)),
        "forward_dynamics": (state, partial(forward_dynamics, geom, masses)),
        "equilibrium_torque": ({"theta": THETA}, partial(equilibrium_torque, geom, masses)),
        "total_energy": ({"theta": THETA, "rates": RATES}, partial(total_energy, geom, masses)),
        "joint_inertias": ({"theta": THETA}, partial(joint_inertias, geom, masses)),
        "equilibrium_point": ({"theta_ref": THETA}, partial(equilibrium_point, geom, masses)),
        "linearize": (state, lambda *v: linearize(geom, masses, OperatingPoint(*v))),
        "lqr_gain": ({"A": model.A, "B": model.B}, lambda A, B: lqr_gain(A, B, weights)),
        "lookup flat": ({"theta": THETA}, partial(lookup, flat)),
        "lookup refined": ({"theta": THETA}, partial(lookup, refined)),
        "step_rk4": ({"x": X0, "torque": torque},
                     lambda x, torque: step_rk4(geom, masses, x, torque, 1e-3)),
        "simulate": ({"x0": X0, "x_ref": THETA + [0.0] * 4}, simulate_table),
        "SimConfig": ({"dt": 1e-3, "control_period": 0.02, "duration": 0.04}, SimConfig),
    }


def _flatten(arguments) -> list:
    return [float(v) for base in arguments.values() for v in np.ravel(base)]


def _call(entry, values):
    """Call an entry point with its arguments read back from flat values."""
    arguments, call = entry
    args = []
    for base in arguments.values():
        size = np.size(base)
        part, values = values[:size], values[size:]
        if isinstance(base, float):
            args.append(part[0])
        else:
            args.append(part if isinstance(base, list) else np.reshape(part, np.shape(base)))
    return call(*args)


def _floats(result) -> np.ndarray:
    if isinstance(result, LinearModel):
        return np.concatenate([result.A.ravel(), result.B.ravel()])
    if isinstance(result, Trajectory):
        return np.concatenate([result.states.ravel(), result.inputs.ravel()])
    if isinstance(result, SimConfig):
        return np.array([result.dt, result.control_period, result.duration])
    if isinstance(result, OperatingPoint):
        return np.concatenate([result.theta, result.rates, result.torque])
    return np.asarray(list(result) if isinstance(result, JointAngles) else result,
                      dtype=float).ravel()


NAMES = ["fk_planar", "fk_spatial", "JointAngles.from_array", "ik", "forward_dynamics",
         "equilibrium_torque", "total_energy", "joint_inertias", "equilibrium_point",
         "linearize", "lqr_gain", "lookup flat", "lookup refined", "step_rk4", "simulate",
         "SimConfig"]


@pytest.mark.parametrize("name", NAMES)
def test_base_input_is_finite_and_accepted(entry_points, name):
    arguments, call = entry_points[name]
    assert np.all(np.isfinite(_floats(call(*arguments.values()))))


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    position=st.integers(0, 2**16),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_non_finite_input(entry_points, name, position, bad):
    values = _flatten(entry_points[name][0])
    values[position % len(values)] = bad
    try:
        result = _call(entry_points[name], values)
    except ArmError:
        return
    except ValueError as exc:
        assert "must be finite" in str(exc), f"{name}: {exc}"
        return
    assert np.all(np.isfinite(_floats(result))), f"{name} returned a non-finite result"


# each planar reader, and where theta2 sits in its flattened arguments
# (simulate's x_ref: table mode looks x0 up first, which is out of bounds)
ANGLE_SUMS = {"fk_planar": 0, "forward_dynamics": 1, "equilibrium_torque": 1,
              "total_energy": 1, "joint_inertias": 1, "equilibrium_point": 1, "linearize": 1,
              "step_rk4": 1, "simulate": 9}


@pytest.mark.parametrize("name, at", ANGLE_SUMS.items(), ids=list(ANGLE_SUMS))
def test_overflowing_angle_sum_names_the_angles(entry_points, name, at):
    """Finite angles theta2 = theta3 = 1e308, whose sum overflows, raise a
    ValueError naming the angles, not math's domain error."""
    values = _flatten(entry_points[name][0])
    values[at:at + 2] = [1e308, 1e308]
    with pytest.raises(ValueError, match=r"^theta2 \+ theta3 \+ theta4 must be finite, got "
                                         r"1e\+308 \+ 1e\+308 \+ "):
        _call(entry_points[name], values)


@pytest.mark.parametrize("name", NAMES)
def test_wrong_size_vector_names_the_argument(entry_points, name):
    arguments, call = entry_points[name]
    want = _floats(call(*arguments.values()))
    for arg, base in arguments.items():
        if not isinstance(base, list):
            continue
        n = len(base)
        # a scalar, one value short, and a ragged nesting
        for bad, got in ((0.5, "1$"), (base[:-1], f"{n - 1}$"), ([base, [0.0]], r"\[\[")):
            args = {**arguments, arg: bad}
            with pytest.raises(ValueError, match=f"^{arg} must have {n} components, got {got}"):
                call(*args.values())
        # the right number of components in a 2-D shape reads as the flat vector
        for shape in ((1, n), (n, 1)):
            args = {**arguments, arg: np.reshape(base, shape)}
            assert _floats(call(*args.values())).tobytes() == want.tobytes(), (arg, shape)


@pytest.mark.parametrize("name", NAMES)
def test_int_beyond_float_range_is_not_finite(entry_points, name):
    """A Python int too large for a float (as a JSON literal can be) in a
    vector argument is reported like an inf, not as an OverflowError."""
    arguments, call = entry_points[name]
    for arg, base in arguments.items():
        if isinstance(base, list):
            args = {**arguments, arg: [10**400] + base[1:]}
            with pytest.raises(ValueError, match=f"^{arg} must be finite"):
                call(*args.values())


@pytest.mark.parametrize("name", NAMES)
def test_non_finite_scalar_names_the_argument(entry_points, name):
    """A scalar argument gets a vector argument's finiteness checks."""
    arguments, call = entry_points[name]
    for arg, base in arguments.items():
        if not isinstance(base, float):
            continue
        for bad in (math.nan, math.inf, -math.inf, 10**400):
            args = {**arguments, arg: bad}
            with pytest.raises(ValueError, match=f"^{arg} must be finite"):
                call(*args.values())


NOT_FINITE = (math.nan, math.inf, -math.inf, 10**400)
NOT_COUNT = (2.5, math.nan, math.inf, 10**400, 0, -1)


@pytest.fixture(scope="module")
def numbers(geom, masses, weights, theta_ref):
    """name -> (call, bad values): call(v) passes v as that scalar or count
    argument, with every other argument valid.  JointAngles' angles and ik's
    pitch are entry-point arguments above."""
    box = (tuple(theta_ref - 0.1), tuple(theta_ref + 0.1))
    grid = GridSpec(*box, (2, 2, 2, 2))
    table = precompute(geom, masses, weights, grid)

    def field(cls, base, name, bad):
        return name, (lambda v: cls(**{**base, name: v}), bad)

    sim = dataclasses.asdict(SimConfig())
    return dict(
        [field(ArmGeometry, dataclasses.asdict(geom), k, NOT_FINITE + (0.0,))
         for k in ("L1", "L2", "L3")]
        + [field(MassModel, dataclasses.asdict(masses), k, NOT_FINITE + (-1.0,))
           for k in ("m2", "m3", "m4", "M1", "M2", "M3", "g")]
        + [field(SimConfig, sim, k, NOT_FINITE + (0.0,)) for k in sim]
        + [
            ("counts", (lambda v: GridSpec(*box, (2, v, 2, 2)), NOT_COUNT + (1, 2**32))),
            ("tol", (lambda v: refine(geom, masses, weights, box, v, 2),
                     (math.nan, 10**400, 0.0, -1.0))),
            ("max_depth", (lambda v: refine(geom, masses, weights, box, 0.4, v),
                           NOT_COUNT + (2**32,))),
            ("workers", (lambda v: precompute(geom, masses, weights, grid, workers=v),
                         NOT_COUNT)),
            ("n_iters", (lambda v: bench_controller(geom, masses, table, v, weights=weights),
                         NOT_COUNT + (0.0,))),
        ]
    )


NUMBERS = ["L1", "L2", "L3", "m2", "m3", "m4", "M1", "M2", "M3", "g", "dt", "control_period",
           "duration", "counts", "tol", "max_depth", "workers", "n_iters"]


@pytest.mark.parametrize("name", NUMBERS)
def test_bad_number_names_the_argument(numbers, name):
    call, bad_values = numbers[name]
    for bad in bad_values:
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            call(bad)


@pytest.mark.parametrize("n_iters", [0, -1, 0.0])
def test_no_iterations_is_empty_benchmark(numbers, n_iters):
    with pytest.raises(ValueError, match=r"^n_iters must be a whole number >= 1"):
        numbers["n_iters"][0](n_iters)


def test_count_may_be_written_as_float(numbers, theta_ref):
    box = (tuple(theta_ref - 0.1), tuple(theta_ref + 0.1))
    counts = GridSpec(*box, (2, 2.0, 3.0, 2)).counts
    assert counts == (2, 2, 3, 2) and all(type(c) is int for c in counts)
    max_depth = numbers["max_depth"][0](2.0).max_depth
    assert max_depth == 2 and type(max_depth) is int

