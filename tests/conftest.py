import inspect
import itertools
import json

import numpy as np
import pytest

from armctl import ArmGeometry, CostWeights, MassModel


@pytest.fixture(scope="session")
def geom():
    return ArmGeometry(L1=1.0, L2=0.8, L3=0.6)


@pytest.fixture(scope="session")
def masses():
    return MassModel(m2=0.5, m3=0.4, m4=0.3, M1=0.4, M2=0.3, M3=0.2, g=9.81)


@pytest.fixture(scope="session")
def weights():
    return CostWeights.from_diagonals([100.0] * 4 + [1.0] * 4, [1.0] * 4)


@pytest.fixture(scope="session")
def theta_ref():
    # mid-workspace: bent arm, all planar coordinates well off the yaw axis
    return np.array([0.3, 0.8, -0.9, 0.5])


def safe_random_theta(rng, n):
    """Configurations with every joint inertia bounded away from zero."""
    return rng.uniform([-np.pi, 0.3, -2.5, -2.5], [np.pi, 2.8, -0.3, 2.5], size=(n, 4))


CONFIG_TEMPLATE = {
    "geometry": {"L1": 1.0, "L2": 0.8, "L3": 0.6},
    "masses": {"m2": 0.5, "m3": 0.4, "m4": 0.3, "M1": 0.4, "M2": 0.3, "M3": 0.2, "g": 9.81},
    "cost": {"q_diag": [100.0] * 4 + [1.0] * 4, "r_diag": [1.0] * 4},
    "grid": {
        "theta1": {"min": 0.05, "max": 0.55, "count": 2},
        "theta2": {"min": 0.55, "max": 1.05, "count": 2},
        "theta3": {"min": -1.15, "max": -0.65, "count": 2},
        "theta4": {"min": 0.25, "max": 0.75, "count": 2},
    },
    "sim": {"dt": 0.001, "control_period": 0.02, "duration": 5.0},
}


@pytest.fixture()
def write_config(tmp_path):
    """Write a config JSON (optionally patched) and return its path."""

    def _write(patch=None, name="arm.json"):
        cfg = json.loads(json.dumps(CONFIG_TEMPLATE))
        if patch:
            for dotted, value in patch.items():
                node = cfg
                keys = dotted.split(".")
                for key in keys[:-1]:
                    node = node[key]
                node[keys[-1]] = value
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    return _write


def fail_certificates(monkeypatch, check, fails):
    """Wrap riccati's check ("_check_psd" or "_check_hurwitz") so that its
    certificate factorization fails on each call for which fails(number,
    matrix) is true, number counting the check's calls from 0 (each
    system's solve makes one of each) and matrix being its P or closed
    loop, read before the check, which may overwrite it.  The check then
    decides by its eigenvalue routine, dsyevd or dgeev, as it does
    whenever its certificate fails."""
    import armctl.riccati as riccati

    real, calls = inspect.unwrap(getattr(riccati, check)), itertools.count()

    def uncertified(matrix, certificate):
        if fails(next(calls), matrix) and certificate is not None:
            certificate = -np.eye(len(matrix), order="F")  # fails at its first pivot
        return real(matrix, certificate)

    uncertified.__wrapped__ = real  # so a later call wraps the check itself
    monkeypatch.setattr(riccati, check, uncertified)


# the check whose certificate falls back to each eigenvalue routine
CHECKS = {"dsyevd": "_check_psd", "dgeev": "_check_hurwitz"}


@pytest.fixture()
def lapack_failures(monkeypatch):
    """inject(dgees=i, dsyevd=j, dgeev=k, skew=s, shift=r) makes the Riccati
    solver's dgees call number i (from 0) report a convergence failure (info
    3), its PSD check number j report a negative eigenvalue -0.5 of P, and
    its Hurwitz check number k an unstable closed-loop eigenvalue 0.5: the
    check's certificate factorization fails and its dsyevd or dgeev call
    returns that eigenvalue.  dgees call number s returns a basis
    [Z11; Z21] whose P = Z21 Z11^-1 is off by 1e-3 above the diagonal (so
    P is not symmetric), and call number r one whose P is off by 1e-4 I
    (symmetric and PSD, but not a CARE solution).  None skips one.  LAPACK
    is modelled as a function of its input: a later call of the routine, or
    check, on the same values as a faulted one gets the same fault, so
    solving a system again does not heal it."""
    import armctl.riccati as riccati

    real = {name: getattr(riccati.lapack, name) for name in ("dgees", *CHECKS)}

    def inject(dgees=None, dsyevd=None, dgeev=None, skew=None, shift=None):
        calls = {"dgees": itertools.count()}
        faulted = {}  # (routine, input shape and values) -> its fault

        def key(name, matrix):
            return name, matrix.shape, np.ascontiguousarray(matrix).tobytes()

        def fault(name, matrix, call, **at):
            """The fault of this call: the one injected on its call number (at
            maps fault -> call number), else the one an earlier call on the
            same input got, else None.  The input is read before the call,
            which may overwrite it."""
            for kind, number in at.items():
                if call == number:
                    faulted[key(name, matrix)] = kind
            return faulted.get(key(name, matrix))

        def failing_dgees(select, a, *args, **kwargs):
            kind = fault("dgees", a, next(calls["dgees"]), info=dgees, skew=skew, shift=shift)
            out = real["dgees"](select, a, *args, **kwargs)
            Z = out[4]
            n = len(Z) // 2
            if kind in ("skew", "shift"):  # Z21 += E Z11 turns P into P + E
                E = np.triu(np.full((n, n), 1e-3), 1) if kind == "skew" else 1e-4 * np.eye(n)
                Z[n:, :n] += E @ Z[:n, :n]
            return out[:-1] + (3,) if kind == "info" else out

        def failing_dsyevd(a, *args, **kwargs):
            kind = faulted.get(key("dsyevd", a))
            w, *rest = real["dsyevd"](a, *args, **kwargs)
            if kind:
                w = np.append(-0.5, w[1:])
            return (w, *rest)

        def failing_dgeev(a, *args, **kwargs):
            kind = faulted.get(key("dgeev", a))
            wr, *rest = real["dgeev"](a, *args, **kwargs)
            if kind:
                wr = np.append(wr[1:], 0.5)
            return (wr, *rest)

        for routine, call in (("dsyevd", dsyevd), ("dgeev", dgeev)):
            fail_certificates(monkeypatch, CHECKS[routine],
                              lambda number, matrix, routine=routine, call=call:
                              fault(routine, matrix, number, fault=call) is not None)
        monkeypatch.setattr(riccati.lapack, "dgees", failing_dgees)
        monkeypatch.setattr(riccati.lapack, "dsyevd", failing_dsyevd)
        monkeypatch.setattr(riccati.lapack, "dgeev", failing_dgeev)

    return inject
