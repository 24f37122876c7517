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


@pytest.fixture()
def lapack_failures(monkeypatch):
    """inject(dgees=i, dsyevd=j, dgeev=k, skew=s, shift=r) makes the Riccati
    solver's dgees call number i (from 0) report a convergence failure (info
    3), its dsyevd call number j a negative eigenvalue -0.5 of P, and its
    dgeev call number k an unstable closed-loop eigenvalue 0.5.  dgees call
    number s returns a basis [Z11; Z21] whose P = Z21 Z11^-1 is off by 1e-3
    above the diagonal (so P is not symmetric), and call number r one whose
    P is off by 1e-4 I (symmetric and PSD, but not a CARE solution).  None
    skips one.  LAPACK is modelled as a function of its input: a later call
    of the routine on the same values as a faulted call gets the same
    fault, so solving a system again does not heal it."""
    import armctl.riccati as riccati

    names = ("dgees", "dsyevd", "dgeev")
    real = {name: getattr(riccati.lapack, name) for name in names}

    def inject(dgees=None, dsyevd=None, dgeev=None, skew=None, shift=None):
        calls = dict.fromkeys(names, 0)
        faulted = {}  # (routine, input shape and values) -> its fault

        def fault(name, matrix, **at):
            """The fault of this call: the one injected on its call number (at
            maps fault -> call number), else the one an earlier call on the
            same input got, else None.  The input is read before the call,
            which may overwrite it."""
            key = (name, matrix.shape, np.ascontiguousarray(matrix).tobytes())
            call, calls[name] = calls[name], calls[name] + 1
            for kind, number in at.items():
                if call == number:
                    faulted[key] = kind
            return faulted.get(key)

        def failing_dgees(select, a, *args, **kwargs):
            kind = fault("dgees", a, info=dgees, skew=skew, shift=shift)
            out = real["dgees"](select, a, *args, **kwargs)
            Z = out[4]
            n = len(Z) // 2
            if kind in ("skew", "shift"):  # Z21 += E Z11 turns P into P + E
                E = np.triu(np.full((n, n), 1e-3), 1) if kind == "skew" else 1e-4 * np.eye(n)
                Z[n:, :n] += E @ Z[:n, :n]
            return out[:-1] + (3,) if kind == "info" else out

        def failing_dsyevd(a, *args, **kwargs):
            kind = fault("dsyevd", a, psd=dsyevd)
            w, *rest = real["dsyevd"](a, *args, **kwargs)
            if kind:
                w = np.append(-0.5, w[1:])
            return (w, *rest)

        def failing_dgeev(a, *args, **kwargs):
            kind = fault("dgeev", a, hurwitz=dgeev)
            wr, *rest = real["dgeev"](a, *args, **kwargs)
            if kind:
                wr = np.append(wr[1:], 0.5)
            return (wr, *rest)

        monkeypatch.setattr(riccati.lapack, "dgees", failing_dgees)
        monkeypatch.setattr(riccati.lapack, "dsyevd", failing_dsyevd)
        monkeypatch.setattr(riccati.lapack, "dgeev", failing_dgeev)

    return inject
