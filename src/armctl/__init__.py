"""Control library for a four-axis serial arm: kinematics, Lagrangian
dynamics, continuous-time LQR, and precomputed gain tables with
interpolated lookup for constrained targets."""

from .errors import (
    ArmError,
    BadGrid,
    BadMagic,
    ConfigError,
    DegenerateInertia,
    DigestMismatch,
    Diverged,
    IllConditioned,
    NodeFailure,
    NotStabilizable,
    OutOfBounds,
    SingularYaw,
    TableFormatError,
    TreeTooDeep,
    TruncatedData,
    Unreachable,
    VersionMismatch,
)
from .kinematics import (
    ArmGeometry,
    JointAngles,
    PlanarPoint,
    SpatialPoint,
    fk_planar,
    fk_spatial,
    ik,
    wrap_angle,
)
from .dynamics import (
    EPS_INERTIA,
    MassModel,
    equilibrium_torque,
    forward_dynamics,
    joint_inertias,
    kinetic_energy,
    point_inertia,
    potential_energy,
    segment_inertia,
    total_energy,
)
from . import numdiff  # noqa: F401  (the central-difference reference)
from .linearization import LinearModel, OperatingPoint, equilibrium_point, linearize
from .riccati import CostWeights, lqr_gain, solve_care
from .gain_table import (
    GainTable,
    GridSpec,
    RefinedCell,
    RefinedTable,
    arm_digest,
    check_digest,
    load,
    load_file,
    lookup,
    precompute,
    refine,
    save,
    save_file,
    table_digest,
    weights_digest,
)
from .simulator import (
    ControllerMode,
    LatencyReport,
    SimConfig,
    Trajectory,
    bench_controller,
    simulate,
    step_rk4,
)
from .config import ArmConfig, load_config, parse_config

__version__ = "0.1.0"
