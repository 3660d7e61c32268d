"""Grasp quality along a screw axis, solved as a second-order cone program.

The metric of this package is the largest wrench magnitude a grasp system
(fingers, environment contacts, external loads) can apply along a given task
screw, under friction-cone, force-bound and joint-torque constraints.
"""

from .contacts import (
    EnvironmentContact,
    FixedSupport,
    ManipulatorContact,
    Pcwf,
    PcwfParams,
    SfceParams,
)
from .errors import (
    CompileError,
    DegenerateWrenchError,
    InvalidRotationError,
    InvalidScrewError,
    ScenarioError,
    ScenarioParseError,
    ScenarioPhysicsError,
    ScenarioSchemaError,
    ScenarioVersionError,
    ScrewGraspError,
    SolverDataError,
    UnsupportedProgramError,
)
from .metric import (
    GlobalMetricResult,
    MetricResult,
    PathPoint,
    RaySupport,
    SweepRow,
    global_metric,
    gws_sample,
    local_metric,
    metric_sweep,
)
from .problem import (
    ConicProgram,
    ExternalWrench,
    GraspProblem,
    TorqueModel,
    VariableLayout,
    compile_program,
)
from .scenarios import (
    BUILTINS,
    Builtin,
    CuboidParams,
    DoorHandleParams,
    FamilyRef,
    Scenario,
    builtin_scenario,
    cuboid_scenario,
    door_handle_scenario,
    load_scenario,
    save_scenario,
    scenario_family,
)
from .screws import (
    INFINITE_PITCH,
    InfinitePitch,
    ScrewCoordinates,
    TaskScrew,
    Wrench,
    wrench_to_screw,
)
from .solver import (
    Residuals,
    SolveResult,
    SolveSettings,
    solve,
    solve_batch,
    solve_with_oracle,
)

__version__ = "0.1.0"
