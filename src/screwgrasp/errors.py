"""Exception hierarchy shared across the package."""


class ScrewGraspError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRotationError(ScrewGraspError):
    """A matrix supposed to be in SO(3) is not orthonormal within tolerance."""


class DegenerateWrenchError(ScrewGraspError):
    """A zero wrench has no screw decomposition."""


class InvalidScrewError(ScrewGraspError):
    """A screw axis violates its invariants (e.g. non-unit direction)."""


class CompileError(ScrewGraspError):
    """A grasp problem could not be assembled into a conic program."""


class SolverDataError(ScrewGraspError):
    """Conic program data contains NaN/Inf, NaN bounds or a lower bound above
    its upper bound; raised when the ConicProgram or SocBlock is built.
    Inconsistent dimensions are a CompileError."""


class UnsupportedProgramError(ScrewGraspError):
    """The LP oracle cannot inscribe this program: an SOC block has neither 2 nor 3 rows."""


class ScenarioError(ScrewGraspError):
    """Bad scenario input, from any source: a scenario file, a builtin name,
    a task label, or a family parameter's name or value."""


class ScenarioParseError(ScenarioError):
    """The scenario file is not syntactically valid."""


class ScenarioSchemaError(ScenarioError):
    """The scenario file does not match the schema (missing/mistyped field)."""


class ScenarioVersionError(ScenarioSchemaError):
    """The scenario file declares an unsupported schema version."""


class ScenarioPhysicsError(ScenarioError):
    """A field is schema-valid but physically inadmissible (e.g. mu <= 0)."""
