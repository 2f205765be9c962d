"""Exception types shared across the package."""


class NeuroPlugError(Exception):
    """Base class for all package errors."""


class ShapeError(NeuroPlugError):
    """Tensor or layer dimensions are inconsistent."""


class DomainError(NeuroPlugError):
    """Argument outside the mathematically valid domain."""


class ConfigError(NeuroPlugError):
    """Invalid configuration document or parameter combination."""


class PlanningError(NeuroPlugError):
    """Execution planning cannot satisfy the capacity constraints."""


class EvidenceError(NeuroPlugError):
    """Observation incompatible with the prior (no posterior mass)."""


class SupportError(NeuroPlugError):
    """Queried value lies outside the candidate support."""


class IntegrityError(NeuroPlugError):
    """Serialized bin or table content fails validation."""
