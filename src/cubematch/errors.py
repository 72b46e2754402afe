"""Exception types shared across the kernel, metatheory and CLI layers."""

from __future__ import annotations

TYPE_CHECKING = False

if TYPE_CHECKING:
    from .syntax import SourceSpan


class CubeError(Exception):
    """Base for every user-facing failure; may carry a source span."""

    def __init__(self, message: str, span: "SourceSpan | None" = None):
        super().__init__(message)
        self.message = message
        self.span = span


class FuelExhausted(CubeError):
    """Reduction ran out of steps; the input is probably ill-typed or hostile."""


class NotNormal(CubeError):
    """An operation that requires a normal form was given a redex."""


class TypingError(CubeError):
    """Base for type-synthesis failures."""


class SortPairMissing(TypingError):
    """Product formation needs a sort pair the active calculus does not have."""

    def __init__(self, pair: tuple[str, str], message: str):
        super().__init__(message)
        self.pair = pair


class TypeHasNoType(TypingError):
    """The sort Type sits at the top of the hierarchy and is itself untypable."""


class NoRuleApplies(TypingError):
    """No synthesis rule fits the term (bad application, unbound index, ...)."""


class NotAType(TypingError):
    """A term whose type is not a sort was used where a type is required."""


class ContextError(TypingError):
    """A context declaration is ill-sorted; names the first offender."""

    def __init__(
        self,
        message: str,
        position: int,
        name: str | None = None,
        pair: tuple[str, str] | None = None,
    ):
        super().__init__(message)
        self.position = position
        self.name = name
        self.pair = pair


class OrderUndefined(CubeError):
    """Order is asked of a Type-headed atom, which has no defining clause."""


class ProblemError(CubeError):
    """Problem construction failed (ill-typed side, type mismatch, bad goal)."""


class SubstitutionError(CubeError):
    """A substitution is not well-typed for its quantified context."""

    def __init__(self, message: str, position: int, check: str):
        super().__init__(message)
        self.position = position
        self.check = check  # "sort" or "instantiation"


class ElementarityError(CubeError):
    """The source problem is outside the required elementary fragment."""


class CapabilityError(CubeError):
    """The chosen calculus lacks sort pairs an encoding needs."""

    def __init__(self, message: str, missing: frozenset[tuple[str, str]]):
        super().__init__(message)
        self.missing = missing


class WitnessError(CubeError):
    """A claimed solution failed verification during witness transport."""


class ParseError(CubeError):
    """Surface-syntax error with its source span."""


class UnboundName(ParseError):
    """A name does not resolve against the active scope."""
