"""Exception hierarchy for charposet."""


class CharposetError(Exception):
    """Base class for all charposet errors."""


class ClosureCapExceeded(CharposetError):
    """Generated group is larger than the configured order cap."""


class InvalidPermutation(CharposetError):
    """A generator is not a bijection on the stated points."""


class NotASubgroup(CharposetError):
    """An element set is not closed, or one subgroup does not contain another."""


class NotAPGroup(CharposetError):
    """Operation requires a group of prime-power order."""


class NoSuchSubgroups(CharposetError):
    """No subgroup of the requested order exists."""


class ModulusSearchFailed(CharposetError):
    """No suitable character-table modulus found below the search bound."""


class TableConstructionFailed(CharposetError):
    """A character table could not be built or failed its own validation."""


class LatticeConstructionFailed(CharposetError):
    """A p-subgroup lattice or Frattini computation failed its own check."""


class CrossCheckFailed(CharposetError):
    """Two independent computations of the same quantity disagree."""


class ContextMismatch(CharposetError):
    """Class functions or characters belong to different contexts."""


class NotASemidirectDecomposition(CharposetError):
    """The claimed semidirect decomposition does not validate."""


class NotASylowNode(CharposetError):
    """The given lattice node is not a Sylow node."""


class PreconditionViolated(CharposetError):
    """An operation precondition does not hold."""


class HypothesisNotSatisfied(CharposetError):
    """A theorem's hypotheses do not hold for the given group (inapplicable)."""


class ActionNotCompatible(CharposetError):
    """A supplied group action does not permute nodes or preserve edges."""


class ConstructionContractViolated(CharposetError):
    """A realized group fails its family's defining property check."""


class GroupExprError(CharposetError):
    """Base class for group-expression parse errors; carries a byte offset."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.expected = frozenset(expected)


class GroupSyntaxError(GroupExprError):
    """Malformed group expression."""


class UnknownConstructor(GroupExprError):
    """Constructor name not in the grammar."""


class ParameterOutOfRange(GroupExprError):
    """Constructor parameter outside its realization cap or domain."""
