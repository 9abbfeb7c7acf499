"""Exception types shared across the package."""


class CornMapsError(Exception):
    """Base class for all library-specific errors."""


class InternalInvariantError(CornMapsError):
    """A result broke an invariant the library guarantees: a bug, not bad input."""


class InvalidMapError(CornMapsError):
    """A flag system violates one of the map axioms.

    Carries the full validation report in ``report`` when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class MalformedFlagSystem(CornMapsError, ValueError):
    """Involution arrays that do not fit the flag count: a wrong length, an
    image out of range, or no flags at all.

    Also a ``ValueError``: the arrays have the wrong value.  Arrays that fit
    but break a map axiom are :class:`InvalidMapError` instead.
    """


class InvalidModulus(CornMapsError, ValueError):
    """A modulus is not a positive integer, or a residue is not an integer."""


class UnknownCellKind(CornMapsError, ValueError):
    """A cell kind is not one of vertex, edge, face, dart or wedge."""


class UnknownCell(CornMapsError, KeyError):
    """No cell of the requested kind has the given id.

    Also a ``KeyError``, so lookups behave like a mapping's.
    """

    # KeyError's own str() would wrap the message in quotes
    __str__ = Exception.__str__


class DegenerateParameters(CornMapsError):
    """Builder parameters would produce a degenerate map (loops etc.)."""


class InconsistentRotation(CornMapsError):
    """A rotation system is not a well-formed dart assignment."""


class MapFormatError(CornMapsError):
    """A map or corneration file is syntactically malformed."""


class CornerationMismatch(CornMapsError, ValueError):
    """A corneration does not fit the map it is read against or moved to.

    Also a ``ValueError``: the corneration argument has the wrong value.
    """


class DegenerateResult(CornMapsError):
    """A map operator produced a flag system violating the axioms."""


class NonUniformValence(CornMapsError):
    """An operation requiring uniform valence met a mixed-valence map."""


class WidthOutOfRange(CornMapsError):
    """A corner width lies outside the admissible range for the map."""


class InvalidCorner(CornMapsError, ValueError):
    """Two darts span no corner (they are equal, at two vertices or on one
    edge), or a dart is not one of a corner's two darts.

    Also a ``ValueError``: the dart pair has the wrong value.
    """


class StraightCornerHasNoSide(CornMapsError):
    """A side-dependent query was made on a straight corner."""


class StraightHasNoComplement(CornMapsError):
    """The width complement is undefined for straight cornerations."""


class NotWedgeCorneration(CornMapsError):
    """An operation restricted to width-1 cornerations got a wider one."""


class CircuitTooShort(CornMapsError):
    """A closed walk of length < 2 cannot be a circuit in a loopless graph."""


class InvalidCircuits(CornMapsError, ValueError):
    """Circuits are not closed walks partitioning the edges of the map.

    Also a ``ValueError``: the decomposition argument has the wrong value.
    """


class GroupNotSubgroup(CornMapsError):
    """Permutations that are not a group of map symmetries, found when
    ``SymGroup(m, perms)`` is built; also an image of flag 0 outside the
    group it is used with, or a group used with another map."""


class GroupDoesNotPreserveCorneration(CornMapsError, ValueError):
    """A group moves the corneration or corner set it was asked to act on.

    Also a ``ValueError``: the group argument has the wrong value.
    """


class InvalidDiagram(CornMapsError, ValueError):
    """A symmetry-type diagram has a node shape other than box or oval, not
    three edge colors, or a color whose edge structure is not an
    involution of the nodes.

    Also a ``ValueError``: the diagram data has the wrong value.
    """


class NotTransitive(CornMapsError):
    """Classification requires a group acting transitively on the corners."""


class KIntersectsL(CornMapsError):
    """The new-corner set of a split graph must be disjoint from L."""


class InvalidSplitGraph(CornMapsError, ValueError):
    """An argument that should be a split graph is not a :class:`SplitGraph`."""


class UnsupportedExport(CornMapsError, TypeError):
    """An object that DOT export cannot draw: not a skeleton, diagram or split graph."""


class KNotInvariant(CornMapsError):
    """The new-corner set is not invariant under the supplied group."""


class UnknownConstruction(CornMapsError, ValueError):
    """A split-graph construction is not one of A, B, Ci or Cx."""


class WidthMismatch(CornMapsError, ValueError):
    """Widths that must agree differ, or a uniform width is missing.

    Raised for a corneration and the operator it is moved along, two
    corners being aligned, or a mixed corneration where one width is
    needed.  Also a ``ValueError``.
    """


class NoHalfReflexiveGroup(CornMapsError):
    """Neither the map nor its Petrie dual admits a half-reflexible group."""
