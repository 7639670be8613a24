"""Exception types shared across the package."""


class SecrouteError(Exception):
    """Base class for all package errors."""


class AuthFailure(SecrouteError):
    """Sealed box failed to authenticate (wrong key or tampered data)."""


class BadParams(SecrouteError):
    """Invalid KDC parameters."""


class DuplicateNode(SecrouteError):
    """Node already issued a key ring by this KDC."""


class SelfPair(SecrouteError):
    """Pairwise key requested for a node with itself."""


class EmptyCover(SecrouteError):
    """Revoked nodes jointly hold every key index; no broadcast possible."""


class NoUsableIndex(SecrouteError):
    """Receiver holds no key index covered by the broadcast."""


class TagMismatch(SecrouteError):
    """Broadcast tag did not verify against the recovered secret."""


class ParseError(SecrouteError):
    """Topology document is syntactically invalid."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class InvariantError(SecrouteError):
    """Topology document violates a structural invariant."""


class UnknownNode(SecrouteError):
    """Referenced node is not in the topology."""


class UnknownLink(SecrouteError):
    """Referenced link is not in the topology."""


class MalformedFrame(SecrouteError):
    """Byte string does not decode to a known frame."""


class NonpositiveBandwidth(SecrouteError):
    """Link bandwidth must be strictly positive."""


class MissingEdge(SecrouteError):
    """Path references an edge absent from the cost matrices."""


class NoCandidates(SecrouteError):
    """Route selection called with an empty candidate list."""


class NoPairwiseKey(SecrouteError):
    """Source lacks a shared secret with the destination."""


class NoValidCandidate(SecrouteError):
    """Every collected route request failed validation, or none arrived."""


class ConfigError(SecrouteError):
    """Scenario configuration is invalid."""


class TooLarge(SecrouteError):
    """Topology exceeds the exhaustive-enumeration budget."""


class TokenInvalid(SecrouteError):
    """Authentication token failed verification."""


class NoMatchingCloud(SecrouteError):
    """Directory has no cloud offering the requested service."""


class NoAvailability(SecrouteError):
    """Coordinator has no free datacenter for the task."""


class BadSla(SecrouteError):
    """Service agreement is missing a required signature token."""


class UnknownCoordinator(SecrouteError):
    """Coordinator is not registered with the exchange."""
