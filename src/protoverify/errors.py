"""Exception hierarchy shared across the verifier."""


class ProtoVerifyError(Exception):
    """Base class for all errors raised by this package."""


# --- ontology ---

class OntologyError(ProtoVerifyError):
    pass


class OntologyFormatError(OntologyError):
    pass


class InheritanceCycleError(OntologyError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("inheritance cycle: " + " -> ".join(self.cycle))


class DanglingReferenceError(OntologyError):
    pass


class UnknownClassError(OntologyError):
    pass


# --- protocol ---

class ProtocolError(ProtoVerifyError):
    pass


class ProtocolSyntaxError(ProtocolError):
    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class ProtocolSemanticError(ProtocolError):
    pass


class UnknownQueryError(ProtocolError):
    pass


# --- relational store ---

class RelStoreError(ProtoVerifyError):
    pass


class SchemaError(RelStoreError):
    pass


class TagMismatchError(RelStoreError):
    pass


class UnknownColumnError(RelStoreError):
    pass


class IncomparableTagsError(RelStoreError):
    pass


class CellParseError(RelStoreError):
    pass


class NoExtentError(RelStoreError):
    pass


# --- consistency ---

class MalformedMismatchError(ProtoVerifyError):
    pass


# --- spuriousness ---

class UnresolvableClassError(ProtoVerifyError):
    pass


class UncoveredBindingError(ProtoVerifyError):
    pass


class InconsistentTraceError(ProtoVerifyError):
    pass


# --- oracle ---

class BoundExceededError(ProtoVerifyError):
    pass
