"""Shared exception types for the reproduction harness.

Tool-facing errors carry a stable ``name`` so the tool server can wrap them
into protocol errors without string matching.
"""


class HarnessError(Exception):
    """Base class; ``name`` is the wire-visible error identifier."""

    name = "HarnessError"

    def __init__(self, message=""):
        super().__init__(message or self.name)


class InvalidParams(HarnessError):
    """A tool call whose arguments do not match the registry schema."""
    name = "InvalidParams"


# --- envprep ---------------------------------------------------------------

class UnknownCommit(HarnessError):
    name = "UnknownCommit"


class MergeCommitRejected(HarnessError):
    name = "MergeCommitRejected"


class EmptyDiff(HarnessError):
    name = "EmptyDiff"


class BuildFailed(HarnessError):
    name = "BuildFailed"

    def __init__(self, message="", prep_log=""):
        super().__init__(message)
        self.prep_log = prep_log


class EnvBootFailed(HarnessError):
    name = "EnvBootFailed"


class UnknownProfile(HarnessError):
    name = "UnknownProfile"


class SnapshotFailed(HarnessError):
    name = "SnapshotFailed"


# --- codebrowse ------------------------------------------------------------

class RootUnreadable(HarnessError):
    name = "RootUnreadable"


class FileNotIndexed(HarnessError):
    name = "FileNotIndexed"


class SnippetFileNotFound(HarnessError):
    name = "FileNotFound"


class StartBeyondEof(HarnessError):
    name = "StartBeyondEof"


# --- guestvm ---------------------------------------------------------------

class GuestUnavailable(HarnessError):
    name = "GuestUnavailable"


class DebuggeeHalted(HarnessError):
    name = "DebuggeeHalted"


class CompileFailed(HarnessError):
    name = "CompileFailed"

    def __init__(self, message="", compile_log=""):
        super().__init__(message)
        self.compile_log = compile_log


class UploadFailed(HarnessError):
    name = "UploadFailed"


# --- kdbg ------------------------------------------------------------------

class StubUnavailable(HarnessError):
    name = "StubUnavailable"


class AlreadyAttached(HarnessError):
    name = "AlreadyAttached"


class MalformedRecord(HarnessError):
    name = "MalformedRecord"


class UnknownBreakpoint(HarnessError):
    name = "UnknownBreakpoint"


class UnresolvableLocation(HarnessError):
    name = "UnresolvableLocation"


class StubError(HarnessError):
    name = "StubError"


class NotStopped(HarnessError):
    name = "NotStopped"


# --- sessionrunner / verdict / analytics -----------------------------------

class MalformedTrace(HarnessError):
    name = "MalformedTrace"


class ArtifactsIncomplete(HarnessError):
    name = "ArtifactsIncomplete"


class AllStrataDegenerate(HarnessError):
    name = "AllStrataDegenerate"


class EmptyGroup(HarnessError):
    name = "EmptyGroup"


class UnpairedCases(HarnessError):
    name = "UnpairedCases"
