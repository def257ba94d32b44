"""Shared exception types for the reproduction harness.

Tool-facing errors carry a stable ``name`` so the tool server can wrap them
into protocol errors without string matching.
"""


class HarnessError(Exception):
    """Base class; ``name`` is the wire-visible error identifier: the class
    name, unless a subclass sets its own."""

    name = "HarnessError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "name" not in cls.__dict__:
            cls.name = cls.__name__

    def __init__(self, message=""):
        super().__init__(message or self.name)


class InvalidParams(HarnessError):
    """A tool call whose arguments do not match the registry schema."""


# --- envprep ---------------------------------------------------------------

class UnknownCommit(HarnessError):
    pass


class MergeCommitRejected(HarnessError):
    pass


class EmptyDiff(HarnessError):
    pass


class BuildFailed(HarnessError):
    def __init__(self, message="", prep_log=""):
        super().__init__(message)
        self.prep_log = prep_log


class EnvBootFailed(HarnessError):
    pass


class UnknownProfile(HarnessError):
    pass


class SnapshotFailed(HarnessError):
    pass


# --- codebrowse ------------------------------------------------------------

class RootUnreadable(HarnessError):
    pass


class FileNotIndexed(HarnessError):
    pass


class SnippetFileNotFound(HarnessError):
    name = "FileNotFound"


class StartBeyondEof(HarnessError):
    pass


# --- guestvm ---------------------------------------------------------------

class GuestUnavailable(HarnessError):
    pass


class DebuggeeHalted(HarnessError):
    pass


class CompileFailed(HarnessError):
    def __init__(self, message="", compile_log=""):
        super().__init__(message)
        self.compile_log = compile_log


class UploadFailed(HarnessError):
    pass


# --- kdbg ------------------------------------------------------------------

class StubUnavailable(HarnessError):
    pass


class AlreadyAttached(HarnessError):
    pass


class MalformedRecord(HarnessError):
    pass


class UnknownBreakpoint(HarnessError):
    pass


class UnresolvableLocation(HarnessError):
    pass


class StubError(HarnessError):
    pass


class NotStopped(HarnessError):
    pass


# --- sessionrunner / verdict / analytics -----------------------------------

class MalformedTrace(HarnessError):
    pass


class ArtifactsIncomplete(HarnessError):
    pass


class AllStrataDegenerate(HarnessError):
    pass


class EmptyGroup(HarnessError):
    pass


class UnpairedCases(HarnessError):
    pass
