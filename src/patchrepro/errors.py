"""Shared exception types for the reproduction harness.

Tool-facing errors carry a stable ``name`` so the tool server can wrap them
into protocol errors without string matching.
"""


class HarnessError(Exception):
    """Base class; ``name`` is the wire-visible error identifier: the class
    name, unless a subclass sets its own."""

    name = "HarnessError"
    # Wire-visible detail beside the message (a JSON object), or None.
    data = None

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
    """A PoC build that gave no binary.  ``kind`` says what failed:
    ``timeout``, ``compile`` (the compiler or the linker, or no compiler
    was found), ``assembly`` or ``unlisted`` (the compiler listed no files
    it read, so no log is shown); ``data`` holds it, and the log if any."""

    def __init__(self, message="", compile_log="", kind="compile"):
        super().__init__(message)
        self.compile_log = compile_log
        self.kind = kind
        self.data = {"kind": kind}
        if compile_log:
            self.data["compile_log"] = compile_log


class HostPathRefused(HarnessError):
    """A PoC build read a host file outside the build dir and the
    compiler's system include dirs; it carries no compile log."""


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
