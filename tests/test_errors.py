import inspect

import pytest

from patchrepro import errors

# Class -> the wire-visible ``name`` a tool error carries.
WIRE_NAMES = {
    "HarnessError": "HarnessError",
    "InvalidParams": "InvalidParams",
    "UnknownCommit": "UnknownCommit",
    "MergeCommitRejected": "MergeCommitRejected",
    "EmptyDiff": "EmptyDiff",
    "BuildFailed": "BuildFailed",
    "EnvBootFailed": "EnvBootFailed",
    "UnknownProfile": "UnknownProfile",
    "SnapshotFailed": "SnapshotFailed",
    "RootUnreadable": "RootUnreadable",
    "FileNotIndexed": "FileNotIndexed",
    "SnippetFileNotFound": "FileNotFound",
    "StartBeyondEof": "StartBeyondEof",
    "GuestUnavailable": "GuestUnavailable",
    "DebuggeeHalted": "DebuggeeHalted",
    "CompileFailed": "CompileFailed",
    "HostPathRefused": "HostPathRefused",
    "UploadFailed": "UploadFailed",
    "StubUnavailable": "StubUnavailable",
    "AlreadyAttached": "AlreadyAttached",
    "MalformedRecord": "MalformedRecord",
    "UnknownBreakpoint": "UnknownBreakpoint",
    "UnresolvableLocation": "UnresolvableLocation",
    "StubError": "StubError",
    "NotStopped": "NotStopped",
    "MalformedTrace": "MalformedTrace",
    "ArtifactsIncomplete": "ArtifactsIncomplete",
    "AllStrataDegenerate": "AllStrataDegenerate",
    "EmptyGroup": "EmptyGroup",
    "UnpairedCases": "UnpairedCases",
}


def test_table_covers_every_harness_error():
    defined = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.HarnessError)}
    assert defined == set(WIRE_NAMES)


@pytest.mark.parametrize("cls_name, wire_name", sorted(WIRE_NAMES.items()))
def test_wire_name(cls_name, wire_name):
    cls = getattr(errors, cls_name)
    assert cls.name == wire_name
    assert str(cls()) == wire_name  # the default message is the name
