"""The benchmark's span recorder wraps package functions by name; each one
it names must exist, or a rename breaks only traced benchmark runs."""

import importlib
import importlib.util
import os

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(owner, attr):
    """``patchrepro.<owner>.<attr>``, or None where any step is missing."""
    module, *classes = owner.split(".")
    target = importlib.import_module("patchrepro." + module)
    for part in classes + [attr]:
        target = getattr(target, part, None)
    return target


def test_every_span_target_resolves():
    spans = _load_spans()
    missing = ["%s.%s" % (owner, attr) for _layer, owner, attr in spans.TARGETS
               if not callable(_resolve(owner, attr))]
    missing += ["%s.%s" % (alias, attr)
                for (owner, attr), aliases in spans.ALIASES.items()
                for alias in aliases
                if _resolve(alias, attr) is not _resolve(owner, attr)]
    assert missing == []
