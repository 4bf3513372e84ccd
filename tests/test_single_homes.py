"""Rules that have one home in the source: the sampled sign rule of a third
derivative lives in divided_diff (``SIGN_TOL`` and ``certify_3convex``),
the refusal of an interval whose length overflows is written once, in
``FunctionBundle._check_interval``, the refusal of a degenerate interval
once, in ``divided_diff._check_order``, the refusal of a bundle with no
certified direction once, in ``elr_bounds._certified``, which is also the
one caller of ``certify_3convex`` and names its point count, and each node
rule of a functional once, in the field check of functionals.py.  A second
copy of any, in any module of the package, fails here."""

import re
from pathlib import Path

import pytest

import elrbounds

SOURCES = {path.name: path.read_text()
           for path in sorted(Path(elrbounds.__file__).parent.glob("*.py"))}


def test_sources_are_found():
    assert {"divided_diff.py", "divergences.py", "functionals.py"} <= set(SOURCES)


def test_sign_tolerance_is_read_only_in_divided_diff():
    users = [name for name, text in SOURCES.items()
             if re.search(r"\bSIGN_TOL\b", text)]
    assert users == ["divided_diff.py"]


def test_length_overflow_is_refused_in_one_place():
    copies = [name for name, text in SOURCES.items()
              for _ in re.finditer("length overflows", text)]
    assert copies == ["divided_diff.py"]


@pytest.mark.parametrize("message", ["nodes must be finite",
                                     "nodes and weights differ in length",
                                     "functional needs at least one node"])
def test_functional_field_rule_is_written_once(message):
    copies = [name for name, text in SOURCES.items()
              for _ in re.finditer(re.escape(message), text)]
    assert copies == ["functionals.py"]


@pytest.mark.parametrize("message,home", [
    ("degenerate interval: m must lie strictly below M", "divided_diff.py"),
    ("in either direction", "elr_bounds.py"),
])
def test_interval_and_direction_rules_are_written_once(message, home):
    copies = [name for name, text in SOURCES.items()
              for _ in re.finditer(re.escape(message), text)]
    assert copies == [home]


def test_certificate_is_taken_in_one_place_at_one_point_count():
    calls = [(name, match.group(1)) for name, text in SOURCES.items()
             for match in re.finditer(r"(?<!def )\bcertify_3convex\(([^)]*)\)", text)]
    assert calls == [("elr_bounds.py", "bundle, m, M, CERTIFY_POINTS")]
    counts = [name for name, text in SOURCES.items()
              for _ in re.finditer(r"\bCERTIFY_POINTS\s*=", text)]
    assert counts == ["elr_bounds.py"]


def test_no_direction_is_declared():
    assert [name for name, text in SOURCES.items() if "declared 3-" in text] == []
