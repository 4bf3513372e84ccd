"""Rules that have one home in the source: the sampled sign rule of a third
derivative lives in divided_diff (``SIGN_TOL`` and ``certify_3convex``),
and the refusal of an interval whose length overflows is written once, in
``FunctionBundle._check_interval``.  A second copy of either, in any
module of the package, fails here."""

import re
from pathlib import Path

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
