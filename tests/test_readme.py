"""README's list of built-in ``phi`` names is the registry's: it names
each built-in and generator name once, under the count of params that the
name takes, so a name added, dropped or given another count without the
README fails here.  README's ``make_functionals(...)`` signature is the
function's, so a parameter added, dropped or renamed fails here too."""

import inspect
import re
from pathlib import Path

import pytest

from elrbounds.divergences import GENERATOR_NAMES
from elrbounds.functionals import make_functionals
from elrbounds.registry import BUILTIN_NAMES, resolve_phi

README = Path(__file__).resolve().parent.parent / "README.md"


def _names_paragraph() -> str:
    paragraphs = README.read_text().split("\n\n")
    found = [p for p in paragraphs if p.startswith("Built-in `phi` names")]
    assert len(found) == 1
    return found[0]


def test_readme_names_each_function_under_its_count():
    lists = re.search(r"none for(.*?);\s+one for(.*?)\.", _names_paragraph(), re.S)
    none, one = (set(re.findall(r"`(\w+)`", text)) for text in lists.groups())
    assert not none & one
    assert none | one == {*BUILTIN_NAMES, *GENERATOR_NAMES}
    for name in none:
        resolve_phi({"name": name})
        with pytest.raises(ValueError, match=f"^{name} takes no parameters$"):
            resolve_phi({"name": name, "params": [2.5]})
    for name in one:
        resolve_phi({"name": name, "params": [2.5]})
        with pytest.raises(ValueError, match=f"^{name} needs one parameter$"):
            resolve_phi({"name": name})


def test_readme_make_functionals_signature_is_the_code():
    written = re.findall(r"make_functionals\(([^)`]*)\)", README.read_text())
    assert written
    signature = ", ".join(
        name if p.default is p.empty else f"{name}={p.default!r}"
        for name, p in inspect.signature(make_functionals).parameters.items())
    assert set(written) == {signature}
