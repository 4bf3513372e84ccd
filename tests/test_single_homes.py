"""Rules that have one home in the source: the sampled sign rule of a third
derivative lives in divided_diff (``SIGN_TOL`` and ``certify_3convex``),
the refusal of an interval whose length overflows is written once, in
``FunctionBundle._check_interval``, the refusal of a degenerate interval
once, in ``divided_diff._check_order``, the refusal of a bundle with no
certified direction once, in ``elr_bounds._certified``, which is also the
one caller of ``certify_3convex`` and names its point count, each node
rule of a functional once, in the field check of functionals.py, and the
rules of names: ``generator()`` in divergences.py refuses an unknown
generator and an alpha renyi lacks or another generator is given, and the
registry refuses every other count of params; ``elr_bounds._check_theorems``
refuses an unknown theorem name.  A second copy of any, in any module of
the package, fails here.  The endpoint derivatives of a bound pair are
named only in ``elr_bounds._bound_pair``, the one home of its formulas,
and read only in elr_bounds.py (``_endpoint_values``); how a checked row
of weights is landed and becomes a functional is known only to
functionals.py; a report float is formatted only in cli.py; and the
domain (0, inf) is written once, in ``divided_diff._on_positive_axis``,
which builds every family member and product bundle of
stolarsky_means.py; x^3, x^4 and e^x are one table of divided_diff.py
with one builder, ``_on_real_line``, and only a polynomial and the
fuzzer's spline are built elsewhere.  A bool is told from a number only
in ``divided_diff._is_number``.  The step of the divided
difference table is written once, in ``divided_diff._newton_table``, and
no module builds a ``MultiplicityPattern``: the certificate's fallback
runs the table itself."""

import ast
import math
import re
from pathlib import Path

import pytest

import elrbounds
from elrbounds.divided_diff import _REAL_LINE_FUNCTIONS, _on_real_line
from elrbounds.registry import resolve_phi
from elrbounds.stolarsky_means import cubic_reference

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


@pytest.mark.parametrize("message,home", [
    ("unknown generator", "divergences.py"),
    ("requires alpha", "divergences.py"),
    ("takes no alpha", "divergences.py"),
    ("takes no parameters", "registry.py"),
    ("needs one parameter", "registry.py"),
    ("unknown theorem", "elr_bounds.py"),
])
def test_name_rules_are_written_once(message, home):
    copies = [name for name, text in SOURCES.items()
              for _ in re.finditer(re.escape(message), text)]
    assert copies == [home]


ENDPOINT_NAMES = {"d1p", "d1m", "d2p", "d2m"}


def _endpoint_scopes(node, scope="<module>"):
    """The innermost function around each name, argument or attribute
    under ``node`` that is one of ENDPOINT_NAMES."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    name = (node.id if isinstance(node, ast.Name) else node.arg if isinstance(node, ast.arg)
            else node.attr if isinstance(node, ast.Attribute) else None)
    if name in ENDPOINT_NAMES:
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _endpoint_scopes(child, scope)


def test_endpoint_derivatives_are_read_by_one_function():
    readers = {(name, scope) for name, text in SOURCES.items()
               for scope in _endpoint_scopes(ast.parse(text))}
    assert readers == {("elr_bounds.py", "_bound_pair")}


LANDING_NAMES = {"_land_row", "_land_rows", "_land_held", "_land_batch", "_functional"}


def test_landing_is_used_only_in_functionals():
    """No other module imports a landing private of functionals.py, or
    reads one as an attribute: they build through its public builders and
    ``_landed_functional``."""
    users = set()
    for name, text in SOURCES.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                users.update((name, alias.name) for alias in node.names
                             if alias.name in LANDING_NAMES)
            elif isinstance(node, ast.Attribute) and node.attr in LANDING_NAMES:
                users.add((name, node.attr))
    assert {user for user in users if user[0] != "functionals.py"} == set()


def test_endpoint_values_are_read_only_in_elr_bounds():
    callers = [name for name, text in SOURCES.items()
               for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.Call)
               and "_endpoint_values" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))]
    assert callers and set(callers) == {"elr_bounds.py"}


def test_report_float_format_is_written_only_in_cli():
    copies = [name for name, text in SOURCES.items()
              for _ in re.finditer(re.escape(".17g"), text)]
    assert copies == ["cli.py"]


def _call_scopes(node, callees, scope="<module>"):
    """(innermost function, call) for each call under ``node`` of a
    name in ``callees``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callees:
        yield scope, node
    for child in ast.iter_child_nodes(node):
        yield from _call_scopes(child, callees, scope)


def test_family_bundles_have_one_builder():
    """stolarsky_means.py never calls FunctionBundle: its members and
    product bundles come from one builder, and the cubic reference from
    the real-line one."""
    scopes = [scope for scope, _ in _call_scopes(ast.parse(SOURCES["stolarsky_means.py"]),
                                                 {"FunctionBundle"})]
    assert scopes == []


def test_bundles_are_built_in_three_places():
    """Outside divided_diff.py, whose builders make every named bundle on
    (0, inf) and on the real line, only a polynomial and the fuzzer's
    spline build a FunctionBundle."""
    sites = {(name, scope) for name, text in SOURCES.items()
             for scope, _ in _call_scopes(ast.parse(text), {"FunctionBundle"})
             if name != "divided_diff.py"}
    assert sites == {("registry.py", "poly_bundle"),
                     ("fuzzing.py", "random_three_convex_bundle")}


def test_real_line_builtins_come_from_one_table():
    for name in ("cubic", "quartic", "exp"):
        built = resolve_phi({"name": name})
        assert built is _on_real_line(name) is resolve_phi({"name": name})
        assert (built.domain_lo, built.domain_hi) == (-math.inf, math.inf)
        assert (built.f, built.d1, built.d2, built.d3) == _REAL_LINE_FUNCTIONS[name]
    assert cubic_reference() is _on_real_line("cubic")


def _bool_tests(node):
    """Each isinstance or issubclass call under ``node`` whose class
    argument names bool, alone or in a tuple."""
    for call in ast.walk(node):
        if (isinstance(call, ast.Call) and len(call.args) == 2
                and getattr(call.func, "id", None) in ("isinstance", "issubclass")):
            kinds = call.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(getattr(kind, "id", None) == "bool" for kind in names):
                yield call


def test_the_number_rule_is_written_once():
    """A bool is told from a number only in divided_diff.py, the one home
    of ``_is_number``, below every module that imports it."""
    homes = [name for name, text in SOURCES.items() for _ in _bool_tests(ast.parse(text))]
    assert homes == ["divided_diff.py"]


# the argument that gives a bundle's lower domain end: its keyword, and
# its position among the builder's arguments
DOMAIN_LO = {"FunctionBundle": ("domain_lo", 0), "bundle_from_callables": ("lo", 4)}


def test_positive_axis_is_written_once():
    homes = set()
    for name, text in SOURCES.items():
        for scope, call in _call_scopes(ast.parse(text), set(DOMAIN_LO)):
            keyword, position = DOMAIN_LO[call.func.id]
            lo = next((kw.value for kw in call.keywords if kw.arg == keyword),
                      call.args[position] if len(call.args) > position else None)
            if isinstance(lo, ast.Constant) and lo.value == 0:
                homes.add((name, scope))
    assert homes == {("divided_diff.py", "_on_positive_axis")}


def test_the_difference_quotient_is_written_once():
    """A difference of neighbours over the gap of their points, the step of
    the Newton table that dd_recursive, dd_confluent and the doubled-point
    fallback of certify_3convex share."""
    quotient = re.compile(r"\((\w+)\[(\w+) \+ 1\] - \1\[\2\]\) / \(")
    copies = [name for name, text in SOURCES.items() for _ in quotient.finditer(text)]
    assert copies == ["divided_diff.py"]


def test_no_module_builds_a_multiplicity_pattern():
    builders = [name for name, text in SOURCES.items()
                for _ in re.finditer(r"(?<!class )\bMultiplicityPattern\(", text)]
    assert builders == []
