"""Bundles that record their own evaluations, for the tests that count
what a pass reads: an endpoint read, a node evaluation, a sample of d3;
and call counts of the package's functions, for the tests that count
what a pass makes."""

import sys
from dataclasses import replace

import numpy as np

from elrbounds import FunctionBundle


def counted(bundle, calls, arrays=False):
    """``bundle`` with f, d1, d2 and d3 each recording its evaluations in
    ``calls``: a scalar x as (order, x), and with ``arrays`` an array as
    (order, its shape)."""
    def wrap(order, g):
        if g is None:
            return None

        def call(x):
            if np.ndim(x) == 0:
                calls.append((order, float(x)))
            elif arrays:
                calls.append((order, np.shape(x)))
            return g(x)
        return call

    return replace(bundle, **{key: wrap(order, getattr(bundle, key))
                              for order, key in enumerate(("f", "d1", "d2", "d3"))})


def counting_bundle(calls, arrays=False, **fields):
    """x^4/24 on [0, 3], ``counted``; ``fields`` replace callables or add
    stored end values, and a callable given there is counted too."""
    callables = dict(f=lambda x: x ** 4 / 24.0, d1=lambda x: x ** 3 / 6.0,
                     d2=lambda x: 0.5 * x ** 2, d3=lambda x: x)
    callables.update(fields)
    return counted(FunctionBundle(domain_lo=0.0, domain_hi=3.0, name="counted",
                                  **callables), calls, arrays)


def count_calls(monkeypatch, names):
    """Wrap each named elrbounds function ("module.function") in every
    module namespace that holds it, where its callers look it up, and each
    named method ("module.Class.method") on its class; the call counts."""
    counts = dict.fromkeys(names, 0)
    modules = [mod for key, mod in sys.modules.items()
               if key == "elrbounds" or key.startswith("elrbounds.")]
    for name in names:
        module, *owner, attr = name.split(".")
        home = sys.modules[f"elrbounds.{module}"]
        for cls in owner:
            home = getattr(home, cls)
        original = getattr(home, attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        if owner:
            monkeypatch.setattr(home, attr, counted)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return counts
