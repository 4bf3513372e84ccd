"""Bundles that record their own evaluations, for the tests that count
what a pass reads: an endpoint read, a node evaluation, a sample of d3."""

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
