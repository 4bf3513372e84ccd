"""Outside values and phi specifications: the refusals of the registry
that the CLI's inputs do not reach."""

import pytest

from elrbounds.registry import number, resolve_phi


def test_an_int_beyond_the_float_range_is_not_a_number():
    with pytest.raises(ValueError) as err:
        number(10 ** 400, "weight")
    assert str(err.value) == f"weight must be a finite number, got {10 ** 400!r}"


def test_a_phi_specification_must_be_an_object():
    with pytest.raises(ValueError) as err:
        resolve_phi("cubic")
    assert str(err.value) == "phi specification must be an object"
