"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    EmptyPopulationError,
    IncompatibleSpaceError,
    ModelError,
    NotEnumerableError,
    ProbabilityError,
    ReproError,
)


@pytest.mark.parametrize(
    "exception_class",
    [
        ModelError,
        ProbabilityError,
        IncompatibleSpaceError,
        NotEnumerableError,
        EmptyPopulationError,
    ],
)
def test_all_errors_derive_from_repro_error(exception_class):
    assert issubclass(exception_class, ReproError)


def test_probability_error_is_model_error():
    assert issubclass(ProbabilityError, ModelError)


def test_incompatible_space_error_is_model_error():
    assert issubclass(IncompatibleSpaceError, ModelError)


def test_errors_carry_messages():
    error = ModelError("something specific")
    assert "something specific" in str(error)
