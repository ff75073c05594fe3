"""SolverOptions, the error hierarchy, and RNG stream management."""

import math

import numpy as np
import pytest

from repro.config import (
    SolverOptions,
    default_options,
    practical_options,
    theorem_1_1_options,
    theorem_1_2_options,
)
from repro.errors import (
    ConvergenceError,
    FactorizationError,
    GraphStructureError,
    InvalidInputError,
    NotConnectedError,
    ReproError,
    SamplingError,
)
from repro.rng import DEFAULT_SEED, as_generator, child, split


class TestSolverOptions:
    def test_alpha_inverse_theta_log_squared(self):
        opts = SolverOptions(alpha_scale=1.0)
        n = 1 << 10
        assert opts.alpha_inverse(n) == 100  # (log2 n)^2 = 100

    def test_alpha_inverse_floors_at_one(self):
        assert SolverOptions(alpha_scale=1e-9).alpha_inverse(100) == 1
        assert SolverOptions().alpha_inverse(1) == 1

    def test_alpha_reciprocal(self):
        opts = SolverOptions(alpha_scale=1.0)
        assert opts.alpha(1 << 10) == pytest.approx(0.01)

    def test_K_theta_log_cubed(self):
        opts = SolverOptions()
        n = 1 << 8
        assert opts.K(n) == max(1, round(8.0 ** 3 / 8.0))

    def test_K_override(self):
        assert SolverOptions(lev_sample_K=7).K(10 ** 6) == 7

    def test_with_(self):
        opts = default_options()
        new = opts.with_(min_vertices=50)
        assert new.min_vertices == 50
        assert opts.min_vertices == 100  # frozen original untouched

    def test_presets(self):
        assert theorem_1_1_options().splitting == "naive"
        assert theorem_1_1_options().alpha_scale == 1.0
        assert theorem_1_2_options().splitting == "leverage"
        assert practical_options(seed=5).seed == 5

    def test_frozen(self):
        with pytest.raises(Exception):
            default_options().min_vertices = 3  # type: ignore

    @pytest.mark.parametrize("field, value", [
        ("backend", "process"),
        ("backend", "bogus"),
        ("ship_solves", True),
        ("degrade", True),
        ("retries", 1),
    ])
    def test_retired_execution_values_are_refused(self, field, value):
        # The process backend, shipped solves, backend degradation and
        # chunk re-dispatch are gone; asking for them is a typed error
        # at construction.
        with pytest.raises(InvalidInputError, match=field):
            SolverOptions(**{field: value})
        with pytest.raises(InvalidInputError, match=field):
            default_options().with_(**{field: value})

    def test_remaining_execution_values_are_accepted(self):
        for backend in (None, "serial", "thread"):
            assert SolverOptions(backend=backend).backend == backend
        opts = SolverOptions(ship_solves=False, degrade=False, retries=0)
        assert opts.ship_solves is False and opts.degrade is False
        assert opts.retries == 0


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (GraphStructureError, NotConnectedError,
                    ConvergenceError, FactorizationError, SamplingError):
            assert issubclass(exc, ReproError)

    def test_not_connected_is_structure_error(self):
        assert issubclass(NotConnectedError, GraphStructureError)

    def test_convergence_error_payload(self):
        err = ConvergenceError("no", iterations=7, residual=0.5)
        assert err.iterations == 7
        assert err.residual == 0.5


class TestRng:
    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_as_generator_from_int(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_split_independence_and_reproducibility(self):
        parent1 = as_generator(DEFAULT_SEED)
        parent2 = as_generator(DEFAULT_SEED)
        kids1 = split(parent1, 3)
        kids2 = split(parent2, 3)
        for k1, k2 in zip(kids1, kids2):
            assert np.array_equal(k1.random(4), k2.random(4))
        # children differ from each other
        assert not np.array_equal(kids1[0].random(4), kids1[1].random(4))

    def test_split_validation(self):
        with pytest.raises(ValueError):
            split(as_generator(0), -1)

    def test_child(self):
        gen = as_generator(1)
        c = child(gen)
        assert isinstance(c, np.random.Generator)
