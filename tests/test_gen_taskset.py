"""Tests for the Appendix C random task generator and UUniFast."""

import numpy as np
import pytest

from repro.gen.taskset import (
    PAPER_CONFIG,
    GeneratorConfig,
    generate_taskset,
    uunifast,
    uunifast_taskset,
)
from repro.model.criticality import DualCriticalitySpec

SPEC = DualCriticalitySpec.from_names("B", "D")


class TestGeneratorConfig:
    def test_paper_defaults(self):
        assert PAPER_CONFIG.u_min == 0.01
        assert PAPER_CONFIG.u_max == 0.2
        assert PAPER_CONFIG.period_min == 200.0
        assert PAPER_CONFIG.period_max == 2000.0
        assert PAPER_CONFIG.p_hi == 0.2

    def test_rejects_inverted_utilization_range(self):
        with pytest.raises(ValueError, match="u-"):
            GeneratorConfig(u_min=0.3, u_max=0.2)

    def test_rejects_bad_period_range(self):
        with pytest.raises(ValueError, match="T-"):
            GeneratorConfig(period_min=0.0)

    def test_rejects_bad_p_hi(self):
        with pytest.raises(ValueError, match="P_HI"):
            GeneratorConfig(p_hi=1.5)


class TestGenerateTaskset:
    def test_hits_target_utilization_exactly(self):
        for seed in range(10):
            ts = generate_taskset(0.8, SPEC, seed)
            assert ts.utilization() == pytest.approx(0.8, abs=1e-9)

    def test_hits_a_fig3_grid_point(self):
        ts = generate_taskset(0.9, SPEC, 7)
        assert ts.utilization() == pytest.approx(0.9, abs=1e-9)

    def test_task_parameters_in_ranges(self):
        ts = generate_taskset(0.9, SPEC, 42)
        for task in ts:
            assert PAPER_CONFIG.period_min <= task.period <= PAPER_CONFIG.period_max
            assert task.utilization <= PAPER_CONFIG.u_max + 1e-12
            assert task.is_implicit_deadline
            assert task.failure_probability == PAPER_CONFIG.failure_probability

    def test_contains_both_criticalities(self):
        for seed in range(30):
            ts = generate_taskset(0.6, SPEC, seed)
            assert ts.hi_tasks, f"seed {seed} has no HI task"
            assert ts.lo_tasks, f"seed {seed} has no LO task"

    def test_deterministic_by_seed(self):
        a = generate_taskset(0.7, SPEC, 123)
        b = generate_taskset(0.7, SPEC, 123)
        assert [t.wcet for t in a] == [t.wcet for t in b]
        assert [t.criticality for t in a] == [t.criticality for t in b]

    def test_different_seeds_differ(self):
        a = generate_taskset(0.7, SPEC, 1)
        b = generate_taskset(0.7, SPEC, 2)
        assert [t.wcet for t in a] != [t.wcet for t in b]

    def test_custom_failure_probability(self):
        config = GeneratorConfig(failure_probability=1e-3)
        ts = generate_taskset(0.5, SPEC, 0, config)
        assert all(t.failure_probability == 1e-3 for t in ts)

    def test_spec_attached(self):
        ts = generate_taskset(0.5, SPEC, 0)
        assert ts.spec == SPEC

    def test_rejects_nonpositive_utilization(self):
        with pytest.raises(ValueError, match="utilization"):
            generate_taskset(0.0, SPEC, 0)

    def test_task_count_scales_with_utilization(self):
        small = generate_taskset(0.2, SPEC, 9)
        large = generate_taskset(1.2, SPEC, 9)
        assert len(large) > len(small)

    def test_accepts_generator_instance(self):
        rng = np.random.default_rng(5)
        ts = generate_taskset(0.5, SPEC, rng)
        assert ts.utilization() == pytest.approx(0.5)

    def test_name_override(self):
        ts = generate_taskset(0.5, SPEC, 0, name="custom")
        assert ts.name == "custom"


class TestUUniFast:
    def test_sums_to_target(self):
        for seed in range(10):
            u = uunifast(8, 0.9, seed)
            assert u.sum() == pytest.approx(0.9)

    def test_all_positive(self):
        u = uunifast(20, 0.95, 3)
        assert (u > 0).all()

    def test_single_task(self):
        assert uunifast(1, 0.5, 0)[0] == pytest.approx(0.5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            uunifast(0, 0.5)
        with pytest.raises(ValueError):
            uunifast(3, -0.1)

    def test_taskset_wrapper(self):
        ts = uunifast_taskset(10, 0.8, SPEC, 7)
        assert len(ts) == 10
        assert ts.utilization() == pytest.approx(0.8)
        assert ts.hi_tasks and ts.lo_tasks


class TestHeterogeneousFailureProbabilities:
    def test_constant_by_default(self):
        ts = generate_taskset(0.6, SPEC, 3)
        assert len({t.failure_probability for t in ts}) == 1

    def test_range_draws_within_bounds(self):
        config = GeneratorConfig(
            failure_probability=1e-6, failure_probability_max=1e-3
        )
        ts = generate_taskset(1.0, SPEC, 3, config)
        values = [t.failure_probability for t in ts]
        assert all(1e-6 <= v <= 1e-3 for v in values)
        assert len(set(values)) > 1  # actually heterogeneous

    def test_range_validation(self):
        with pytest.raises(ValueError, match="f_min"):
            GeneratorConfig(
                failure_probability=1e-3, failure_probability_max=1e-5
            )
        with pytest.raises(ValueError, match="f_min"):
            GeneratorConfig(
                failure_probability=0.0, failure_probability_max=1e-3
            )

    def test_log_uniform_spread(self):
        """Log-uniform draws cover the decades roughly evenly."""
        import numpy as np

        config = GeneratorConfig(
            failure_probability=1e-8, failure_probability_max=1e-2
        )
        gen = np.random.default_rng(0)
        draws = [config.draw_failure_probability(gen) for _ in range(2000)]
        logs = np.log10(draws)
        assert -8.0 <= logs.min() and logs.max() <= -2.0
        # Mean of a log-uniform over [-8, -2] is -5.
        assert abs(logs.mean() + 5.0) < 0.2

    def test_deterministic_with_seed(self):
        config = GeneratorConfig(
            failure_probability=1e-6, failure_probability_max=1e-3
        )
        a = generate_taskset(0.7, SPEC, 11, config)
        b = generate_taskset(0.7, SPEC, 11, config)
        assert [t.failure_probability for t in a] == [
            t.failure_probability for t in b
        ]


class TestStreamPin:
    """The generator's draws, and where a shared generator continues after
    each set, are pinned to one digest over a small corpus."""

    #: sha256 of :meth:`corpus`, computed when the generator made one
    #: scalar draw per value (u, T, criticality, f); reading each task's
    #: doubles in one call must leave it unchanged.
    DIGEST = "87559c0d56d9e2fdef99fca1bd173b4f3ab163e7751fc4cac45488b2947c4e0a"

    CONFIGS = (
        PAPER_CONFIG,
        GeneratorConfig(failure_probability=1e-6, failure_probability_max=1e-3),
        GeneratorConfig(u_max=0.05),
        # One criticality only: _ensure_both_criticalities draws a flip.
        GeneratorConfig(p_hi=0.0),
        GeneratorConfig(p_hi=1.0),
    )

    @classmethod
    def corpus(cls) -> bytes:
        lines = []
        for config in cls.CONFIGS:
            for seed in (0, 1, 7):
                gen = np.random.default_rng(seed)
                for utilization in (0.3, 0.85):
                    ts = generate_taskset(utilization, SPEC, gen, config)
                    lines.append(ts.name)
                    lines.extend(
                        f"{t.name},{t.period!r},{t.deadline!r},{t.wcet!r},"
                        f"{t.criticality.name},{t.failure_probability!r}"
                        for t in ts
                    )
                    # Where the caller's generator continues.
                    lines.append(repr(gen.random(3).tolist()))
        return "\n".join(lines).encode()

    def test_digest(self):
        import hashlib

        assert hashlib.sha256(self.corpus()).hexdigest() == self.DIGEST

    def test_corpus_covers_the_flip_and_ranged_f(self):
        for config in self.CONFIGS[3:]:
            ts = generate_taskset(0.85, SPEC, 0, config)
            assert ts.hi_tasks and ts.lo_tasks
        ranged = generate_taskset(0.85, SPEC, 0, self.CONFIGS[1])
        assert len({t.failure_probability for t in ranged}) > 1
