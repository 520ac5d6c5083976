"""Tests for LDC distillation and the compiled tier ladder."""

import numpy as np
import pytest

from repro.compression import distill
from repro.compression.tiers import (
    DEFAULT_TIER_SPECS,
    TierSet,
    TierSpec,
    build_tiers,
    compiled_predict,
)
from repro.data.streams import DriftingStream, StreamConfig
from repro.hdc.bagging import BaggingConfig, BaggingHDCTrainer


@pytest.fixture(scope="module")
def trained():
    stream = DriftingStream(
        StreamConfig(num_features=16, num_classes=3, drift_rate=0.0),
        seed=3,
    )
    x, y = stream.next_batch(300)
    trainer = BaggingHDCTrainer(
        BaggingConfig(num_models=4, dimension=512, iterations=3), seed=7,
    )
    trainer.fit(x, y)
    return trainer.fuse(), x, y


SPECS = (
    TierSpec("full"),
    TierSpec("compressed", "dpq", dimension=128),
    TierSpec("tiny", "ldc", dimension=64),
)


class TestDistill:
    def test_student_tracks_teacher(self, trained):
        fused, x, y = trained
        student = distill(fused, x, dimension=64, seed=0)
        assert student.dimension == 64
        assert student.num_classes == fused.num_classes
        # The student learned the teacher's decision surface, not noise.
        agreement = np.mean(student.predict(x) == fused.predict(x))
        assert agreement > 0.8

    def test_deterministic_per_seed(self, trained):
        fused, x, _ = trained
        a = distill(fused, x, dimension=32, seed=5)
        b = distill(fused, x, dimension=32, seed=5)
        np.testing.assert_array_equal(a.base_matrix, b.base_matrix)
        np.testing.assert_array_equal(a.class_matrix, b.class_matrix)

    def test_invalid_inputs(self, trained):
        fused, x, _ = trained
        with pytest.raises(ValueError):
            distill(fused, x[:, :4], dimension=32)
        with pytest.raises(ValueError):
            distill(fused, x, dimension=0)


class TestTierSpec:
    def test_degraded_needs_dimension(self):
        with pytest.raises(ValueError):
            TierSpec("c", "dpq")
        with pytest.raises(ValueError):
            TierSpec("c", "prune")
        with pytest.raises(ValueError):
            TierSpec("")


class TestBuildTiers:
    @pytest.fixture(scope="class")
    def ladder(self, trained):
        fused, x, y = trained
        return build_tiers(fused, x[:96], specs=SPECS,
                           evaluation=(x, y))

    def test_ladder_shape(self, ladder, trained):
        fused, _, _ = trained
        assert isinstance(ladder, TierSet)
        assert ladder.names == ["full", "compressed", "tiny"]
        assert [t.dimension for t in ladder] == [512, 128, 64]
        assert ladder[0].fused is fused
        # Strictly narrowing means strictly cheaper on-chip.
        weights = [t.weight_bytes for t in ladder]
        assert weights == sorted(weights, reverse=True)

    def test_build_accuracy_measured_through_compiled_ops(self, ladder,
                                                          trained):
        _, x, y = trained
        for tier in ladder:
            assert tier.build_accuracy is not None
            expected = float(np.mean(
                compiled_predict(tier.compiled, x) == y
            ))
            assert tier.build_accuracy == pytest.approx(expected)
        # Degradation costs a bounded amount on the build set.
        assert ladder[1].build_accuracy >= ladder[0].build_accuracy - 0.05
        assert ladder[2].build_accuracy >= ladder[0].build_accuracy - 0.05

    def test_compiled_full_is_reused(self, trained):
        fused, x, _ = trained
        ladder = build_tiers(fused, x[:96], specs=SPECS)
        again = build_tiers(fused, x[:96], specs=SPECS,
                            compiled_full=ladder[0].compiled)
        assert again[0].compiled is ladder[0].compiled
        assert again[0].build_accuracy is None

    def test_default_specs_clamp_to_small_models(self, trained):
        # The paper-scale default ladder (d=2048/256) must still build
        # for a d=512 model: degraded widths clamp below the model.
        fused, x, _ = trained
        ladder = build_tiers(fused, x[:96], specs=DEFAULT_TIER_SPECS)
        dims = [t.dimension for t in ladder]
        assert dims[0] == 512
        assert dims == sorted(dims, reverse=True)
        assert len(set(dims)) == len(dims)

    def test_first_spec_must_be_full(self, trained):
        fused, x, _ = trained
        with pytest.raises(ValueError):
            build_tiers(fused, x[:96],
                        specs=(TierSpec("c", "dpq", dimension=64),))
        with pytest.raises(ValueError):
            build_tiers(fused, x[:96],
                        specs=(TierSpec("full"), TierSpec("f2")))

    def test_summary(self, ladder, trained):
        summary = ladder.summary()
        assert summary["schema"] == "repro.tiers/1"
        assert [t["name"] for t in summary["tiers"]] == ladder.names
        # A second build of the same ladder is the same ladder.
        fused, x, y = trained
        again = build_tiers(fused, x[:96], specs=SPECS, evaluation=(x, y))
        assert again.summary() == summary

    def test_tierset_validation(self, ladder):
        with pytest.raises(ValueError):
            TierSet([])
        with pytest.raises(ValueError):
            TierSet([ladder[0], ladder[0]])
        with pytest.raises(ValueError):
            TierSet([ladder[1], ladder[0]])
