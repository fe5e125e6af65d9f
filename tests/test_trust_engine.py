"""Tests for cross-validation, the trust engine, and the validator pool."""

import pytest

from repro.errors import TrustError
from repro.trust import (
    TRUSTED_THRESHOLD,
    CrossValidator,
    Observation,
    SourceTier,
    TrustEngine,
    ValidatorPool,
)


def obs(source="s", lat=12.97, lon=77.59, t=100.0, **counts):
    return Observation(source_id=source, lat=lat, lon=lon, timestamp=t, counts=counts)


class TestCrossValidator:
    def test_no_neighbours_neutral(self):
        cv = CrossValidator()
        assert cv.score(obs()) == pytest.approx(0.5)

    def test_perfect_match_scores_high(self):
        cv = CrossValidator()
        cv.add_trusted(obs(source="cam", car=3, truck=1))
        assert cv.score(obs(source="mobile", car=3, truck=1)) > 0.9

    def test_contradiction_scores_low(self):
        cv = CrossValidator()
        cv.add_trusted(obs(source="cam", car=10))
        assert cv.score(obs(source="mobile", car=0, truck=7)) < 0.35

    def test_distance_gates_comparison(self):
        cv = CrossValidator(max_distance_deg=0.01)
        cv.add_trusted(obs(source="cam", lat=12.97, car=5))
        far = obs(source="mobile", lat=13.50, car=0)  # ~60 km away
        assert cv.score(far) == pytest.approx(0.5)  # not comparable

    def test_time_gates_comparison(self):
        cv = CrossValidator(max_time_gap_s=60)
        cv.add_trusted(obs(source="cam", t=0.0, car=5))
        assert cv.score(obs(source="mobile", t=500.0, car=0)) == pytest.approx(0.5)

    def test_near_miss_degrades_gracefully(self):
        cv = CrossValidator()
        cv.add_trusted(obs(source="cam", car=10))
        close = cv.score(obs(source="m", car=9))
        off = cv.score(obs(source="m", car=5))
        way_off = cv.score(obs(source="m", car=0))
        assert close > off > way_off

    def test_multiple_neighbours_averaged(self):
        cv = CrossValidator()
        cv.add_trusted(obs(source="cam1", car=10))
        cv.add_trusted(obs(source="cam2", car=0))
        mid = cv.score(obs(source="m", car=10))
        assert 0.4 < mid < 0.9  # pulled down by the disagreeing camera


class TestTrustEngine:
    def make(self):
        engine = TrustEngine()
        engine.register_source("camera-1", SourceTier.TRUSTED)
        engine.register_source("mobile-1", SourceTier.UNTRUSTED)
        return engine

    def test_trusted_source_full_score(self):
        engine = self.make()
        assert engine.score("camera-1") == 1.0
        decision = engine.admit("camera-1")
        assert decision.admitted and not decision.requires_corroboration

    def test_untrusted_source_admitted_with_validation(self):
        engine = self.make()
        decision = engine.admit("mobile-1")
        assert decision.admitted
        assert decision.requires_corroboration  # below trusted threshold

    def test_duplicate_registration_rejected(self):
        engine = self.make()
        with pytest.raises(TrustError):
            engine.register_source("mobile-1")

    def test_unknown_source_rejected(self):
        with pytest.raises(TrustError):
            self.make().admit("ghost")

    def test_cannot_register_into_quarantine(self):
        with pytest.raises(TrustError):
            self.make().register_source("x", SourceTier.QUARANTINED)

    def test_good_behaviour_earns_trusted_level_score(self):
        engine = self.make()
        for _ in range(40):
            engine.record_validation("mobile-1", True, valid_votes=4, invalid_votes=0)
        assert engine.score("mobile-1") > TRUSTED_THRESHOLD
        assert not engine.admit("mobile-1").requires_corroboration

    def test_bad_behaviour_quarantines(self):
        engine = self.make()
        for _ in range(30):
            engine.record_validation("mobile-1", False, valid_votes=0, invalid_votes=4)
        assert engine.tier("mobile-1") is SourceTier.QUARANTINED
        assert not engine.admit("mobile-1").admitted

    def test_quarantined_source_can_earn_release(self):
        engine = self.make()
        for _ in range(30):
            engine.record_validation("mobile-1", False, valid_votes=0, invalid_votes=4)
        assert engine.tier("mobile-1") is SourceTier.QUARANTINED
        for _ in range(60):
            engine.record_corroborated_accept("mobile-1", cross_validation=0.95)
        assert engine.tier("mobile-1") is SourceTier.UNTRUSTED
        assert engine.admit("mobile-1").admitted

    def test_corroborated_accept_requires_corroboration(self):
        engine = self.make()
        with pytest.raises(TrustError):
            engine.record_corroborated_accept("mobile-1", cross_validation=0.3)

    def test_trusted_observations_feed_cross_validation(self):
        engine = self.make()
        engine.observe_trusted(obs(source="camera-1", car=5))
        score = engine.cross_validate(obs(source="mobile-1", car=5))
        assert score > 0.9

    def test_untrusted_cannot_feed_trusted_window(self):
        engine = self.make()
        with pytest.raises(TrustError):
            engine.observe_trusted(obs(source="mobile-1", car=5))

    def test_observation_updates_cross_signal(self):
        engine = self.make()
        engine.observe_trusted(obs(source="camera-1", car=5))
        engine.record_validation(
            "mobile-1", True, valid_votes=4, invalid_votes=0,
            observation=obs(source="mobile-1", car=5),
        )
        record = engine.chain_record("mobile-1")
        assert record["cross_validation"] > 0.9

    def test_chain_record_tiers(self):
        engine = self.make()
        assert engine.chain_record("camera-1")["tier"] == "trusted"
        assert engine.chain_record("mobile-1")["tier"] == "untrusted"

    def test_sources_by_tier(self):
        engine = self.make()
        assert engine.sources(SourceTier.TRUSTED) == ["camera-1"]
        assert engine.sources() == ["camera-1", "mobile-1"]


class TestValidatorPool:
    def make(self, n=4):
        pool = ValidatorPool(min_votes=5, flags_to_remove=2)
        for i in range(n):
            pool.add_validator(f"v{i}")
        return pool

    def test_honest_validators_never_flagged(self):
        pool = self.make()
        for _ in range(50):
            pool.observe_decision(True, {f"v{i}": True for i in range(4)})
        assert pool.flagged() == []
        assert pool.active() == ["v0", "v1", "v2", "v3"]

    def test_consistent_dissenter_flagged_then_removed(self):
        pool = self.make()
        removed_events = []
        for _ in range(50):
            votes = {"v0": True, "v1": True, "v2": True, "v3": False}
            removed_events += pool.observe_decision(True, votes)
        assert "v3" in pool.removed()
        assert removed_events.count("v3") == 1

    def test_silent_validator_accrues_absences(self):
        pool = self.make()
        for _ in range(50):
            pool.observe_decision(True, {"v0": True, "v1": True, "v2": True})
        assert "v3" in pool.removed()

    def test_occasional_disagreement_tolerated(self):
        pool = self.make()
        for i in range(60):
            votes = {f"v{j}": True for j in range(4)}
            if i % 10 == 0:
                votes["v3"] = False  # 10% dissent, under the 1/3 threshold
            pool.observe_decision(True, votes)
        assert "v3" not in pool.removed()
        assert pool.record("v3").flags == 0

    def test_no_flagging_before_evidence_floor(self):
        pool = self.make()
        pool.observe_decision(True, {"v0": True, "v1": True, "v2": True, "v3": False})
        assert pool.record("v3").flags == 0

    def test_removed_validator_not_active(self):
        pool = self.make()
        for _ in range(50):
            pool.observe_decision(True, {"v0": True, "v1": True, "v2": True, "v3": False})
        assert "v3" not in pool.active()

    def test_duplicate_add_rejected(self):
        pool = self.make()
        with pytest.raises(TrustError):
            pool.add_validator("v0")

    def test_unknown_record_rejected(self):
        with pytest.raises(TrustError):
            self.make().record("ghost")

    def test_stats_shape(self):
        pool = self.make(2)
        pool.observe_decision(True, {"v0": True, "v1": False})
        stats = pool.stats()
        assert stats["v1"]["disagreements"] == 1
        assert stats["v0"]["votes"] == 1
