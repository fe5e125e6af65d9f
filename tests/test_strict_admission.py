"""Tests for strict admission: contradicted submissions blocked up-front."""

import pytest

from repro.core import BatchIngestor, Client, Framework, FrameworkConfig
from repro.errors import UntrustedSourceError
from repro.trust import SourceTier
from repro.trust.crossval import Observation
from repro.workloads.traffic import IngestItem

JUNCTION = dict(lat=12.97, lon=77.59)
META = {"timestamp": 1.0, "detections": []}


@pytest.fixture()
def strict_env():
    framework = Framework(FrameworkConfig(consensus="solo", strict_admission=True))
    cam = Client(framework, framework.register_source("s-cam", tier=SourceTier.TRUSTED))
    mob = Client(framework, framework.register_source("s-mob"))
    return framework, cam, mob


class TestStrictAdmission:
    def test_contradicted_submission_refused_before_storage(self, strict_env):
        framework, cam, mob = strict_env
        cam.submit(b"truth", dict(META),
                   observation=Observation("s-cam", timestamp=10.0, counts={"car": 4}, **JUNCTION))
        blocks_before = framework.channel.height()
        lie = Observation("s-mob", timestamp=12.0, counts={"car": 0, "truck": 9}, **JUNCTION)
        with pytest.raises(UntrustedSourceError, match="contradicts"):
            mob.submit(b"fabricated", dict(META), observation=lie)
        # Nothing but the trust-score update reached the chain; the data
        # record itself was never stored.
        rows = cam.query("source_id = 's-mob'")
        assert rows == []
        assert framework.channel.height() >= blocks_before  # trust write only

    def test_refusal_damages_trust_score(self, strict_env):
        framework, cam, mob = strict_env
        cam.submit(b"truth", dict(META),
                   observation=Observation("s-cam", timestamp=10.0, counts={"car": 4}, **JUNCTION))
        before = framework.trust.score("s-mob")
        lie = Observation("s-mob", timestamp=12.0, counts={"truck": 9}, **JUNCTION)
        with pytest.raises(UntrustedSourceError):
            mob.submit(b"fabricated", dict(META), observation=lie)
        assert framework.trust.score("s-mob") < before

    def test_corroborated_submission_accepted(self, strict_env):
        framework, cam, mob = strict_env
        cam.submit(b"truth", dict(META),
                   observation=Observation("s-cam", timestamp=10.0, counts={"car": 4}, **JUNCTION))
        agreeing = Observation("s-mob", timestamp=12.0, counts={"car": 4}, **JUNCTION)
        receipt = mob.submit(b"honest report", dict(META), observation=agreeing)
        assert receipt.ok

    def test_no_trusted_neighbours_means_no_gate(self, strict_env):
        """Absence of corroboration is not evidence of falsehood."""
        framework, cam, mob = strict_env
        lonely = Observation("s-mob", timestamp=1.0, counts={"car": 2},
                             lat=13.5, lon=78.5)  # far from everything
        receipt = mob.submit(b"uncorroborated", dict(META), observation=lonely)
        assert receipt.ok

    def test_observationless_submissions_not_gated(self, strict_env):
        _, _, mob = strict_env
        receipt = mob.submit(b"no observation", dict(META))
        assert receipt.ok

    def test_trusted_sources_never_gated(self, strict_env):
        framework, cam, _ = strict_env
        cam.submit(b"t1", dict(META),
                   observation=Observation("s-cam", timestamp=10.0, counts={"car": 4}, **JUNCTION))
        # Even a contradicting trusted report is recorded (it becomes new truth).
        receipt = cam.submit(b"t2", dict(META),
                             observation=Observation("s-cam", timestamp=11.0,
                                                     counts={"truck": 9}, **JUNCTION))
        assert receipt.ok

    def test_default_mode_is_permissive(self):
        framework = Framework(FrameworkConfig(consensus="solo"))
        cam = Client(framework, framework.register_source("p-cam", tier=SourceTier.TRUSTED))
        mob = Client(framework, framework.register_source("p-mob"))
        cam.submit(b"truth", dict(META),
                   observation=Observation("p-cam", timestamp=10.0, counts={"car": 4}, **JUNCTION))
        lie = Observation("p-mob", timestamp=12.0, counts={"truck": 9}, **JUNCTION)
        receipt = mob.submit(b"recorded but scored down", dict(META), observation=lie)
        assert receipt.ok  # permissive mode records and lets the score fall

    def test_ingest_passes_the_same_gate_as_submit(self, strict_env):
        """A contradicted item is refused by a batch ingest as by a submit:
        skipped and counted rejected, never stored, and scored down."""
        framework, cam, mob = strict_env
        cam.submit(b"truth", dict(META),
                   observation=Observation("s-cam", timestamp=10.0, counts={"car": 4}, **JUNCTION))
        ingestor = BatchIngestor(framework)
        for client in (mob, cam):
            ingestor.register(client.identity)
        before = framework.trust.score("s-mob")
        lie = Observation("s-mob", timestamp=12.0, counts={"truck": 9}, **JUNCTION)
        report = ingestor.ingest([
            IngestItem("s-mob", b"fabricated", dict(META), lie),
            IngestItem("s-cam", b"more truth", dict(META), None),
        ])
        assert (report.committed, report.rejected) == (1, 1)
        assert report.skipped_sources == ("s-mob",)
        assert cam.query("source_id = 's-mob'") == []
        assert framework.trust.score("s-mob") < before
