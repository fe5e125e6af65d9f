"""Workload generators: seeded file-size sweeps and traffic ingestion
streams shared by the examples, benches, and ablations."""

from repro.workloads.filesizes import DEFAULT_SIZES, payload
from repro.workloads.traffic import IngestItem, ingest_stream

__all__ = ["DEFAULT_SIZES", "payload", "IngestItem", "ingest_stream"]
