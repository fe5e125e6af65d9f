"""The paper's chaincodes (§III-B): admin enrollment, user registration,
data upload/retrieval, hash-chained provenance, and
on-chain trust scores."""

from repro.chaincodes.access import AccessControlChaincode
from repro.chaincodes.admin import AdminEnrollmentChaincode
from repro.chaincodes.data import DataRetrievalChaincode, DataUploadChaincode
from repro.chaincodes.provenance import GENESIS_HASH, ProvenanceChaincode
from repro.chaincodes.registry import UserRegistrationChaincode
from repro.chaincodes.trust_cc import TrustScoreChaincode

__all__ = [
    "AccessControlChaincode",
    "AdminEnrollmentChaincode",
    "DataRetrievalChaincode",
    "DataUploadChaincode",
    "GENESIS_HASH",
    "ProvenanceChaincode",
    "UserRegistrationChaincode",
    "TrustScoreChaincode",
]
