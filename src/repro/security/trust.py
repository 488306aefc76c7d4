"""Per-client trust policies (§4).

    "Before a client will consider a signed statement to be valid, the key
    certificate must itself be signed by a party whom that client trusts
    for that particular purpose. In general, each client or service may
    determine its own requirements for which parties to trust for which
    purposes."

A :class:`TrustPolicy` maps purposes ("grant-access", "certify-user",
"sign-code", ...) to the set of issuer URIs trusted for that purpose,
with the issuers' own keys pinned out of band (the paper's "user exposes
his public key only to a single trusted host").
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.security.certificates import Certificate, verify_certificate
from repro.security.keys import PublicKey


class TrustPolicy:
    """Who this principal trusts, for which purposes."""

    def __init__(self) -> None:
        self._anchors: Dict[str, PublicKey] = {}  # issuer URI -> pinned key
        self._purposes: Dict[str, Set[str]] = {}  # purpose -> issuer URIs

    # -- configuration ----------------------------------------------------
    def pin_key(self, issuer_uri: str, key: PublicKey) -> None:
        """Pin an issuer's public key (out-of-band trust anchor)."""
        self._anchors[issuer_uri] = key

    def trust(self, issuer_uri: str, purpose: str) -> None:
        """Trust *issuer_uri* to sign statements for *purpose*."""
        self._purposes.setdefault(purpose, set()).add(issuer_uri)

    def revoke(self, issuer_uri: str) -> None:
        """Stop trusting an issuer for every purpose, and unpin its key."""
        for issuers in self._purposes.values():
            issuers.discard(issuer_uri)
        self._anchors.pop(issuer_uri, None)

    # -- queries ------------------------------------------------------------
    def anchor_key(self, issuer_uri: str) -> Optional[PublicKey]:
        return self._anchors.get(issuer_uri)

    def trusts(self, issuer_uri: str, purpose: str) -> bool:
        return issuer_uri in self._purposes.get(purpose, set())

    def validate_certificate(self, cert: Certificate, purpose: str) -> bool:
        """Full §4 check: trusted issuer for this purpose + intact signature."""
        if not self.trusts(cert.issuer, purpose):
            return False
        key = self._anchors.get(cert.issuer)
        if key is None:
            return False
        return verify_certificate(cert, key)
