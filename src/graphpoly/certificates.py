"""Self-contained, re-checkable certificates for AT and choosability bounds.

Every certificate is a JSON-able dict with a "kind" field and a "digest"
over its canonical serialization, so any single-field tampering is
detectable before the mathematical re-verification even starts.  Big
integers are always serialized as decimal strings.

Kinds:
  coefficient  - a nonzero monomial witness (possibly from an exhaustive scan)
  trace        - nonzero transfer-matrix trace for a product with an even cycle
  orientation  - an orientation without odd directed cycles
  prop_cover   - cycle-cover-plus-doubling pipeline for products with even cycles
  fplan        - sign-search plan certifying f-choosability of such products
  chain        - certificate chain for products of several cycles
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .graphio import canonical_json

CERTIFICATE_KINDS = (
    "coefficient",
    "trace",
    "orientation",
    "prop_cover",
    "fplan",
    "chain",
)


def certificate_digest(cert: dict) -> str:
    body = {k: v for k, v in cert.items() if k != "digest"}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def finalize_certificate(cert: dict) -> dict:
    """Attach the tamper-evidence digest; returns the same dict."""
    if cert.get("kind") not in CERTIFICATE_KINDS:
        raise ValueError(f"unknown certificate kind {cert.get('kind')!r}")
    cert["digest"] = certificate_digest(cert)
    return cert


def encode_int(value: int) -> str:
    return str(int(value))


def decode_int(text) -> int:
    return int(text)


@dataclass
class CheckResult:
    """Outcome of re-verifying a certificate."""

    ok: bool
    kind: str
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.ok = False
        self.errors.append(msg)


def check_certificate(cert: dict, *, budget: Optional[int] = None) -> CheckResult:
    """Re-verify a certificate of any kind from scratch.

    Checks the digest first (any mutated field fails here), then re-runs
    the mathematics the certificate claims.  Every stated coefficient and
    trace is recomputed under the budget; BudgetExceededError propagates
    when it runs out.
    """
    # Local import: the verifiers need every engine, while the engines only
    # need the lightweight helpers above.
    from . import verify as _verify

    return _verify.verify(cert, budget=budget)
