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

CERTIFICATE_KINDS lists the kinds, here and nowhere else: finalize_certificate
refuses any other, and verify builds its table from the tuple, one
_verify_<kind> checker per entry.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Optional

from .graphio import canonical_json, graph_json
from .graphs import SignedMultigraph

CERTIFICATE_KINDS = (
    "coefficient",
    "trace",
    "orientation",
    "prop_cover",
    "fplan",
    "chain",
)


def certificate_json(cert: dict, graph: Optional[SignedMultigraph] = None) -> str:
    """canonical_json(cert).  With graph, whose to_json_obj cert["graph"] must be, the text is
    joined from each key's canonical_json in key order, the graph's being graph_json(graph), so
    one serialisation of the graph serves its digest, the certificate's and the file."""
    if graph is None or not all(type(k) is str for k in cert):
        return canonical_json(cert)
    parts = sorted((k, graph_json(graph) if k == "graph" else canonical_json(v)) for k, v in cert.items())
    return "{" + ",".join(f"{canonical_json(k)}:{text}" for k, text in parts) + "}"


def certificate_digest(cert: dict, graph: Optional[SignedMultigraph] = None) -> str:
    body = {k: v for k, v in cert.items() if k != "digest"}
    return hashlib.sha256(certificate_json(body, graph).encode()).hexdigest()


def finalize_certificate(cert: dict, graph: Optional[SignedMultigraph] = None) -> dict:
    """Attach the tamper-evidence digest; returns the same dict.  graph is as in certificate_json."""
    if cert.get("kind") not in CERTIFICATE_KINDS:
        raise ValueError(f"unknown certificate kind {cert.get('kind')!r}")
    cert["digest"] = certificate_digest(cert, graph)
    return cert


# Python refuses int <-> str conversions past sys.get_int_max_str_digits()
# digits, a limit no process can set below this many: longer values are
# converted in pieces of at most this length, whatever the limit.
_PIECE_DIGITS = 640
_PIECE = 10**_PIECE_DIGITS


def encode_int(value: int) -> str:
    """value in decimal, of any length."""
    value = int(value)
    if value < 0:
        return "-" + encode_int(-value)
    if value < _PIECE:
        return str(value)
    low = value.bit_length() * 3 // 20  # about half its digits
    high, rest = divmod(value, 10**low)
    return encode_int(high) + encode_int(rest).zfill(low)


def decode_int(text) -> int:
    """The int of a decimal string of any length, or a JSON integer (not a bool) itself."""
    if type(text) not in (int, str):
        raise TypeError(f"expected a decimal string, got {text!r}")
    if type(text) is int or len(text) <= _PIECE_DIGITS:
        return int(text)
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not a decimal integer: {text[:20]}...")
    if text[0] == "-":
        return -decode_int(text[1:])
    low = len(text) // 2
    return decode_int(text[:-low]) * 10**low + decode_int(text[-low:])


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
