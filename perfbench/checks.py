"""Output gates: every invocation's output must carry the pinned verdicts.

Summary records are checked field by field, so fields added later (metrics,
provenance) do not count as failures. For `verify`, every record after the
summary (witnesses, then classes) is also pinned by a SHA-256 digest; those
records do not depend on `--seed`.
"""

import hashlib
import json

H1_DIM = {2: 34, 3: 258, 4: 1538}

VERIFY_G2 = {
    "status": "ok",
    "classes_total": 11831,
    "witness_count": 81,
    "kernel_hits": [],
    "lemma.failures": [],
    "cover.h1_dim": 34,
}
VERIFY_G2_DIGEST = "094800155a3e8570f7e11ff2db8ab2ff675389e2b1f2074159881ebdf074c295"

SMOKE_G3 = {
    "status": "ok",
    "classes_total": 449,
    "classes_separating": 133,
    "witness_count": 6,
    "kernel_hits": [],
    "lemma.failures": [],
    "cover.h1_dim": 258,
}
SMOKE_G3_DIGEST = "72ad6843cb0eb98717cc5e67c6695862f981b5ca57042e5a430cfaafac543a2d"

LEMMA_G4 = {
    "status": "ok",
    "separating_checked": 39,
    "nonseparating_checked": 115,
    "lifts_per_class": 256,
    "failures": [],
}


def _field(record, dotted):
    value = record
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            raise KeyError(dotted)
        value = value[key]
    return value


def check_fields(record, expected):
    """Return None if every dotted field has its expected value, else why not."""
    for dotted, want in expected.items():
        try:
            got = _field(record, dotted)
        except KeyError:
            return "missing field %s" % dotted
        if got != want:
            return "field %s is %r, expected %r" % (dotted, got, want)
    return None


def check_summary_then_digest(text, expected, digest):
    """Gate a report whose first line is the summary and the rest is pinned."""
    head, sep, rest = text.partition("\n")
    try:
        summary = json.loads(head)
    except ValueError:
        return "first line is not JSON"
    if not isinstance(summary, dict) or summary.get("kind") != "summary":
        return "first record is not a summary"
    reason = check_fields(summary, expected)
    if reason is None and digest is not None:
        got = hashlib.sha256(rest.encode()).hexdigest()
        if got != digest:
            reason = "records after the summary have digest %s, expected %s" % (
                got,
                digest,
            )
    return reason


def check_info(text, genus):
    """Gate the `info --genus g` report used to time set-up."""
    try:
        (record,) = [json.loads(line) for line in text.splitlines()]
    except ValueError:
        return "info output is not one JSON record"
    if not isinstance(record, dict):
        return "info record is not an object"
    return check_fields(record, {"kind": "cover", "h1_dim": H1_DIM[genus]})
