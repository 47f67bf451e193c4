"""`fistab stability-scan`: where a window of decompositions stabilizes."""

from __future__ import annotations

from .. import fi_analysis
from . import _load_json


def run(args):
    payload = _load_json(args, "entries")
    seq = fi_analysis.FISequence.decompositions_from_mapping(payload)
    report = fi_analysis.detect_stability(seq)
    return report.to_mapping()
