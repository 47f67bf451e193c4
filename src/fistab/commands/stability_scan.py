"""`fistab stability-scan`: where a window of decompositions stabilizes."""

from __future__ import annotations

from .. import fi_analysis, tables
from .inputs import load_json


def run(args):
    entries = tables.sequence(load_json(args, "entries"), tables.decomposition)
    seq = fi_analysis.FISequence(entries)
    report = fi_analysis.detect_stability(seq)
    return report.to_mapping()
