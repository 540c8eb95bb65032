"""Committed campaign measurements — GENERATED, do not edit by hand.

Regenerate with ``python tools/update_measured.py``, which runs the full
mutation campaign for every bundled corpus target (stores under
``examples/campaigns/``) and rewrites this module from the results.  The
``m*`` experiments read these measurements so that experiment runs stay
deterministic and dependency-free — no subprocess campaigns at
experiment time.

Each entry records the target's content hashes at measurement time; the
consistency test (``tests/mutation/test_measured.py``) fails when a
corpus program or its tests change without re-measuring.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import ModelError
from .estimators import DetectionData

__all__ = [
    "MEASURED",
    "measured_detection_data",
    "measured_target_names",
]

# target name -> campaign measurement (populated by tools/update_measured.py)

MEASURED: Dict[str, dict] = {
    'bsearch': {
        "n_tests": 9,
        "program_sha": 'cf1f7a30d89c8c2f',
        "tests_sha": 'e83ecc379cc08011',
        "mutants": [
            {"id": 'm000', "op": 'tweak-constant', "line": 11, "count": 4, "status": 'killed', "kills": (2, 4, 6, 7)},
            {"id": 'm001', "op": 'flip-compare', "line": 13, "count": 9, "status": 'timeout', "kills": (0, 1, 2, 3, 4, 5, 6, 7, 8)},
            {"id": 'm002', "op": 'flip-arith', "line": 14, "count": 9, "status": 'timeout', "kills": (0, 1, 2, 3, 4, 5, 6, 7, 8)},
            {"id": 'm003', "op": 'flip-arith', "line": 14, "count": 9, "status": 'timeout', "kills": (0, 1, 2, 3, 4, 5, 6, 7, 8)},
            {"id": 'm004', "op": 'tweak-constant', "line": 14, "count": 9, "status": 'timeout', "kills": (0, 1, 2, 3, 4, 5, 6, 7, 8)},
            {"id": 'm005', "op": 'flip-compare', "line": 15, "count": 5, "status": 'killed', "kills": (0, 1, 2, 4, 8)},
            {"id": 'm006', "op": 'flip-arith', "line": 16, "count": 9, "status": 'timeout', "kills": (0, 1, 2, 3, 4, 5, 6, 7, 8)},
            {"id": 'm007', "op": 'tweak-constant', "line": 16, "count": 5, "status": 'killed', "kills": (0, 1, 4, 5, 8)},
            {"id": 'm008', "op": 'flip-boolop', "line": 25, "count": 2, "status": 'killed', "kills": (0, 3)},
            {"id": 'm009', "op": 'flip-compare', "line": 25, "count": 1, "status": 'killed', "kills": (3,)},
            {"id": 'm010', "op": 'flip-compare', "line": 25, "count": 3, "status": 'killed', "kills": (0, 3, 4)},
            {"id": 'm011', "op": 'tweak-constant', "line": 27, "count": 1, "status": 'killed', "kills": (3,)},
            {"id": 'm012', "op": 'flip-compare', "line": 32, "count": 0, "status": 'survived', "kills": ()},
            {"id": 'm013', "op": 'tweak-constant', "line": 32, "count": 0, "status": 'survived', "kills": ()},
            {"id": 'm014', "op": 'flip-boolop', "line": 39, "count": 2, "status": 'killed', "kills": (1, 2)},
            {"id": 'm015', "op": 'flip-compare', "line": 39, "count": 2, "status": 'killed', "kills": (1, 2)},
            {"id": 'm016', "op": 'flip-compare', "line": 39, "count": 2, "status": 'killed', "kills": (1, 2)},
            {"id": 'm017', "op": 'flip-arith', "line": 40, "count": 2, "status": 'killed', "kills": (1, 2)},
            {"id": 'm018', "op": 'tweak-constant', "line": 40, "count": 2, "status": 'killed', "kills": (1, 2)},
            {"id": 'm019', "op": 'flip-arith', "line": 41, "count": 1, "status": 'killed', "kills": (1,)},
        ],
    },
    'leap': {
        "n_tests": 10,
        "program_sha": '864f3f5cdb5d64e6',
        "tests_sha": 'dea83eb66c423a16',
        "mutants": [
            {"id": 'm000', "op": 'tweak-constant', "line": 7, "count": 3, "status": 'killed', "kills": (1, 2, 8)},
            {"id": 'm001', "op": 'tweak-constant', "line": 7, "count": 4, "status": 'killed', "kills": (1, 2, 4, 6)},
            {"id": 'm002', "op": 'tweak-constant', "line": 7, "count": 1, "status": 'killed', "kills": (2,)},
            {"id": 'm003', "op": 'tweak-constant', "line": 7, "count": 2, "status": 'killed', "kills": (2, 8)},
            {"id": 'm004', "op": 'tweak-constant', "line": 7, "count": 1, "status": 'killed', "kills": (2,)},
            {"id": 'm005', "op": 'tweak-constant', "line": 7, "count": 1, "status": 'killed', "kills": (2,)},
            {"id": 'm006', "op": 'tweak-constant', "line": 7, "count": 1, "status": 'killed', "kills": (2,)},
            {"id": 'm007', "op": 'tweak-constant', "line": 7, "count": 1, "status": 'killed', "kills": (2,)},
            {"id": 'm008', "op": 'tweak-constant', "line": 7, "count": 1, "status": 'killed', "kills": (2,)},
            {"id": 'm009', "op": 'tweak-constant', "line": 7, "count": 1, "status": 'killed', "kills": (2,)},
            {"id": 'm010', "op": 'tweak-constant', "line": 7, "count": 1, "status": 'killed', "kills": (2,)},
            {"id": 'm011', "op": 'tweak-constant', "line": 7, "count": 1, "status": 'killed', "kills": (8,)},
            {"id": 'm012', "op": 'flip-compare', "line": 12, "count": 7, "status": 'killed', "kills": (0, 1, 2, 4, 5, 6, 7)},
            {"id": 'm013', "op": 'flip-arith', "line": 12, "count": 1, "status": 'killed', "kills": (0,)},
            {"id": 'm014', "op": 'tweak-constant', "line": 12, "count": 1, "status": 'killed', "kills": (0,)},
            {"id": 'm015', "op": 'tweak-constant', "line": 12, "count": 1, "status": 'killed', "kills": (0,)},
            {"id": 'm016', "op": 'tweak-constant', "line": 13, "count": 1, "status": 'killed', "kills": (0,)},
            {"id": 'm017', "op": 'flip-compare', "line": 14, "count": 6, "status": 'killed', "kills": (0, 1, 2, 5, 6, 7)},
            {"id": 'm018', "op": 'flip-arith', "line": 14, "count": 1, "status": 'killed', "kills": (0,)},
            {"id": 'm019', "op": 'tweak-constant', "line": 14, "count": 1, "status": 'killed', "kills": (0,)},
            {"id": 'm020', "op": 'tweak-constant', "line": 14, "count": 1, "status": 'killed', "kills": (0,)},
            {"id": 'm021', "op": 'tweak-constant', "line": 15, "count": 1, "status": 'killed', "kills": (0,)},
            {"id": 'm022', "op": 'flip-compare', "line": 16, "count": 6, "status": 'killed', "kills": (1, 2, 4, 5, 6, 7)},
            {"id": 'm023', "op": 'flip-arith', "line": 16, "count": 5, "status": 'killed', "kills": (1, 2, 5, 6, 7)},
            {"id": 'm024', "op": 'tweak-constant', "line": 16, "count": 5, "status": 'killed', "kills": (1, 2, 5, 6, 7)},
            {"id": 'm025', "op": 'tweak-constant', "line": 16, "count": 5, "status": 'killed', "kills": (1, 2, 5, 6, 7)},
            {"id": 'm026', "op": 'flip-boolop', "line": 21, "count": 1, "status": 'killed', "kills": (9,)},
            {"id": 'm027', "op": 'flip-compare', "line": 21, "count": 4, "status": 'killed', "kills": (1, 2, 3, 8)},
            {"id": 'm028', "op": 'tweak-constant', "line": 21, "count": 4, "status": 'killed', "kills": (1, 2, 3, 8)},
            {"id": 'm029', "op": 'flip-compare', "line": 21, "count": 2, "status": 'killed', "kills": (2, 8)},
            {"id": 'm030', "op": 'tweak-constant', "line": 21, "count": 1, "status": 'killed', "kills": (9,)},
            {"id": 'm031', "op": 'flip-arith', "line": 23, "count": 5, "status": 'killed', "kills": (1, 2, 4, 6, 8)},
            {"id": 'm032', "op": 'tweak-constant', "line": 23, "count": 5, "status": 'killed', "kills": (1, 2, 4, 6, 8)},
            {"id": 'm033', "op": 'flip-boolop', "line": 24, "count": 4, "status": 'killed', "kills": (1, 2, 4, 6)},
            {"id": 'm034', "op": 'flip-compare', "line": 24, "count": 2, "status": 'killed', "kills": (2, 6)},
            {"id": 'm035', "op": 'tweak-constant', "line": 24, "count": 2, "status": 'killed', "kills": (1, 6)},
            {"id": 'm036', "op": 'flip-arith', "line": 25, "count": 3, "status": 'killed', "kills": (1, 2, 6)},
            {"id": 'm037', "op": 'tweak-constant', "line": 25, "count": 3, "status": 'killed', "kills": (1, 2, 6)},
            {"id": 'm038', "op": 'flip-boolop', "line": 31, "count": 1, "status": 'killed', "kills": (4,)},
            {"id": 'm039', "op": 'flip-compare', "line": 31, "count": 2, "status": 'killed', "kills": (1, 3)},
            {"id": 'm040', "op": 'tweak-constant', "line": 31, "count": 2, "status": 'killed', "kills": (1, 3)},
            {"id": 'm041', "op": 'flip-compare', "line": 31, "count": 2, "status": 'killed', "kills": (2, 3)},
            {"id": 'm042', "op": 'tweak-constant', "line": 34, "count": 2, "status": 'killed', "kills": (1, 2)},
            {"id": 'm043', "op": 'flip-arith', "line": 35, "count": 2, "status": 'killed', "kills": (1, 2)},
            {"id": 'm044', "op": 'tweak-constant', "line": 42, "count": 1, "status": 'killed', "kills": (5,)},
            {"id": 'm045', "op": 'tweak-constant', "line": 43, "count": 1, "status": 'killed', "kills": (5,)},
        ],
    },
    'stats': {
        "n_tests": 11,
        "program_sha": 'e10a78f6bfb272db',
        "tests_sha": '0034b283168c86fb',
        "mutants": [
            {"id": 'm000', "op": 'drop-not', "line": 12, "count": 4, "status": 'killed', "kills": (0, 1, 8, 9)},
            {"id": 'm001', "op": 'tweak-constant', "line": 14, "count": 3, "status": 'killed', "kills": (0, 8, 9)},
            {"id": 'm002', "op": 'flip-arith', "line": 16, "count": 3, "status": 'killed', "kills": (0, 8, 9)},
            {"id": 'm003', "op": 'flip-arith', "line": 17, "count": 3, "status": 'killed', "kills": (0, 8, 9)},
            {"id": 'm004', "op": 'flip-compare', "line": 22, "count": 0, "status": 'survived', "kills": ()},
            {"id": 'm005', "op": 'tweak-constant', "line": 22, "count": 0, "status": 'survived', "kills": ()},
            {"id": 'm006', "op": 'tweak-constant', "line": 25, "count": 2, "status": 'killed', "kills": (8, 9)},
            {"id": 'm007', "op": 'flip-arith', "line": 27, "count": 2, "status": 'killed', "kills": (8, 9)},
            {"id": 'm008', "op": 'flip-arith', "line": 28, "count": 1, "status": 'killed', "kills": (9,)},
            {"id": 'm009', "op": 'flip-arith', "line": 28, "count": 2, "status": 'killed', "kills": (8, 9)},
            {"id": 'm010', "op": 'flip-arith', "line": 29, "count": 1, "status": 'killed', "kills": (9,)},
            {"id": 'm011', "op": 'flip-arith', "line": 29, "count": 1, "status": 'killed', "kills": (9,)},
            {"id": 'm012', "op": 'tweak-constant', "line": 29, "count": 1, "status": 'killed', "kills": (9,)},
            {"id": 'm013', "op": 'drop-not', "line": 34, "count": 4, "status": 'killed', "kills": (2, 3, 4, 5)},
            {"id": 'm014', "op": 'flip-arith', "line": 37, "count": 1, "status": 'killed', "kills": (5,)},
            {"id": 'm015', "op": 'tweak-constant', "line": 37, "count": 1, "status": 'killed', "kills": (3,)},
            {"id": 'm016', "op": 'flip-compare', "line": 38, "count": 2, "status": 'killed', "kills": (3, 4)},
            {"id": 'm017', "op": 'flip-arith', "line": 38, "count": 0, "status": 'survived', "kills": ()},
            {"id": 'm018', "op": 'tweak-constant', "line": 38, "count": 2, "status": 'killed', "kills": (3, 4)},
            {"id": 'm019', "op": 'tweak-constant', "line": 38, "count": 1, "status": 'killed', "kills": (4,)},
            {"id": 'm020', "op": 'flip-arith', "line": 40, "count": 1, "status": 'killed', "kills": (3,)},
            {"id": 'm021', "op": 'flip-arith', "line": 40, "count": 1, "status": 'killed', "kills": (3,)},
            {"id": 'm022', "op": 'flip-arith', "line": 40, "count": 1, "status": 'killed', "kills": (3,)},
            {"id": 'm023', "op": 'tweak-constant', "line": 40, "count": 1, "status": 'killed', "kills": (3,)},
            {"id": 'm024', "op": 'tweak-constant', "line": 40, "count": 1, "status": 'killed', "kills": (3,)},
            {"id": 'm025', "op": 'drop-not', "line": 45, "count": 1, "status": 'killed', "kills": (6,)},
            {"id": 'm026', "op": 'flip-arith', "line": 47, "count": 1, "status": 'killed', "kills": (6,)},
        ],
    },
    'triangle': {
        "n_tests": 11,
        "program_sha": '50e7420d7efb1a5d',
        "tests_sha": 'c75a41f4087f0a28',
        "mutants": [
            {"id": 'm000', "op": 'flip-compare', "line": 18, "count": 0, "status": 'survived', "kills": ()},
            {"id": 'm001', "op": 'tweak-constant', "line": 18, "count": 0, "status": 'survived', "kills": ()},
            {"id": 'm002', "op": 'tweak-constant', "line": 18, "count": 0, "status": 'survived', "kills": ()},
            {"id": 'm003', "op": 'flip-compare', "line": 20, "count": 1, "status": 'killed', "kills": (9,)},
            {"id": 'm004', "op": 'flip-arith', "line": 20, "count": 6, "status": 'killed', "kills": (0, 2, 4, 7, 8, 9)},
            {"id": 'm005', "op": 'tweak-constant', "line": 20, "count": 1, "status": 'killed', "kills": (9,)},
            {"id": 'm006', "op": 'tweak-constant', "line": 20, "count": 3, "status": 'killed', "kills": (1, 5, 9)},
            {"id": 'm007', "op": 'tweak-constant', "line": 20, "count": 9, "status": 'killed', "kills": (0, 1, 2, 3, 4, 5, 7, 8, 9)},
            {"id": 'm008', "op": 'flip-boolop', "line": 22, "count": 2, "status": 'killed', "kills": (2, 9)},
            {"id": 'm009', "op": 'flip-compare', "line": 22, "count": 2, "status": 'killed', "kills": (0, 2)},
            {"id": 'm010', "op": 'flip-compare', "line": 22, "count": 3, "status": 'killed', "kills": (0, 2, 9)},
            {"id": 'm011', "op": 'flip-boolop', "line": 24, "count": 2, "status": 'killed', "kills": (2, 9)},
            {"id": 'm012', "op": 'flip-compare', "line": 24, "count": 3, "status": 'killed', "kills": (2, 8, 9)},
            {"id": 'm013', "op": 'flip-compare', "line": 24, "count": 2, "status": 'killed', "kills": (2, 8)},
            {"id": 'm014', "op": 'flip-compare', "line": 24, "count": 2, "status": 'killed', "kills": (2, 8)},
            {"id": 'm015', "op": 'flip-compare', "line": 31, "count": 2, "status": 'killed', "kills": (4, 5)},
            {"id": 'm016', "op": 'flip-arith', "line": 33, "count": 1, "status": 'killed', "kills": (4,)},
            {"id": 'm017', "op": 'flip-arith', "line": 33, "count": 1, "status": 'killed', "kills": (4,)},
            {"id": 'm018', "op": 'flip-compare', "line": 38, "count": 1, "status": 'killed', "kills": (7,)},
            {"id": 'm019', "op": 'tweak-constant', "line": 39, "count": 1, "status": 'killed', "kills": (6,)},
            {"id": 'm020', "op": 'flip-compare', "line": 41, "count": 2, "status": 'killed', "kills": (3, 7)},
            {"id": 'm021', "op": 'flip-arith', "line": 41, "count": 1, "status": 'killed', "kills": (7,)},
            {"id": 'm022', "op": 'flip-arith', "line": 41, "count": 1, "status": 'killed', "kills": (7,)},
            {"id": 'm023', "op": 'flip-arith', "line": 41, "count": 1, "status": 'killed', "kills": (7,)},
            {"id": 'm024', "op": 'flip-arith', "line": 41, "count": 1, "status": 'killed', "kills": (7,)},
        ],
    },
}

def measured_target_names() -> List[str]:
    """Bundled targets with committed measurements, sorted."""
    return sorted(MEASURED)


def measured_detection_data(target: str) -> DetectionData:
    """The committed :class:`DetectionData` for one bundled target."""
    try:
        entry = MEASURED[target]
    except KeyError:
        known = ", ".join(measured_target_names()) or "<none>"
        raise ModelError(
            f"no committed measurement for target {target!r} (known: {known})"
        ) from None
    mutants = entry["mutants"]
    return DetectionData(
        counts=tuple(int(m["count"]) for m in mutants),
        n_tests=int(entry["n_tests"]),
        labels=tuple(str(m["id"]) for m in mutants),
    )
