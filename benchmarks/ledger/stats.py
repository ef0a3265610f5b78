"""Order statistics and the regression rule of the perf ledger.

Kept free of any ``repro`` import so ``run.py --compare`` works on two
JSON documents alone.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

__all__ = ["median", "percentile", "spread", "verdict", "compare"]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median.

    The distance between the first and third quartile
    (``statistics.quantiles(n=4)``) when there are at least four runs,
    the full range for two or three, and 0 for a single run (one run
    carries no spread information).
    """
    if len(values) < 2:
        return 0.0
    mid = median(values)
    if mid == 0:
        return 0.0 if max(values) == min(values) else float("inf")
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return abs((q3 - q1) / mid)
    return abs((max(values) - min(values)) / mid)


def verdict(base: List[float], new: List[float], *, better: str,
            bound: float) -> Dict:
    """Judge one (workload, metric) pair: ``new`` against ``base``.

    ``bound`` is the share of the base median by which the metric may
    get worse; 0 means any worsening is a regression.  Where either
    side's own spread is wider than the bound the pair is *unresolved*
    rather than unchanged — the runs cannot tell.
    """
    a, b = median(base), median(new)
    # Positive = worse, as a share of the base; a base of 0 (a clean
    # ``failed_share``) makes any worsening infinitely worse.
    delta = (b - a) if better == "lower" else (a - b)
    if a != 0:
        worse = delta / abs(a)
    else:
        worse = math.copysign(math.inf, delta) if delta else 0.0
    wide = max(spread(base), spread(new))
    if bound > 0 and wide > bound:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    elif worse < -bound:
        word = "improved"
    else:
        word = "unchanged"
    return {
        "verdict": word,
        "base": a,
        "new": b,
        "ratio": (b / a) if a else None,
        "worse_by": worse,
        "spread": wide,
        "bound": bound,
    }


def compare(doc_a: Dict, doc_b: Dict) -> List[Dict]:
    """Every (workload, end-to-end metric) verdict of B against A.

    The bounds and directions are read from A (the base document), so a
    comparison is always held to the contract its baseline was recorded
    under.
    """
    rows: List[Dict] = []
    contract = {m["name"]: m for m in doc_a["contract"]["end_to_end"]}
    for workload, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(workload)
        for name, spec in contract.items():
            if wb is None or name not in wb["end_to_end"] \
                    or name not in wa["end_to_end"]:
                rows.append({"workload": workload, "metric": name,
                             "verdict": "missing"})
                continue
            row = verdict(
                wa["end_to_end"][name]["values"],
                wb["end_to_end"][name]["values"],
                better=spec["better"], bound=spec["bound"],
            )
            row.update(workload=workload, metric=name,
                       unit=spec["unit"])
            rows.append(row)
    return rows
