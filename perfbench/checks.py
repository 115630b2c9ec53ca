"""Output checks and statistics of the benchmark.

Each check returns a list of problems (empty when the output is correct)
and reports a problem when it was given nothing to check, so no check can
pass vacuously.  The references are made apart from the program under
test (a separate process and cache, the cold answer of the same run) or
are properties the method must have (:mod:`repro.validate.invariants`).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Mapping, Optional, Sequence

#: The one failure the dse-sweep expects: faulted points on gradpim's
#: 16-bank stack, which the fault injector lays out on the default 4x8
#: grid (``repro.faults.injector.FaultInjector.__init__``).
EXPECTED_FAILURE = ("gradpim", "HardwareConfigError", "grid 4x8 != 16 banks")

#: Fewest samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def tail_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile of ``samples``, or ``None`` when fewer
    than :data:`TAIL_SAMPLES` samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def check_bodies(
    responses: Sequence[tuple], references: Mapping[str, bytes]
) -> List[str]:
    """Every ``(key, status, body)`` response is a 200 whose body equals
    the reference bytes for its key."""
    problems: List[str] = []
    if not responses:
        return ["no responses to check"]
    for key, status, body in responses:
        if status != 200:
            problems.append(f"{key}: status {status}")
        elif key not in references:
            problems.append(f"{key}: no reference body")
        elif body != references[key]:
            problems.append(f"{key}: served body differs from the reference")
    return problems


def check_same_bodies(responses: Sequence[tuple]) -> List[str]:
    """Every response for one key is a 200 with the same bytes."""
    first: Dict[str, bytes] = {}
    problems: List[str] = []
    if not responses:
        return ["no responses to check"]
    for key, status, body in responses:
        if status != 200:
            problems.append(f"{key}: status {status}")
            continue
        if first.setdefault(key, body) != body:
            problems.append(f"{key}: two different bodies for one request")
    return problems


def check_same_output(name: str, reference: str, other: str) -> List[str]:
    """``other`` is byte-identical to the non-empty ``reference``."""
    if not reference.strip():
        return [f"{name}: reference output is empty"]
    if other != reference:
        return [f"{name}: output differs from the cold run"]
    return []


def check_invariants(results: Sequence[dict]) -> List[str]:
    """Every result dict passes ``repro.validate.invariants.check_result``."""
    from repro.errors import InvariantViolation
    from repro.sim.results import RunResult
    from repro.validate.invariants import check_result

    if not results:
        return ["no results to check"]
    problems: List[str] = []
    for data in results:
        try:
            check_result(RunResult.from_dict(data))
        except InvariantViolation as exc:
            problems.append(
                f"{data.get('model_name')}/{data.get('config_name')}: {exc}"
            )
    return problems


def check_sweep(
    plan: Sequence[dict], cold: Sequence[dict], warm: Sequence[dict]
) -> List[str]:
    """dse-sweep records against the plan, cold against warm.

    * the only failures are faulted gradpim points, each with the
      :data:`EXPECTED_FAILURE` error;
    * each warm record equals its cold record field for field;
    * every faulted result completed all its steps with a fault log.
    """
    problems: List[str] = []
    if not plan:
        return ["empty plan"]
    by_key = {point["key"]: point for point in plan}
    if [r["key"] for r in cold] != [p["key"] for p in plan]:
        problems.append("cold records do not match the plan")
    if [r["key"] for r in warm] != [r["key"] for r in cold]:
        problems.append("warm records do not match the cold ones")
    backend, error, message = EXPECTED_FAILURE
    for record in cold:
        point = by_key.get(record["key"], {})
        expect_failure = bool(point.get("faults")) and point.get(
            "backend"
        ) == backend
        if not record["ok"]:
            if not expect_failure or record.get("error") != error or (
                message not in record.get("message", "")
            ):
                problems.append(
                    f"{record['key']}: unexpected failure "
                    f"{record.get('error')}: {record.get('message')}"
                )
            continue
        if expect_failure:
            problems.append(f"{record['key']}: expected {error}, got a result")
        result = record["result"]
        if result["steps"] != point.get("steps"):
            problems.append(f"{record['key']}: ran {result['steps']} steps")
        if point.get("faults"):
            log = result.get("faults") or {}
            if not log.get("events"):
                problems.append(f"{record['key']}: empty fault log")
    for cold_record, warm_record in zip(cold, warm):
        if cold_record != warm_record:
            problems.append(
                f"{cold_record['key']}: warm record differs from cold"
            )
    return problems


def failed_count(records: Sequence[dict]) -> int:
    return sum(1 for record in records if not record["ok"])
