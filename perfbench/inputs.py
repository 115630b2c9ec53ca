"""Seeded workload inputs.

Every input the benchmark feeds the program is a pure function of the
``--seed`` argument and of the program's own catalogue (model, backend and
configuration names), so the same seed always yields the same requests and
the tests can pin them without importing the simulator.

The seed varies *which* points are asked and in what order, never how much
work a run holds: every seed gives the same number of points of each kind,
with the same step counts, so run-to-run spread measures the host and the
program, not the draw.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

#: PIM PLL multipliers a dse-sweep point may take on ``hetero-pim`` (the
#: paper studies 1x/2x/4x; the others probe between and below).
PLL_SCALES = (0.5, 1.5, 2.0, 3.0, 4.0)

#: PLL points per model in a dse-sweep.
PLL_POINTS_PER_MODEL = 2

#: Fault events per faulted dse-sweep point.
FAULT_EVENTS = 2

#: Training steps of every dse-sweep point (and of the serve-phase replays).
SWEEP_STEPS = 3

#: Models whose cold simulation takes milliseconds: the serve-mix hot set
#: comes from these, so simulation stays a small share.
SERVE_MODELS = (
    "alexnet", "dcgan", "embedrec", "gnn", "transformer", "vgg-19", "word2vec",
)

#: Configurations the serve-mix hot set cycles through, and the PLL scales
#: it draws from.
HOT_CONFIGS = ("hetero-pim", "gpu")
HOT_SCALES = (1.0, 2.0, 4.0)

#: The fresh requests of every serve stream: one design at seeded PLL
#: scales, so the daemon simulates each.  They are ~3% of a stream, so its
#: p99 falls among simulations of one cost, which take host CPU time,
#: rather than on one particular request, or, in paper-eval and dse-sweep,
#: among the first asks of cached points, which time the disk's writes.
FRESH_REQUEST = {"model": "alexnet", "config": "hetero-pim", "steps": 2}

SERVE_REQUESTS = 4000
SERVE_HOT = 14
SERVE_FRESH = 120
SERVE_STEPS = 2
#: Zipf exponent of the hot set's popularity.
ZIPF_S = 1.1

#: Asks of each point in the serve phase of paper-eval and dse-sweep (30
#: and 60 points: at least 1000 requests, so the p99 has at least ten
#: samples beyond it).
REPLAY_PER_POINT = 34

#: Fresh requests in those serve phases.
REPLAY_FRESH = 30

#: Models whose sweep points the dse-sweep serve phase asks (60 points).
REPLAY_MODELS = ("alexnet", "dcgan", "gnn", "resnet-50", "transformer",
                 "vgg-19")


def point_key(point: Dict[str, object]) -> str:
    """Stable, human-readable identity of one design point or request."""
    parts = [
        str(point["model"]),
        str(point.get("backend") or "hmc-hetero"),
        str(point.get("config") or "default"),
        f"steps={point.get('steps', SWEEP_STEPS)}",
        f"pll={float(point.get('frequency_scale', 1.0)):g}",
    ]
    faults = point.get("faults")
    if faults:
        parts.append(f"faults={faults['seed']}x{faults['events']}")
    return "/".join(parts)


def dse_points(
    seed: int,
    models: Sequence[str],
    catalogue: Dict[str, Tuple[str, Sequence[str]]],
) -> List[Dict[str, object]]:
    """The dse-sweep design points for ``seed``.

    ``catalogue`` maps each backend to ``(default configuration, all
    configurations)``.  The sweep holds every model on every (backend,
    configuration) pair, :data:`PLL_POINTS_PER_MODEL` PLL scales per model
    on ``hetero-pim``, and one faulted point per model on each backend's
    default configuration.  No two points share a fingerprint.
    """
    rng = random.Random(f"dse-sweep/{seed}")
    points: List[Dict[str, object]] = []
    for model in models:
        for backend in sorted(catalogue):
            _default, configs = catalogue[backend]
            for config in configs:
                points.append({
                    "model": model, "backend": backend, "config": config,
                    "steps": SWEEP_STEPS, "frequency_scale": 1.0,
                })
        for scale in rng.sample(PLL_SCALES, PLL_POINTS_PER_MODEL):
            points.append({
                "model": model, "backend": "hmc-hetero",
                "config": "hetero-pim", "steps": SWEEP_STEPS,
                "frequency_scale": scale,
            })
        for backend in sorted(catalogue):
            points.append({
                "model": model, "backend": backend,
                "config": catalogue[backend][0], "steps": SWEEP_STEPS,
                "frequency_scale": 1.0,
                "faults": {
                    "seed": rng.randrange(1, 2**31),
                    "events": FAULT_EVENTS,
                },
            })
    rng.shuffle(points)
    return points


def _fresh(rng: random.Random, count: int) -> List[Dict[str, object]]:
    """``count`` :data:`FRESH_REQUEST` requests at distinct seeded PLL
    scales, none of them a scale the hot set or a sweep uses."""
    scales = set()
    while len(scales) < count:
        scale = round(rng.uniform(0.5, 4.0), 4)
        if scale not in HOT_SCALES + PLL_SCALES:
            scales.add(scale)
    fresh = [dict(FRESH_REQUEST, frequency_scale=s) for s in sorted(scales)]
    rng.shuffle(fresh)
    return fresh


def _zipf_pick(rng: random.Random, n: int, count: int) -> List[int]:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]
    return rng.choices(range(n), weights=weights, k=count)


def serve_stream(seed: int) -> List[Dict[str, object]]:
    """The serve-mix request stream for ``seed``.

    :data:`SERVE_HOT` hot requests (every small model on the two
    :data:`HOT_CONFIGS`, at a seeded PLL scale) take heavy-tailed
    (Zipf) popularity under a seeded ranking; :data:`SERVE_FRESH` fresh
    requests (:func:`_fresh`), each asked once at a seeded position, need
    a simulation.  Every hot request is asked at least once.
    """
    rng = random.Random(f"serve-mix/{seed}")
    hot = []
    for i in range(SERVE_HOT):
        hot.append({
            "model": SERVE_MODELS[i % len(SERVE_MODELS)],
            "config": HOT_CONFIGS[(i // len(SERVE_MODELS)) % len(HOT_CONFIGS)],
            "steps": SERVE_STEPS,
            "frequency_scale": rng.choice(HOT_SCALES),
        })
    ranking = list(range(SERVE_HOT))
    rng.shuffle(ranking)
    n_hot = SERVE_REQUESTS - SERVE_FRESH
    picks = list(range(SERVE_HOT)) + _zipf_pick(
        rng, SERVE_HOT, n_hot - SERVE_HOT
    )
    rng.shuffle(picks)
    stream = [hot[ranking[rank]] for rank in picks]

    fresh = _fresh(rng, SERVE_FRESH)
    positions = sorted(rng.sample(range(SERVE_REQUESTS), len(fresh)))
    for position, request in zip(positions, fresh):
        stream.insert(position, request)
    return [dict(request) for request in stream]


def replay_stream(
    seed: int, points: Sequence[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Each of ``points`` asked :data:`REPLAY_PER_POINT` times, plus
    :data:`REPLAY_FRESH` fresh requests, in a seeded order."""
    rng = random.Random(f"replay/{seed}")
    stream = [dict(point) for point in points for _ in range(REPLAY_PER_POINT)]
    stream += _fresh(rng, REPLAY_FRESH)
    rng.shuffle(stream)
    return stream


def distinct(requests: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Distinct requests in order of first appearance."""
    seen = {}
    for request in requests:
        seen.setdefault(point_key(request), request)
    return list(seen.values())
