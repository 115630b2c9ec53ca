"""Entry point of the benchmark's child interpreters.

    python perfbench/child.py [--trace OUT.json] cli ARGS...
    python perfbench/child.py [--trace OUT.json] sweep PLAN.json OUT.jsonl

``cli`` runs ``repro.cli.main(ARGS)`` — the same code as ``python -m repro
ARGS``.  Both modes first import their entry module (``repro.cli`` /
``repro.api``) and report the seconds it took on stderr.  ``sweep`` asks every design point of PLAN.json through
``repro.api.simulate`` and writes one JSON record per point: the result, or
the error the program raised.  With ``--trace``, the layers of ``repro`` are
wrapped in spans (:mod:`layers`) before the work starts, and their totals
are written to OUT.json when it ends.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, Optional

#: Stderr line giving the seconds the entry module took to import.
SETUP_MARK = "perfbench-setup"


def _fault_spec(api, point: Dict[str, object]):
    """The seeded FaultSpec of a faulted point, over the makespan of the
    same point without faults."""
    from repro.faults import FaultSpec

    baseline = api.simulate(
        point["model"], point["config"], point["steps"],
        backend=point["backend"],
    )
    system, _policy = api.resolve_configuration(
        point["config"], backend=point["backend"]
    )
    return FaultSpec.generate(
        seed=point["faults"]["seed"],
        horizon_s=baseline.result.makespan_s,
        n_events=point["faults"]["events"],
        banks=system.stack.banks,
        pool_units=system.fixed_pim.n_units,
        prog_pims=system.prog_pim.n_pims,
    )


def sweep(plan_path: str, out_path: str) -> int:
    from repro import api

    plan = json.loads(open(plan_path).read())
    with open(out_path, "w") as out:
        for point in plan:
            record: Dict[str, object] = {"key": point["key"]}
            try:
                faults = _fault_spec(api, point) if point.get("faults") else None
                report = api.simulate(
                    point["model"], point["config"], point["steps"],
                    frequency_scale=point["frequency_scale"],
                    backend=point["backend"],
                    faults=faults,
                )
            except Exception as exc:  # recorded and judged by the benchmark
                record.update(ok=False, error=type(exc).__name__,
                              message=str(exc))
            else:
                record.update(ok=True, result=report.result.to_dict())
            out.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def main(argv) -> int:
    trace_out: Optional[str] = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    started = time.perf_counter()
    if argv[0] == "cli":
        import repro.cli  # noqa: F401
    else:
        import repro.api  # noqa: F401
    print(f"{SETUP_MARK} {time.perf_counter() - started!r}", file=sys.stderr)
    tracer = None
    if trace_out is not None:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    try:
        if argv[0] == "cli":
            from repro.cli import main as cli_main

            return cli_main(argv[1:])
        if argv[0] == "sweep":
            return sweep(argv[1], argv[2])
        print(f"unknown child mode {argv[0]!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            layers.dump(tracer, trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
