"""Launch ``repro serve``, optionally with every layer wrapped for the traced run.

    python3 -u perfbench/serve.py [--spans FILE] -- serve --port 0 --max-active 2

Everything after ``--`` goes to the ``repro`` command line unchanged.  The
server runs pinned to one CPU (see ``worker.pin_to_one_cpu``).  With
``--spans`` the launcher installs the timing wrappers of ``tracing.py``
inside the server before it starts, and when the server stops (SIGINT)
writes the spans to FILE and the service's own counters
(``SolveService.stats()``, which include the session restarts that the
``status`` reply leaves out) to FILE with the suffix ``.stats.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import tracing
from worker import pin_to_one_cpu


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    repro_args = args.repro_args[1:] if args.repro_args[:1] == ["--"] else args.repro_args

    from repro.cli import main as repro_main

    pin_to_one_cpu()
    if args.spans is None:
        return repro_main(repro_args)

    from repro.service.service import SolveService

    tracer = tracing.Tracer()
    tracing.install(tracer)
    services = []
    service_init = SolveService.__init__

    @functools.wraps(service_init)
    def init(self, *init_args, **kwargs):
        service_init(self, *init_args, **kwargs)
        services.append(self)

    SolveService.__init__ = init
    try:
        return repro_main(repro_args)
    finally:
        tracer.dump(args.spans)
        stats = services[0].stats() if services else {}
        args.spans.with_suffix(".stats.json").write_text(json.dumps(stats, default=str))


if __name__ == "__main__":
    sys.exit(main())
