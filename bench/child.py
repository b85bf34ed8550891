"""One benchmark command in a fresh process.

Usage: child.py INFO_JSON RUN_ID SPANS_FILE|- BCOSLAB_ARGS...

Imports bcoslab, optionally installs the tracer (when SPANS_FILE is not
``-``), then does the CLI's set-up once (``cli.load_config`` and the
``build_*`` calls) and stamps the monotonic clock: the time from process
start to that stamp is the command's set-up time. It then runs
``cli.main(BCOSLAB_ARGS)`` and, whether or not that succeeds, writes the
stamp and the peak resident memory to INFO_JSON and the spans to SPANS_FILE.
CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract its own
spawn stamp from ours.
"""

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """This process's own peak resident memory. VmHWM belongs to the memory
    map made at exec; ru_maxrss would also count the parent's peak from
    before the exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    info_path, run_id, spans_path, *cli_args = sys.argv[1:]
    import bcoslab.cli as cli

    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer(int(run_id))
        tracer.install()
    cfg = cli.load_config(cli_args[cli_args.index("--config") + 1])
    cli.build_problem(cfg)
    cli.build_optimizer(cfg)
    cli.build_schedule(cfg)
    ready = time.monotonic()
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
        with open(info_path, "w", encoding="utf-8") as fh:
            json.dump({"ready": ready, "peak_rss_kb": peak_rss_kb()}, fh)


if __name__ == "__main__":
    sys.exit(main())
