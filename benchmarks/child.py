"""One benchmark child in a fresh interpreter.

    python3 child.py SRC PLAN RESULT [--trace] [--setup-only] [--env]

Times the import of intertwine plus building the CLI parser (setup_s), then
runs every CLI call of PLAN in order through intertwine.cli.main (run_s),
and writes setup_s, run_s, the peak RSS, each call's exit code, the trace
summary (with --trace) and the environment to RESULT as JSON.  Outputs are
checked by the parent, outside the timed part.
"""

import os
import sys
import time


def run_calls(cli, calls, tracer) -> tuple[float, list]:
    outcomes = []
    start = time.perf_counter()
    for i, argv in enumerate(calls):
        if tracer is not None:
            tracer.trace_id = i
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash fails this call's items; the run goes on
            import traceback

            rc = "raised: " + traceback.format_exc(limit=3)
        outcomes.append(rc)
    return time.perf_counter() - start, outcomes


def main() -> int:
    src, plan_path, result_path, *flags = sys.argv[1:]
    src = os.path.abspath(src)
    start = time.perf_counter()
    sys.path.insert(0, src)
    import intertwine.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    import json
    import resource

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported intertwine from {cli.__file__}, not from {src}")
    result = {"setup_s": setup_s}
    if "--setup-only" not in flags:
        with open(plan_path) as fh:
            calls = json.load(fh)
        tracer = None
        if "--trace" in flags:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        run_s, rcs = run_calls(cli, calls, tracer)
        result.update(
            run_s=run_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            rcs=rcs,
            trace=tracer.summary() if tracer is not None else None,
        )
    if "--env" in flags:
        import environment

        result["env"] = environment.describe()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
