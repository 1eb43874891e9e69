"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/rep.py '<spec json>'

The spec names the config files, the master seed (null: the configs'
own), the worker count, whether to build the lag matrices cold before
timing, whether to trace, and an output directory.  The repetition

1. imports stableheat and parses every config (``RunConfig.parse``);
2. optionally runs ``calibrate_grid_error`` once at the config's grid,
   which builds the lag matrices cold, as every user invocation does;
3. times ``stableheat verify`` (``cli.main``) on each config in turn;

and writes ``rep.json`` (plus ``spans.json`` when tracing) to the output
directory.  Set-up ends, and the timed part starts, at the monotonic
time stored as ``setup_end``; the parent subtracts its spawn time.
"""

import json
import os
import resource
import sys
import time


def main(spec: dict) -> None:
    import_start = time.perf_counter()
    import stableheat
    from stableheat import cli, experiments

    import_end = time.perf_counter()
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.record("cli.import", import_start, import_end)
        tracing.install(tracer)

    out = spec["out"]
    seed = spec["seed"]
    configs = []
    for path in spec["configs"]:
        with open(path, encoding="utf-8") as fh:
            configs.append(cli.RunConfig.parse(json.load(fh), seed_override=seed))
    if spec["calibrate"]:
        cfg = configs[0]
        experiments.calibrate_grid_error(
            cfg.problem, cfg.grid, window_steps=cfg.solver_window_steps
        )
    setup_end = time.monotonic()

    exit_codes = []
    start = time.perf_counter()
    for path in spec["configs"]:
        label = os.path.splitext(os.path.basename(path))[0]
        argv = ["verify", "--config", path, "--out", os.path.join(out, label)]
        argv += ["--threads", str(spec["threads"])]
        if seed is not None:
            argv += ["--seed", str(seed)]
        exit_codes.append(cli.main(argv))
    wall_s = time.perf_counter() - start

    if tracer is not None:
        tracer.dump(os.path.join(out, "spans.json"))
    result = {
        "package": os.path.abspath(stableheat.__file__),
        "setup_end": setup_end,
        "wall_s": wall_s,
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(os.path.join(out, "rep.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
