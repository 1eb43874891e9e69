"""Byte-identity check of stableheat's outputs between two checkouts.

    python3 scripts/compare_outputs.py --before <checkout> --after <checkout> \
        [--config PATH ...]

Runs ``stableheat sample-noise``, ``solve`` and ``verify`` on every config,
each in a fresh interpreter with the checkout's ``src/`` on ``PYTHONPATH``,
once per checkout.  The configs are the after checkout's
``configs/*.json`` and ``perfbench/workloads/*.json`` (only read) and any
``--config``; both sides run the same file.  Every output file except the
wall-time sidecars ``*_timing.json`` is compared byte for byte.  Each file
that differs, or exists on one side only, is printed; so is each command
whose exit code differs.  A differing JSON or CSV file is printed with the
largest difference between its numbers, or else with the place where the
two layouts part or the place and both values of the first differing
non-number.  Exit 0 when everything is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("sample-noise", "solve", "verify")


def run(checkout: Path, command: str, config: Path, out: Path) -> int:
    """Exit code of ``stableheat <command>`` from ``checkout``, writing to ``out``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, "-m", "stableheat.cli", command,
           "--config", str(config), "--out", str(out)]
    return subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, check=False).returncode


def outputs(out: Path) -> set:
    """Relative paths of the files under ``out``, wall-time sidecars excluded."""
    if not out.is_dir():
        return set()
    return {
        p.relative_to(out).as_posix()
        for p in out.rglob("*")
        if p.is_file() and not p.name.endswith("_timing.json")
    }


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _load(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]


def _pairs(a, b, where=""):
    """The number pairs at matching places of two parsed files; ValueError,
    naming the place, where their layouts or any non-numbers differ."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            yield from _pairs(a[key], b[key], f"{where}.{key}" if where else str(key))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _pairs(x, y, f"{where}[{i}]")
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        yield a, b
    elif isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
        raise ValueError(f"layouts differ at {where or 'the root'}")
    elif a != b:
        raise ValueError(f"{where}: {a!r} -> {b!r}")


def largest_difference(before: Path, after: Path) -> str:
    if before.suffix not in (".json", ".csv"):
        return ""
    try:
        pairs = list(_pairs(_load(before), _load(after)))
    except ValueError as exc:
        return f" ({exc})"
    return f" (largest numeric difference {max((abs(x - y) for x, y in pairs), default=0.0):.3e})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, type=Path)
    parser.add_argument("--after", required=True, type=Path)
    parser.add_argument("--config", action="append", default=[], type=Path)
    args = parser.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    configs = [
        *sorted((sides["after"] / "configs").glob("*.json")),
        *sorted((sides["after"] / "perfbench" / "workloads").glob("*.json")),
        *(path.resolve() for path in args.config),
    ]
    for path in [*sides.values(), *configs]:
        if not path.exists():
            parser.error(f"{path} does not exist")

    compared = differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, config in enumerate(configs):
            for command in COMMANDS:
                label = f"{config.name} {command}"
                outs = {side: Path(tmp, side, str(i), command) for side in sides}
                codes = {side: run(sides[side], command, config, outs[side]) for side in sides}
                if codes["before"] != codes["after"]:
                    differ += 1
                    print(f"{label}: exit code {codes['before']} -> {codes['after']}")
                files = outputs(outs["before"]) | outputs(outs["after"])
                for name in sorted(files):
                    compared += 1
                    before, after = (outs[side] / name for side in sides)
                    if not (before.is_file() and after.is_file()):
                        differ += 1
                        print(f"{label}: {name} only {'before' if before.is_file() else 'after'}")
                    elif before.read_bytes() != after.read_bytes():
                        differ += 1
                        print(f"{label}: {name} differs{largest_difference(before, after)}")
    print(f"{len(configs)} configs, {compared} files compared, {differ} differences",
          file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
