#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload archive-bulk --seed 1 --seconds 10 --trace 0

Builds the benchmark (its own cargo workspace in this directory) and the
`lc` binary from source into $CARGO_TARGET_DIR (default `.bench_build`),
then runs the benchmark binary with the given arguments. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero without a result when a build fails, and
non-zero when a check fails or the result does not hold exactly the
metrics `BENCHMARK.json` lists for the mode (`end_to_end` for
`--trace 0`, `per_layer` for `--trace 1`), each in its unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def manifest_problems(line, trace):
    """What is wrong with the result `line` against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    try:
        got = json.loads(line)["metrics"]
    except (ValueError, KeyError, TypeError):
        return ["the last line is not a result"]
    want = {m["name"]: m["unit"] for m in spec}
    problems = [f"missing {n}" for n in want if n not in got]
    problems += [f"unlisted {n}" for n in got if n not in want]
    problems += [f"{n} in {got[n].get('unit')}, not {u}"
                 for n, u in want.items() if n in got and got[n].get("unit") != u]
    return problems


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not (build(env, os.path.join(HERE, "Cargo.toml"))
            and build(env, os.path.join(ROOT, "Cargo.toml"), "-p", "lc-cli", "--bin", "lc")):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--lc", os.path.join(release, "lc")]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    lines = done.stdout.splitlines()
    trace = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1:][:1] == ["1"]
    problems = manifest_problems(lines[-1] if lines else "", trace)
    for p in problems:
        print(f"perfbench: result does not match BENCHMARK.json: {p}", file=sys.stderr)
    if done.returncode == 0 and problems:
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
