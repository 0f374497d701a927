"""Check that the traced run's counts repeat and that each workload keeps
its character.

    python3 bench/check_counts.py [--seconds 30] [--smoke]

Runs ``run.py --trace 1`` for every workload twice with seed 1 and once with
seed 2, each in a fresh process, then checks:

* every count-type per-layer metric (unit ``count/...`` or ``n3/op``) is
  identical across the two runs with the same seed;
* on both seeds, eigensolves per enclosure on ``enclose-disk`` are at least
  25 times those on ``enclose-large`` (the generic count), and the initial
  sweep is more than 90% of the eigensolves on ``enclose-large``.

Prints the per-call counts it compared and exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import sys

import run

SEED, OTHER_SEED = 1, 2
SHOWN = (
    "radius.eigensolves_per_call",
    "radius.sweep_eigensolves_per_call",
    "radius.refine_eigensolves_per_call",
    "radius.ascent_eigensolves_per_call",
    "radius.levels_per_call",
    "radius.ascent_steps_per_call",
    "bounds.radius_calls_per_draw",
)


def traced(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    done, result = run.run_child(workload, seed, seconds, 1, smoke)
    if result is None:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {done.returncode}")
    return result["metrics"]


def is_count(metric: dict) -> bool:
    return metric["unit"].startswith("count/") or metric["unit"] == "n3/op"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    runs = {}
    for w in run.WORKLOAD_NAMES:
        runs[w] = [traced(w, s, args.seconds, args.smoke) for s in (SEED, SEED, OTHER_SEED)]

    ok = True
    for w, (first, again, other) in runs.items():
        differ = [m for m, v in first.items() if is_count(v) and again[m]["value"] != v["value"]]
        print(f"{w}: counts repeat across two seed-{SEED} runs: {'yes' if not differ else 'NO'}")
        for m in differ:
            print(f"  {m}: {first[m]['value']!r} vs {again[m]['value']!r}")
        ok = ok and not differ
        for m in SHOWN:
            print(f"  {m:<38} seed {SEED}: {first[m]['value']:<12.6g}"
                  f" seed {OTHER_SEED}: {other[m]['value']:.6g}")

    for i, seed in ((0, SEED), (2, OTHER_SEED)):
        disk = runs["enclose-disk"][i]["radius.eigensolves_per_call"]["value"]
        large = runs["enclose-large"][i]
        generic = large["radius.eigensolves_per_call"]["value"]
        sweep = large["radius.sweep_eigensolves_per_call"]["value"] / generic
        ratio = disk / generic
        print(f"seed {seed}: disk/generic eigensolves per call {ratio:.1f} (need >= 25), "
              f"enclose-large sweep share {sweep:.3f} (need > 0.9)")
        ok = ok and ratio >= 25 and sweep > 0.9
    print("check_counts: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
