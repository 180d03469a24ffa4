#!/usr/bin/env python3
"""Compares two benchmark result records written by perfbench/run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Each record carries the box fingerprint of the run (core count, SIMD
backend, compiler, build type, source revision).  Results from different
boxes are printed side by side but never compared: the script then exits
with status 3 and prints no ratios.  Otherwise it prints, per metric, both
values, NEW/BASE and whether the change goes in the metric's better
direction as declared in BENCHMARK.json.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOX_KEYS = ("cores", "isa", "compiler", "build_type")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            sys.exit(f"compare.py: {key} differs: {base[key]} vs {new[key]}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bm, nm = base["result"]["metrics"], new["result"]["metrics"]
    same_box = all(base["box"].get(k) == new["box"].get(k) for k in BOX_KEYS)
    print(f"workload {base['workload']}, seeds {base['seed']} -> {new['seed']}")
    print(f"base box: {base['box']}\nnew box:  {new['box']}")
    if not same_box:
        for name in sorted(set(bm) | set(nm)):
            print(f"{name:34s} {bm.get(name, {}).get('value')!s:>14} "
                  f"{nm.get(name, {}).get('value')!s:>14}")
        print("different boxes: reported, not compared")
        sys.exit(3)
    for name in sorted(set(bm) & set(nm)):
        b, n = bm[name]["value"], nm[name]["value"]
        ratio = n / b if b else float("nan")
        verdict = ""
        if b and n != b and name in better:
            up = n > b
            verdict = "better" if up == (better[name] == "higher") else "worse"
        print(f"{name:34s} {b:14.6g} {n:14.6g} {ratio:8.3f}x {verdict}")


if __name__ == "__main__":
    main()
