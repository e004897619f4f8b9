"""Compare two cyclosim metrics files key by key.

    python tools/metrics_diff.py OLD NEW [--rtol 1e-9]

A metrics file holds one ``key = value`` line per metric, as ``cyclosim
simulate`` writes it.  A numeric value is compared by its relative shift
``|new - old| / max(|old|, |new|)`` (zero when both are equal, NaN equal to
NaN); any other value, such as ``true`` or a transition line, must match
exactly, and every key must be in both files.

The script prints the largest relative shift with its key and both values,
then every changed non-numeric key and every key found in one file only.
It exits with 1 when the largest shift is above ``--rtol`` or any such key
is listed, and with 0 otherwise.
"""

from __future__ import annotations

import argparse
import math
import sys


def read_metrics(path) -> dict:
    """The ``key = value`` lines of a metrics file, values as strings."""
    metrics = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                key, sep, value = line.partition(" = ")
                if not sep:
                    raise ValueError(f"{path}: not a 'key = value' line: {line.rstrip()!r}")
                metrics[key.strip()] = value.strip()
    return metrics


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def relative_shift(old: float, new: float) -> float:
    """``|new - old| / max(|old|, |new|)``; 0 for equal values (NaN too)."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    scale = max(abs(old), abs(new))
    if math.isinf(scale) or math.isnan(scale):
        return math.inf
    return abs(new - old) / scale


def compare(old: dict, new: dict):
    """``(largest, changed)``: the largest numeric shift as ``(shift, key)``
    (``(0.0, None)`` when no numeric key is shared) and the sorted list of
    keys whose non-numeric value changed or that one file lacks."""
    largest = (0.0, None)
    changed = sorted(set(old) ^ set(new))
    for key in old.keys() & new.keys():
        a, b = _number(old[key]), _number(new[key])
        if a is None or b is None:
            if old[key] != new[key]:
                changed.append(key)
            continue
        shift = relative_shift(a, b)
        if largest[1] is None or shift > largest[0]:
            largest = (shift, key)
    return largest, sorted(changed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="metrics file of the reference run")
    parser.add_argument("new", help="metrics file of the run to check")
    parser.add_argument("--rtol", type=float, default=1e-9,
                        help="largest relative shift allowed (default 1e-9)")
    args = parser.parse_args(argv)
    old, new = read_metrics(args.old), read_metrics(args.new)
    (shift, key), changed = compare(old, new)
    if key is None:
        print("largest relative shift: none (no shared numeric key)")
    else:
        print(f"largest relative shift: {shift:.3e} at {key} "
              f"({old[key]} -> {new[key]})")
    for name in changed:
        print(f"changed: {name}: {old.get(name, '<missing>')} -> {new.get(name, '<missing>')}")
    ok = shift <= args.rtol and not changed
    print(f"{'within' if ok else 'outside'} rtol {args.rtol:g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
