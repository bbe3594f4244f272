"""Compare two sets of benchmark runs.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records written by ``perfbench/run.py --out DIR``
(one ``<workload>.seed<n>.trace<t>.json`` per run).  For every (workload,
metric) the script prints each set's median and quartiles, each set's
spread (quartile distance over median) and the change of the median.  An
end-to-end metric whose median got worse by more than its bound in
``BENCHMARK.json``, or whose spread within a set exceeds the bound
(``setup_s`` excepted), is flagged; the exit status is 1 when anything is
flagged.  Per-layer metrics have no bound and are reported only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any

from measure import quartiles, relative_spread

ROOT = pathlib.Path(__file__).resolve().parent.parent

Series = dict[tuple[str, str], list[float]]


def load_runs(directory: pathlib.Path) -> Series:
    """``{(workload, metric): [value per run]}`` from a directory of run
    records; traced and untraced runs are kept apart by the metric set."""
    series: Series = {}
    for path in sorted(directory.glob("*.trace[01].json")):
        record = json.loads(path.read_text())
        workload = record["environment"]["workload"]
        for name, metric in record["metrics"].items():
            series.setdefault((workload, name), []).append(float(metric["value"]))
    return series


def change(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``base``, positive when worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def compare(base: Series, new: Series, catalogue: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines and whether any end-to-end metric is flagged."""
    declared = {m["name"]: m for m in catalogue["end_to_end"] + catalogue["per_layer"]}
    lines = [
        f"{'workload':<15} {'metric':<34} {'base median [q1, q3] spread':>40} "
        f"{'new median [q1, q3] spread':>40} {'worse by':>9}  verdict"
    ]
    flagged = False
    for key in sorted(set(base) & set(new)):
        workload, name = key
        meta = declared.get(name)
        if meta is None:
            continue
        b1, b2, b3 = quartiles(base[key])
        n1, n2, n3 = quartiles(new[key])
        spreads = relative_spread(base[key]), relative_spread(new[key])
        worse = change(b2, n2, meta["better"])
        verdict = ""
        bound = meta.get("bound")
        if bound is not None:
            problems = []
            if worse > bound:
                problems.append(f"worse than bound {bound:g}")
            if name != "setup_s":
                for label, spread in zip(("base", "new"), spreads):
                    if spread > bound:
                        problems.append(f"{label} spread > {bound:g}")
            verdict = "; ".join(problems) or "ok"
            flagged = flagged or bool(problems)
        lines.append(
            f"{workload:<15} {name:<34} "
            f"{b2:>12.5g} [{b1:>8.4g}, {b3:>8.4g}] {spreads[0]:>6.3f} "
            f"{n2:>12.5g} [{n1:>8.4g}, {n3:>8.4g}] {spreads[1]:>6.3f} "
            f"{worse:>+9.3f}  {verdict}"
        )
    return lines, flagged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two directories of benchmark run records."
    )
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args(argv)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, flagged = compare(load_runs(args.base), load_runs(args.new), catalogue)
    print("\n".join(lines))
    print("FLAGGED" if flagged else "all end-to-end metrics within bounds")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
