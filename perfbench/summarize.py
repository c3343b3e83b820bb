#!/usr/bin/env python3
"""Summarize the run records in perfbench/.work/results/.

    python3 perfbench/summarize.py [--out FILE]

For every workload and metric: the values of all runs (one per seed), their
median, first and third quartile (``statistics.quantiles(values, n=4)``) and
spread, that is the distance between the quartiles as a share of the
median. Untraced and traced runs are summarized separately. Records of
different program sources are refused, so one summary describes one commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import workloads


def summarize(records: list[dict]) -> dict:
    sources = {r["provenance"]["source_sha256"] for r in records}
    if len(sources) != 1:
        raise SystemExit(f"records from {len(sources)} different program sources")
    first = records[0]["provenance"]
    out = {"provenance": {key: first[key] for key in
                          ("git_revision", "source_sha256", "python", "nproc",
                           "corpus_sha256", "seconds")},
           "untraced": {}, "traced": {}}
    for record in sorted(records, key=lambda r: r["provenance"]["seed"]):
        prov = record["provenance"]
        group = out["traced" if prov["trace"] else "untraced"]
        entry = group.setdefault(prov["workload"], {"seeds": [], "failed_ratio": [],
                                                    "metrics": {}})
        entry["seeds"].append(prov["seed"])
        entry["failed_ratio"].append(record["failed_ratio"])
        for name, metric in record["result"]["metrics"].items():
            values = entry["metrics"].setdefault(name, {"unit": metric["unit"],
                                                        "values": []})["values"]
            values.append(metric["value"])
    for group in (out["untraced"], out["traced"]):
        for entry in group.values():
            for metric in entry["metrics"].values():
                values = metric["values"]
                metric["median"] = statistics.median(values)
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    metric["q1"], metric["q3"] = q1, q3
                    metric["spread"] = (q3 - q1) / metric["median"] if metric["median"] else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the summary here instead of stdout")
    args = parser.parse_args(argv)
    paths = sorted((workloads.WORK_DIR / "results").glob("*.json"))
    if not paths:
        print("no run records", file=sys.stderr)
        return 2
    text = json.dumps(summarize([json.loads(p.read_text()) for p in paths]), indent=1)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
