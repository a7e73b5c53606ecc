"""``python -m repro.analysis``: the repo invariant gate.

Runs every checker in :mod:`repro.analysis.rules` over the given paths
(default: ``src tests benchmarks examples perfbench``, resolved against
the current directory) and exits non-zero when any unsuppressed finding
remains — the same contract ``tests/test_analysis_gate.py`` enforces in
the tier-1 lane.

Per-file results (findings, call-graph summaries, suppression usage)
are cached in ``.repro-analysis-cache.json`` keyed by content hash, so
a warm run only re-analyzes files whose bytes changed; ``--no-cache``
forces a cold run, ``--cache PATH`` relocates the cache file.

Usage::

    PYTHONPATH=src python -m repro.analysis [paths...]
        [--json | --sarif] [--rules rule-a,rule-b] [--list-rules]
        [--no-cache] [--cache PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.core import analyze_paths, default_rules
from repro.analysis.graph import AnalysisCache
from repro.analysis.sarif import to_sarif

#: Scanned when no paths are given (existing ones only).
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "perfbench")

#: Default on-disk location of the per-file analysis cache.
DEFAULT_CACHE = ".repro-analysis-cache.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to scan (default: src tests benchmarks "
             "examples perfbench, where present)",
    )
    output = parser.add_mutually_exclusive_group()
    output.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable output (findings + file count + seconds)",
    )
    output.add_argument(
        "--sarif", action="store_true", dest="as_sarif",
        help="SARIF 2.1.0 output for CI annotation tooling",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print known rule ids and exit",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the per-file analysis cache",
    )
    parser.add_argument(
        "--cache", default=DEFAULT_CACHE, metavar="PATH",
        help=f"analysis cache file (default: {DEFAULT_CACHE})",
    )
    args = parser.parse_args(argv)

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}: {rule.description}")
        return 0
    if args.rules:
        wanted = {name.strip() for name in args.rules.split(",") if name.strip()}
        known = {rule.rule_id for rule in rules}
        unknown = wanted - known
        if unknown:
            print(
                f"unknown rule(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.rule_id in wanted]

    paths = args.paths or [
        path for path in DEFAULT_PATHS if Path(path).exists()
    ]
    if not paths:
        print("no paths to scan", file=sys.stderr)
        return 2

    cache = None if args.no_cache else AnalysisCache(args.cache)
    started = time.perf_counter()
    result = analyze_paths(paths, rules=rules, cache=cache)
    seconds = time.perf_counter() - started

    if args.as_json:
        payload = result.to_dict()
        payload["seconds"] = round(seconds, 6)
        payload["rules"] = [rule.rule_id for rule in rules]
        if cache is not None:
            payload["cache"] = {"hits": cache.hits, "misses": cache.misses}
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.as_sarif:
        print(json.dumps(to_sarif(result, rules), indent=2, sort_keys=True))
    else:
        for finding in result.findings:
            print(finding.render())
        status = "clean" if result.ok else f"{len(result.findings)} finding(s)"
        print(
            f"repro.analysis: {status} across {result.files_scanned} files "
            f"in {seconds:.2f}s"
        )
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
