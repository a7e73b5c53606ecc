"""The self-gate: the repo's own tree must pass its own analyzer.

This is the tier-1 enforcement point for the invariants in
``repro.analysis.rules``: lock discipline in the cache/serving/autograd
tiers, fingerprint completeness in the staged pipeline, determinism of
content-key inputs, canonical CSR construction, plus the
interprocedural tier — lock acquisition order, blocking-under-lock,
and future resolution.  Any unsuppressed finding in ``src``, ``tests``,
``benchmarks``, ``examples``, or ``perfbench`` fails this test with the
analyzer's own rendering — the same output ``python -m repro.analysis``
prints.

The gate shares the CLI's content-hash cache
(``.repro-analysis-cache.json`` at the repo root), so only files whose
bytes changed since the last run — any run, CLI or test — are
re-analyzed; a warm gate is two orders of magnitude cheaper than a
cold one.
"""

from pathlib import Path

from repro.analysis import AnalysisCache, analyze_paths

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The trees the gate covers (must mirror ``repro.analysis.__main__``).
GATED_PATHS = ("src", "tests", "benchmarks", "examples", "perfbench")


def test_repo_tree_has_zero_findings():
    paths = [
        REPO_ROOT / name for name in GATED_PATHS if (REPO_ROOT / name).is_dir()
    ]
    assert paths, "repo layout changed: no gated directories found"
    cache = AnalysisCache(REPO_ROOT / ".repro-analysis-cache.json")
    result = analyze_paths(paths, cache=cache)
    rendered = "\n".join(finding.render() for finding in result.findings)
    assert result.ok, (
        f"repro.analysis found {len(result.findings)} violation(s); fix them "
        f"or add a deliberate '# repro: ignore[rule]' suppression:\n{rendered}"
    )
    # The gate must actually be looking at the repo, not an empty glob.
    assert result.files_scanned > 100
