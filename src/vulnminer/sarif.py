"""SARIF 2.1.0 emission for detection verdicts."""

from __future__ import annotations

from . import __version__

_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
           "Schemata/sarif-schema-2.1.0.json")

_RULBASE = {
    "Injection": "Tainted data reaches a command or SQL sink.",
    "XSS": "Tainted data is echoed without output escaping.",
    "URF": "Tainted data controls a redirect target.",
    "FileInclusion": "Tainted data controls an include path.",
    "SDE": "Sensitive server or secret data is exposed in output.",
    "SM": "Hard-coded credentials or insecure configuration.",
    "IDOR": "Raw identifier from the request fetches an object directly.",
}


def verdicts_to_sarif(verdicts) -> dict:
    """One result per vulnerable verdict, span-backed location."""
    rules_used: dict[str, dict] = {}
    results = []
    for verdict in verdicts:
        if not verdict.vulnerable:
            continue
        rule_id = verdict.vuln_type or "Unclassified"
        rules_used.setdefault(rule_id, {
            "id": rule_id,
            "shortDescription": {
                "text": _RULBASE.get(rule_id, "Potential vulnerability.")},
        })
        results.append({
            "ruleId": rule_id,
            "level": "error",
            "message": {
                "text": (f"{rule_id}: fused detector score "
                         f"{verdict.score_final:.3f}")},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": verdict.file_id},
                    "region": {"startLine": verdict.sink_line or 1},
                },
            }],
        })
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "vulnminer",
                    "version": __version__,
                    "rules": [rules_used[k] for k in sorted(rules_used)],
                },
            },
            "results": results,
        }],
    }
