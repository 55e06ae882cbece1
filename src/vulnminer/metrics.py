"""Detection metrics and the localization rate."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import VulnMinerError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise VulnMinerError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class MetricsReport:
    acc: float
    pre: float
    rec: float
    f1: float
    fpr: float
    fnr: float
    undefined: tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {"ACC": self.acc, "PRE": self.pre, "REC": self.rec,
                "F1": self.f1, "FPR": self.fpr, "FNR": self.fnr,
                "undefined": list(self.undefined)}


def _ratio(num: int, den: int, name: str, undefined: list[str]) -> float:
    if den == 0:
        undefined.append(name)
        return 0.0
    return num / den


def compute_metrics(cc: ConfusionCounts) -> MetricsReport:
    """Standard confusion-matrix metrics; 0/0 ratios become 0 with a flag."""
    if cc.total == 0:
        raise VulnMinerError("cannot compute metrics over zero samples")
    undefined: list[str] = []
    acc = (cc.tp + cc.tn) / cc.total
    pre = _ratio(cc.tp, cc.tp + cc.fp, "PRE", undefined)
    rec = _ratio(cc.tp, cc.tp + cc.fn, "REC", undefined)
    fpr = _ratio(cc.fp, cc.fp + cc.tn, "FPR", undefined)
    fnr = _ratio(cc.fn, cc.fn + cc.tp, "FNR", undefined)
    if "PRE" in undefined or "REC" in undefined or (pre + rec) == 0:
        if (pre + rec) == 0 and "F1" not in undefined:
            undefined.append("F1")
        f1 = 0.0
    else:
        f1 = 2.0 * pre * rec / (pre + rec)
    return MetricsReport(acc=acc, pre=pre, rec=rec, f1=f1, fpr=fpr, fnr=fnr,
                         undefined=tuple(undefined))


def confusion_from_pairs(pairs) -> ConfusionCounts:
    """``pairs`` is an iterable of (label, predicted) ints."""
    tp = fp = tn = fn = 0
    for label, pred in pairs:
        if label == 1 and pred == 1:
            tp += 1
        elif label == 0 and pred == 1:
            fp += 1
        elif label == 0 and pred == 0:
            tn += 1
        else:
            fn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def localization_rate(outcomes) -> tuple[float, dict[str, float]]:
    """Verified-success fraction with a per-vulnerability-type breakdown.

    ``outcomes`` is an iterable of (vuln_type, success) pairs over labeled
    positives; raises when there are none.
    """
    items = list(outcomes)
    if not items:
        raise VulnMinerError("localization rate undefined over zero positives")
    per_type_n: dict[str, int] = {}
    per_type_ok: dict[str, int] = {}
    ok = 0
    for vuln_type, success in items:
        per_type_n[vuln_type] = per_type_n.get(vuln_type, 0) + 1
        if success:
            ok += 1
            per_type_ok[vuln_type] = per_type_ok.get(vuln_type, 0) + 1
    breakdown = {t: per_type_ok.get(t, 0) / n for t, n in sorted(per_type_n.items())}
    breakdown["Total"] = ok / len(items)
    return ok / len(items), breakdown
