"""Correctness checks applied after every benchmark repetition.

A repetition passes only if:

- the exit status is 0 or 2, and 2 exactly when ``alerts.jsonl`` was written;
- each source's label file holds one row per record of the analysed window;
- the ensemble labels of every source reach ``ARI_FLOOR`` against the synth
  truth (the floor of acceptance criterion 4);
- every file under ``out/`` except ``alerts.jsonl`` is byte-identical to the
  first repetition's (acceptance criterion 7).

The adjusted Rand index here is computed independently of ``camlpad.evaluate``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ARI_FLOOR = 0.8
ALERTS_FILE = "alerts.jsonl"
DETECTORS = ("iforest", "hbos", "cblof")


@dataclass
class RunCheck:
    problems: list[str] = field(default_factory=list)
    ari_min: float | None = None
    detector_ari_min: float | None = None
    digest: dict[str, str] = field(default_factory=dict)
    artifact_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def adjusted_rand_index(a, b) -> float:
    """ARI of two labelings from their contingency table; 1.0 when both are constant."""
    _, a_codes = np.unique(np.asarray(a), return_inverse=True)
    _, b_codes = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((a_codes.max() + 1, b_codes.max() + 1))
    np.add.at(table, (a_codes, b_codes), 1)

    def pairs(counts: np.ndarray) -> float:
        return float((counts * (counts - 1) / 2).sum())

    n = len(a_codes)
    index, rows, cols = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / (n * (n - 1) / 2)
    best = (rows + cols) / 2
    if best == expected:
        return 1.0
    return (index - expected) / (best - expected)


def read_labels(path: Path) -> dict[str, dict]:
    """row_id -> {"label", "votes"}; raises ValueError on a malformed or repeated row."""
    rows: dict[str, dict] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        doc = json.loads(line)
        row_id = doc["row_id"]
        if row_id in rows:
            raise ValueError(f"row {row_id} appears twice")
        rows[row_id] = {"label": int(doc["label"]), "votes": {d: int(doc["votes"][d]) for d in DETECTORS}}
    return rows


def digest_outputs(out_dir: Path) -> tuple[dict[str, str], int]:
    """SHA-256 of every output file except the alert log, and the bytes of all files."""
    digest, total = {}, 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        if path.name != ALERTS_FILE:
            digest[str(path.relative_to(out_dir))] = hashlib.sha256(data).hexdigest()
    return digest, total


def check_run(
    exit_code: int,
    out_dir: Path,
    truth: dict[str, dict[str, int]],
    reference: dict[str, str] | None,
) -> RunCheck:
    """Check one repetition's outputs against the truth and the first repetition."""
    check = RunCheck()
    if exit_code not in (0, 2):
        check.problems.append(f"exit status {exit_code}")
        return check
    alerted = (out_dir / ALERTS_FILE).is_file()
    if (exit_code == 2) != alerted:
        check.problems.append(f"exit status {exit_code} but alerts.jsonl {'present' if alerted else 'absent'}")

    ensemble_aris, detector_aris = [], []
    for source, labels in sorted(truth.items()):
        path = out_dir / "labels" / f"{source}.jsonl"
        try:
            rows = read_labels(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            check.problems.append(f"{source}: unreadable labels: {exc}")
            continue
        if rows.keys() != labels.keys():
            check.problems.append(
                f"{source}: {len(rows)} label rows for {len(labels)} window records"
                f" ({len(rows.keys() - labels.keys())} unknown, {len(labels.keys() - rows.keys())} missing)"
            )
            continue
        ids = sorted(labels)
        expected = [labels[i] for i in ids]
        ensemble_aris.append(adjusted_rand_index([rows[i]["label"] for i in ids], expected))
        detector_aris += [adjusted_rand_index([rows[i]["votes"][d] for i in ids], expected) for d in DETECTORS]
    if ensemble_aris:
        check.ari_min = min(ensemble_aris)
        check.detector_ari_min = min(detector_aris)
        if check.ari_min < ARI_FLOOR:
            check.problems.append(f"ensemble ARI {check.ari_min:.3f} below {ARI_FLOOR}")

    check.digest, check.artifact_bytes = digest_outputs(out_dir)
    if reference is not None and check.digest != reference:
        changed = sorted(k for k in check.digest.keys() | reference.keys() if check.digest.get(k) != reference.get(k))
        check.problems.append(f"outputs differ from the first repetition: {', '.join(changed[:5])}")
    return check
