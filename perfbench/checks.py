"""Output checks of the warm-up job, independent of the job's own code paths.

Every later job of a run must reproduce the warm-up job's artifacts byte
for byte; these checks establish that the warm-up job itself is right.
A failed check raises `CheckError` naming the artifact and the mismatch.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"


class CheckError(Exception):
    pass


def sha256(path: Path) -> str:
    if not path.is_file():
        raise CheckError(f"{path.name}: missing")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(job_dir: Path, names) -> dict[str, str]:
    return {name: sha256(job_dir / name) for name in names}


def load_expected() -> dict:
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def record_expected(workload: str, seed: int, acc: float) -> None:
    table = load_expected()
    table.setdefault(workload, {})[str(seed)] = acc
    for key in table:
        table[key] = dict(sorted(table[key].items(), key=lambda kv: int(kv[0])))
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: unreadable: {exc}") from None


def _test_accuracy(ckpt: dict, dataset) -> float:
    """Argmax accuracy on the test split, from the checkpoint's own numbers."""
    idx = np.where(dataset.tags == "test")[0]
    truth = dataset.true_labels if dataset.true_labels is not None else dataset.labels
    a = dataset.features[idx]
    layers = list(zip(ckpt["weights"], ckpt["biases"]))
    for k, (W, b) in enumerate(layers):
        a = a @ np.asarray(W, dtype=np.float64).T + np.asarray(b, dtype=np.float64)
        if k < len(layers) - 1:
            a = np.maximum(a, 0.0)
    return float((np.argmax(a, axis=1) == truth[idx]).mean())


def _check_student(job_dir: Path, doc: dict, plan: dict, recipe, seed: int,
                   teacher_ckpt: Path | None) -> float:
    report = _load_json(job_dir / "report.json")
    acc = report.get("final_test_accuracy")
    if report.get("stage") != "student" or not isinstance(acc, float):
        raise CheckError("report.json: not a student report with a final test accuracy")
    sha = digests(job_dir, ("student.ckpt", "teacher.ckpt"))
    fps = report.get("checkpoint_fingerprints", {})
    for role in ("student", "teacher"):
        if fps.get(role) != sha[f"{role}.ckpt"]:
            raise CheckError(f"report.json: {role} fingerprint != sha256 of {role}.ckpt")
    if teacher_ckpt is not None and sha256(teacher_ckpt) != sha["teacher.ckpt"]:
        raise CheckError("teacher.ckpt: differs from the loaded teacher checkpoint")
    cache = _load_json(job_dir / "guidance_cache.bin")
    if cache.get("teacher_fingerprint") != sha["teacher.ckpt"]:
        raise CheckError("guidance_cache.bin: teacher fingerprint != sha256 of teacher.ckpt")
    if cache.get("temperature") != report["config"]["temperature"]:
        raise CheckError("guidance_cache.bin: temperature != configured temperature")
    targets = np.asarray(list(cache["targets"].values()), dtype=np.float64)
    n_noisy = plan["split_sizes"][0]["noisy_train"]
    if targets.shape != (n_noisy, doc["data_classes"]):
        raise CheckError(f"guidance_cache.bin: targets shape {targets.shape} != "
                         f"({n_noisy}, {doc['data_classes']})")
    if (targets < 0).any() or np.abs(targets.sum(axis=1) - 1.0).max() > 1e-9:
        raise CheckError("guidance_cache.bin: a target row is not a probability vector")
    dataset, _ = recipe.build(seed)
    own = _test_accuracy(_load_json(job_dir / "student.ckpt"), dataset)
    if own != acc:
        raise CheckError(f"report.json: final test accuracy {acc!r} != {own!r} "
                         f"recomputed from student.ckpt")
    return acc


def _check_sweep(job_dir: Path, workload: str, seed: int) -> float:
    results = _load_json(job_dir / "results.json")
    values = [float(v) for v in workloads.SWEEP_VALUES.split(",")]
    seeds = workloads.data_seeds(workload, seed)
    rows = results.get("rows", [])
    if [(r["value"], r["seed"]) for r in rows] != list(itertools.product(values, seeds)):
        raise CheckError("results.json: rows do not cover the (value, seed) grid in order")
    for s in seeds:
        if len({r["acc_teacher"] for r in rows if r["seed"] == s}) != 1:
            raise CheckError(f"results.json: cells of seed {s} report different teachers")
    for entry in results.get("aggregates", []):
        cells = [r["acc_student"] for r in rows if r["value"] == entry["value"]]
        if entry["acc_student"] != {"mean": float(np.mean(cells)), "min": min(cells),
                                    "max": max(cells)}:
            raise CheckError(f"results.json: aggregate at value {entry['value']} "
                             f"disagrees with its rows")
    if len(results.get("aggregates", [])) != len(values):
        raise CheckError("results.json: one aggregate per value expected")
    return float(np.mean([r["acc_student"] for r in rows]))


def check_reference(workload: str, scale: str, seed: int, job_dir: Path, doc: dict,
                    plan: dict, recipe, teacher_ckpt: Path | None) -> float:
    """Check the warm-up job; return its student test accuracy (sweep: mean
    over cells)."""
    if workload == "desk-sweep-beta":
        acc = _check_sweep(job_dir, workload, seed)
    else:
        acc = _check_student(job_dir, doc, plan, recipe, seed, teacher_ckpt)
    if scale == "full":
        # The tiny smoke-test scale trains too little to clear this floor.
        floor = 1.5 / doc["data_classes"]
        if not (floor < acc <= 1.0):
            raise CheckError(f"student test accuracy {acc!r} not in ({floor}, 1]")
        expected = load_expected().get(workload, {}).get(str(seed))
        if expected is not None and expected != acc:
            raise CheckError(f"student test accuracy {acc!r} != recorded {expected!r}")
    return acc
