"""The three benchmark workloads: configs, CLI argv, artifacts and work plan.

Every input is derived from the workload seed, so one seed always gives the
same configs, datasets and artifacts. `SCALES["tiny"]` shrinks every
workload for the smoke test; the timed benchmark always runs "full".
"""
from __future__ import annotations

import math

WORKLOADS = ("desk-student", "wide-student", "desk-sweep-beta")

SWEEP_VALUES = "0.0,0.3,1.0"

_BASE = {
    "data_classes": 10, "data_sigma": 0.1, "data_clean_fraction": 0.05,
    "data_test_fraction": 0.2, "noise_model": "symmetric", "noise_rate": 0.4,
}

SCALES = {
    "full": {
        "desk-student": {"data_per_class": 500, "data_dim": 20, "hidden_dims": [64]},
        "wide-student": {"data_per_class": 1000, "data_dim": 256, "hidden_dims": [256, 256],
                         "teacher_epochs": 5, "student_epochs": 3},
        "desk-sweep-beta": {"data_per_class": 300, "data_dim": 20, "hidden_dims": [64]},
    },
    "tiny": {
        "desk-student": {"data_classes": 4, "data_per_class": 40, "data_dim": 8,
                         "hidden_dims": [8], "teacher_epochs": 2, "student_epochs": 2},
        "wide-student": {"data_classes": 4, "data_per_class": 40, "data_dim": 16,
                         "hidden_dims": [16, 16], "teacher_epochs": 2, "student_epochs": 2},
        "desk-sweep-beta": {"data_classes": 4, "data_per_class": 40, "data_dim": 8,
                            "hidden_dims": [8], "teacher_epochs": 2, "student_epochs": 2,
                            "finetune_epochs": 1},
    },
}

# Artifacts of one job, compared byte for byte against the warm-up job.
ARTIFACTS = {
    "desk-student": ("report.json", "student.ckpt", "teacher.ckpt", "guidance_cache.bin"),
    "wide-student": ("report.json", "student.ckpt", "teacher.ckpt", "guidance_cache.bin"),
    "desk-sweep-beta": ("results.json",),
}


def config(workload: str, scale: str, seed: int) -> dict:
    """Flat CLI config of one workload; the dataset is generated from `seed`."""
    return {**_BASE, **SCALES[scale][workload], "seed": seed}


def recipe(doc: dict):
    """The DataRecipe the CLI builds from a workload config."""
    from guidance_learn.data import DataRecipe

    return DataRecipe(
        classes=doc["data_classes"], per_class=doc["data_per_class"], dim=doc["data_dim"],
        sigma=doc["data_sigma"], clean_fraction=doc["data_clean_fraction"],
        test_fraction=doc["data_test_fraction"], noise_model=doc["noise_model"],
        noise_rate=doc["noise_rate"],
    )


def data_seeds(workload: str, seed: int) -> list[int]:
    """Dataset seeds a job builds. The sweep's two replicates never overlap
    another workload seed's replicates."""
    if workload == "desk-sweep-beta":
        return [2 * seed + 1, 2 * seed + 2]
    return [seed]


def job_argv(workload: str, seed: int, config_path: str, out_dir: str,
             teacher_ckpt: str | None) -> list[str]:
    if workload == "desk-student":
        return ["train-student", "--config", config_path, "--out", out_dir]
    if workload == "wide-student":
        return ["train-student", "--config", config_path, "--out", out_dir,
                "--teacher", teacher_ckpt]
    seeds = ",".join(str(s) for s in data_seeds(workload, seed))
    return ["sweep", "--config", config_path, "--out", out_dir,
            "--axis", "beta", "--values", SWEEP_VALUES, "--seeds", seeds]


def plan(workload: str, train_config, split_sizes: list[dict]) -> dict:
    """Work one job does, computed from split sizes and the config.

    `rows` counts training rows consumed by SGD steps: teacher batches,
    student noisy + clean batches (the clean batch is always full size) and
    fine-tune batches. `epochs` counts training epochs, `cells` the student
    models a job trains (one per sweep cell).
    """
    cfg = train_config
    B = cfg.batch_size
    rows = steps = epochs = 0
    cells = 0
    for sizes in split_sizes:
        n_noisy, n_clean = sizes["noisy_train"], sizes["clean_train"]
        teacher = (cfg.teacher_epochs * (n_noisy + n_clean),
                   cfg.teacher_epochs * math.ceil((n_noisy + n_clean) / B),
                   cfg.teacher_epochs)
        student_steps = math.ceil(n_noisy / B)
        student = (cfg.student_epochs * (n_noisy + student_steps * B),
                   cfg.student_epochs * student_steps, cfg.student_epochs)
        finetune = (cfg.finetune_epochs * n_clean,
                    cfg.finetune_epochs * math.ceil(n_clean / B), cfg.finetune_epochs)
        if workload == "desk-student":
            stages = [teacher, student]
            cells += 1
        elif workload == "wide-student":
            stages = [student]
            cells += 1
        else:
            n_values = len(SWEEP_VALUES.split(","))
            stages = [teacher] + [student, finetune] * n_values
            cells += n_values
        for r, s, e in stages:
            rows += r
            steps += s
            epochs += e
    return {"rows": rows, "steps": steps, "epochs": epochs, "cells": cells,
            "split_sizes": split_sizes}
