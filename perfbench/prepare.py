"""Set-up stage of one workload, run in a fresh process and timed from outside.

    python3 perfbench/prepare.py --workload NAME --seed N --scale full --out DIR

It imports the package, writes the job config to DIR/config.json, builds
each dataset a job will build to record the split sizes (DIR/plan.json),
and for wide-student trains and saves the teacher through the CLI
(DIR/teacher/teacher.ckpt).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from guidance_learn import cli  # noqa: E402
from guidance_learn.pipeline import TrainConfig  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True, choices=sorted(workloads.SCALES))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = workloads.config(args.workload, args.scale, args.seed)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    recipe = workloads.recipe(doc)
    sizes = []
    for data_seed in workloads.data_seeds(args.workload, args.seed):
        dataset, _ = recipe.build(data_seed)
        sizes.append({tag: int((dataset.tags == tag).sum())
                      for tag in ("clean_train", "noisy_train", "test")})
    train_config = TrainConfig.from_dict(
        {k: v for k, v in doc.items() if not k.startswith(("data_", "noise_"))})
    plan = workloads.plan(args.workload, train_config, sizes)
    (out / "plan.json").write_text(json.dumps(plan, sort_keys=True) + "\n", encoding="utf-8")

    if args.workload == "wide-student":
        rc = cli.main(["train-teacher", "--config", str(config_path),
                       "--out", str(out / "teacher")])
        if rc != 0:
            print(f"prepare: train-teacher exited {rc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
