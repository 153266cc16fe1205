"""Command-line entry point.

One JSON config file drives everything: flat keys mirroring TrainConfig,
`data_*`/`noise_*` keys for the dataset recipe, and optional `sweep_*`
keys. Flags override config values. Every run directory gets a canonical
config.json snapshot so any result can be replayed from the directory
alone; failed runs leave an `.incomplete` marker behind.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import guidance, nn
from .data import DataRecipe, NoiseSpec, inject_noise, load_csv, make_blobs, save_csv, save_noise_manifest
from .errors import ConfigurationError, GuidanceLearnError
from .evaluation import SWEEP_AXES, SweepGrid, accuracy, sweep
from .pipeline import (
    BASELINE_VARIANTS,
    TrainConfig,
    _baseline_models,
    finetune_clean,
    train_student,
    train_teacher,
)
from .serialize import write_canonical_json

log = logging.getLogger("guidance_learn")

_DATA_KEYS = {
    "data_kind", "data_csv", "data_classes", "data_per_class", "data_dim",
    "data_sigma", "data_clean_fraction", "data_test_fraction",
    "noise_model", "noise_rate", "noise_pair_map",
}
_SWEEP_KEYS = {"sweep_axis", "sweep_values", "sweep_seeds"}
_TRAIN_KEYS = set(TrainConfig().to_dict())


@dataclass
class CliConfig:
    command: str
    config_path: str | None = None
    out_dir: str | None = None
    seed: int | None = None
    verbosity: int = 0
    force: bool = False
    variant: str | None = None
    checkpoint: str | None = None
    teacher: str | None = None
    data_path: str | None = None
    split: str = "test"
    classes: int = 10
    per_class: int = 500
    dim: int = 20
    sigma: float = 0.1
    noise_model: str | None = None
    noise_rate: float | None = None
    sweep_axis: str | None = None
    sweep_values: str | None = None
    sweep_seeds: str | None = None


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guidance-learn",
        description="Two-stage noisy-label training: teacher, guidance student, "
                    "baselines and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON config file")
        p.add_argument("--out", required=True, help="output run directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--force", action="store_true",
                       help="overwrite an existing report in the output directory")
        p.add_argument("-v", "--verbose", action="count", default=0)

    p = sub.add_parser("make-data", help="generate a Gaussian-blob CSV dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", type=int, default=500)
    p.add_argument("--dim", type=int, default=20)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.add_argument("-v", "--verbose", action="count", default=0)

    p = sub.add_parser("inject-noise", help="corrupt labels of a CSV dataset")
    p.add_argument("--data", required=True, help="input CSV dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--noise-model", required=True, choices=["symmetric", "pair_flip"])
    p.add_argument("--noise-rate", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.add_argument("-v", "--verbose", action="count", default=0)

    common(sub.add_parser("train-teacher", help="stage 1: cross-entropy on all training data"))

    p = sub.add_parser("train-student", help="stage 2: guidance training from a teacher")
    common(p)
    p.add_argument("--teacher", default=None,
                   help="teacher checkpoint; trained in-place when omitted")

    p = sub.add_parser("finetune", help="cross-entropy fine-tuning on the clean subset")
    common(p)
    p.add_argument("--checkpoint", required=True, help="model checkpoint to start from")

    p = sub.add_parser("baseline", help="run one comparison variant")
    common(p)
    p.add_argument("--variant", required=True, choices=list(BASELINE_VARIANTS))

    p = sub.add_parser("sweep", help="sweep one hyperparameter axis")
    common(p)
    p.add_argument("--axis", default=None, choices=list(SWEEP_AXES))
    p.add_argument("--values", default=None, help="comma-separated axis values")
    p.add_argument("--seeds", default=None, help="comma-separated replicate seeds")

    p = sub.add_parser("eval", help="accuracy of a saved checkpoint on a split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["clean_train", "noisy_train", "test"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-v", "--verbose", action="count", default=0)

    return parser


def parse_args(argv: list[str]) -> CliConfig:
    ns = make_parser().parse_args(argv)
    return CliConfig(
        command=ns.command,
        config_path=getattr(ns, "config", None),
        out_dir=getattr(ns, "out", None),
        seed=getattr(ns, "seed", None),
        verbosity=getattr(ns, "verbose", 0),
        force=getattr(ns, "force", False),
        variant=getattr(ns, "variant", None),
        checkpoint=getattr(ns, "checkpoint", None),
        teacher=getattr(ns, "teacher", None),
        data_path=getattr(ns, "data", None),
        split=getattr(ns, "split", "test"),
        classes=getattr(ns, "classes", 10),
        per_class=getattr(ns, "per_class", 500),
        dim=getattr(ns, "dim", 20),
        sigma=getattr(ns, "sigma", 0.1),
        noise_model=getattr(ns, "noise_model", None),
        noise_rate=getattr(ns, "noise_rate", None),
        sweep_axis=getattr(ns, "axis", None),
        sweep_values=getattr(ns, "values", None),
        sweep_seeds=getattr(ns, "seeds", None),
    )


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")
    unknown = set(doc) - _TRAIN_KEYS - _DATA_KEYS - _SWEEP_KEYS
    if unknown:
        raise ConfigurationError(f"{path}: unknown config keys: {sorted(unknown)}")
    return doc


def _recipe_from_config(doc: dict) -> DataRecipe:
    pair_map = doc.get("noise_pair_map")
    return DataRecipe(
        kind=doc.get("data_kind", "blobs"),
        classes=int(doc.get("data_classes", 10)),
        per_class=int(doc.get("data_per_class", 500)),
        dim=int(doc.get("data_dim", 20)),
        sigma=float(doc.get("data_sigma", 0.1)),
        csv_path=doc.get("data_csv"),
        clean_fraction=float(doc.get("data_clean_fraction", 0.05)),
        test_fraction=float(doc.get("data_test_fraction", 0.2)),
        noise_model=doc.get("noise_model", "none"),
        noise_rate=float(doc.get("noise_rate", 0.0)),
        pair_map=None if pair_map is None
        else {int(k): int(v) for k, v in pair_map.items()},
    )


def _effective_config(cli: CliConfig) -> tuple[TrainConfig, DataRecipe, dict]:
    doc = _load_config_file(cli.config_path)
    config = TrainConfig.from_dict({k: v for k, v in doc.items() if k in _TRAIN_KEYS})
    if cli.seed is not None:
        config = replace(config, seed=cli.seed)
    recipe = _recipe_from_config(doc)
    sweep_doc = {k: doc[k] for k in _SWEEP_KEYS if k in doc}
    return config, recipe, sweep_doc


def _snapshot(config: TrainConfig, recipe: DataRecipe, sweep_doc: dict | None = None) -> dict:
    doc = dict(config.to_dict())
    r = recipe.to_dict()
    doc.update({
        "data_kind": r["kind"], "data_csv": r["csv_path"],
        "data_classes": r["classes"], "data_per_class": r["per_class"],
        "data_dim": r["dim"], "data_sigma": r["sigma"],
        "data_clean_fraction": r["clean_fraction"],
        "data_test_fraction": r["test_fraction"],
        "noise_model": r["noise_model"], "noise_rate": r["noise_rate"],
        "noise_pair_map": r["pair_map"],
    })
    if sweep_doc:
        doc.update(sweep_doc)
    return doc


def _parse_list(tokens, kind: type, source: str) -> tuple:
    """Each token as `kind`; a bad token is a ConfigurationError naming `source`."""
    try:
        return tuple(kind(t) for t in tokens)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{source}: not a list of {kind.__name__} values: {exc}") from None


def _sweep_grid(cli: CliConfig, config: TrainConfig, sweep_doc: dict) -> tuple[SweepGrid, dict]:
    axis = cli.sweep_axis or sweep_doc.get("sweep_axis")
    if axis is None:
        raise ConfigurationError("sweep needs an axis (--axis or sweep_axis in the config)")
    if cli.sweep_values is not None:
        values = _parse_list(cli.sweep_values.split(","), float, "--values")
    elif "sweep_values" in sweep_doc:
        values = _parse_list(sweep_doc["sweep_values"], float, "sweep_values")
    else:
        raise ConfigurationError("sweep needs values (--values or sweep_values in the config)")
    if cli.sweep_seeds is not None:
        seeds = _parse_list(cli.sweep_seeds.split(","), int, "--seeds")
    elif "sweep_seeds" in sweep_doc:
        seeds = _parse_list(sweep_doc["sweep_seeds"], int, "sweep_seeds")
    else:
        seeds = (config.seed,)
    effective = {"sweep_axis": axis, "sweep_values": list(values), "sweep_seeds": list(seeds)}
    return SweepGrid(axis=axis, values=values, base_config=config, seeds=seeds), effective


def _guard(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise ConfigurationError(
            f"refusing to overwrite existing {path}; pass --force to allow it"
        )


class _RunDir:
    """Run-directory lifecycle: overwrite guard plus the .incomplete marker."""

    def __init__(self, out_dir: str, primary_artifact: str, force: bool):
        self.path = Path(out_dir)
        self.path.mkdir(parents=True, exist_ok=True)
        _guard(self.path / primary_artifact, force)
        self.marker = self.path / ".incomplete"
        self.marker.write_text("run in progress\n", encoding="utf-8")

    def finish(self) -> None:
        self.marker.unlink(missing_ok=True)


def _print_summary(report) -> None:
    acc = report.final_test_accuracy
    shown = "n/a" if acc is None else f"{acc:.4f}"
    print(f"{report.stage}: final test accuracy {shown}")


def _write_report(rundir: _RunDir, report, snapshot: dict) -> None:
    # the report embeds the full flat snapshot (training + data keys) so it
    # alone suffices to replay the run
    doc = report.to_json_dict()
    doc["config"] = snapshot
    write_canonical_json(rundir.path / "report.json", doc)


def _cmd_make_data(cli: CliConfig) -> int:
    rundir = _RunDir(cli.out_dir, "dataset.csv", cli.force)
    dataset = make_blobs(cli.classes, cli.per_class, cli.dim, cli.sigma, cli.seed or 0)
    save_csv(dataset, rundir.path / "dataset.csv")
    rundir.finish()
    print(f"wrote {rundir.path / 'dataset.csv'} ({len(dataset)} samples, "
          f"{dataset.num_classes} classes)")
    return 0


def _cmd_inject_noise(cli: CliConfig) -> int:
    rundir = _RunDir(cli.out_dir, "dataset.csv", cli.force)
    dataset = load_csv(cli.data_path)
    spec = NoiseSpec(model=cli.noise_model, rate=cli.noise_rate, seed=cli.seed or 0)
    corrupted, mask = inject_noise(dataset, spec)
    save_csv(corrupted, rundir.path / "dataset.csv")
    save_noise_manifest(rundir.path / "noise_manifest.json", corrupted, spec, mask)
    rundir.finish()
    n_flipped = int(mask.corrupted.sum())
    print(f"wrote {rundir.path / 'dataset.csv'} ({n_flipped}/{len(dataset)} labels corrupted)")
    return 0


def _cmd_train_teacher(cli: CliConfig) -> int:
    config, recipe, _ = _effective_config(cli)
    rundir = _RunDir(cli.out_dir, "report.json", cli.force)
    write_canonical_json(rundir.path / "config.json", _snapshot(config, recipe))
    dataset, _ = recipe.build(config.seed)
    teacher, report = train_teacher(dataset, config)
    nn.save_checkpoint(teacher, rundir.path / "teacher.ckpt")
    _write_report(rundir, report, _snapshot(config, recipe))
    rundir.finish()
    _print_summary(report)
    return 0


def _cmd_train_student(cli: CliConfig) -> int:
    config, recipe, _ = _effective_config(cli)
    rundir = _RunDir(cli.out_dir, "report.json", cli.force)
    write_canonical_json(rundir.path / "config.json", _snapshot(config, recipe))
    dataset, _ = recipe.build(config.seed)
    if cli.teacher is not None:
        teacher = nn.load_checkpoint(cli.teacher)
        log.info("loaded teacher from %s", cli.teacher)
    else:
        teacher, _teacher_report = train_teacher(dataset, config)
        log.info("trained stage-1 teacher (test accuracy %s)",
                 _teacher_report.final_test_accuracy)
    nn.save_checkpoint(teacher, rundir.path / "teacher.ckpt")
    cache = guidance.compute_teacher_soft_targets(teacher, dataset, config.temperature)
    guidance.save_cache(cache, rundir.path / "guidance_cache.bin")
    student, report = train_student(teacher, dataset, config, cache)
    nn.save_checkpoint(student, rundir.path / "student.ckpt")
    _write_report(rundir, report, _snapshot(config, recipe))
    rundir.finish()
    _print_summary(report)
    return 0


def _cmd_finetune(cli: CliConfig) -> int:
    config, recipe, _ = _effective_config(cli)
    rundir = _RunDir(cli.out_dir, "report.json", cli.force)
    write_canonical_json(rundir.path / "config.json", _snapshot(config, recipe))
    dataset, _ = recipe.build(config.seed)
    model = nn.load_checkpoint(cli.checkpoint)
    finetuned, report = finetune_clean(model, dataset, config)
    nn.save_checkpoint(finetuned, rundir.path / "finetuned.ckpt")
    _write_report(rundir, report, _snapshot(config, recipe))
    rundir.finish()
    _print_summary(report)
    return 0


def _cmd_baseline(cli: CliConfig) -> int:
    config, recipe, _ = _effective_config(cli)
    rundir = _RunDir(cli.out_dir, "report.json", cli.force)
    write_canonical_json(rundir.path / "config.json", _snapshot(config, recipe))
    dataset, _ = recipe.build(config.seed)
    models, report = _baseline_models(cli.variant, dataset, config)
    for name, params in models.items():
        nn.save_checkpoint(params, rundir.path / f"{name}.ckpt")
    _write_report(rundir, report, _snapshot(config, recipe))
    rundir.finish()
    _print_summary(report)
    return 0


def _cmd_sweep(cli: CliConfig) -> int:
    config, recipe, sweep_doc = _effective_config(cli)
    grid, effective = _sweep_grid(cli, config, sweep_doc)
    rundir = _RunDir(cli.out_dir, "results.json", cli.force)
    write_canonical_json(rundir.path / "config.json", _snapshot(config, recipe, effective))
    result = sweep(grid, recipe)
    (rundir.path / "results.csv").write_text(result.to_csv_text(), encoding="utf-8")
    write_canonical_json(rundir.path / "results.json", result.to_json_dict())
    (rundir.path / "plotdata.txt").write_text(result.to_plotdata_text(), encoding="utf-8")
    rundir.finish()
    best = max(result.aggregates(), key=lambda e: e["acc_student"]["mean"])
    print(f"sweep over {grid.axis}: best mean student accuracy "
          f"{best['acc_student']['mean']:.4f} at {grid.axis}={best['value']}")
    return 0


def _cmd_eval(cli: CliConfig) -> int:
    config, recipe, _ = _effective_config(cli)
    dataset, _ = recipe.build(config.seed)
    params = nn.load_checkpoint(cli.checkpoint)
    acc = accuracy(params, dataset, cli.split)
    print(f"{cli.split} accuracy: {acc!r}")
    return 0


_COMMANDS = {
    "make-data": _cmd_make_data,
    "inject-noise": _cmd_inject_noise,
    "train-teacher": _cmd_train_teacher,
    "train-student": _cmd_train_student,
    "finetune": _cmd_finetune,
    "baseline": _cmd_baseline,
    "sweep": _cmd_sweep,
    "eval": _cmd_eval,
}


def run(cli: CliConfig) -> int:
    level = logging.WARNING if cli.verbosity == 0 else (
        logging.INFO if cli.verbosity == 1 else logging.DEBUG)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[cli.command](cli)
    except GuidanceLearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    cli = parse_args(sys.argv[1:] if argv is None else argv)
    return run(cli)


if __name__ == "__main__":
    raise SystemExit(main())
