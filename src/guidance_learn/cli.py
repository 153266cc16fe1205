"""Command-line entry point.

One JSON config file drives everything: flat keys mirroring TrainConfig,
`data_*`/`noise_*` keys for the dataset recipe, and optional `sweep_*`
keys. Flags override config values. Every run directory gets a canonical
config.json snapshot so any result can be replayed from the directory
alone; failed runs leave an `.incomplete` marker behind.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import guidance, nn
from .data import DataRecipe, NoiseSpec, inject_noise, load_csv, make_blobs, save_csv, save_noise_manifest
from .errors import ConfigurationError, GuidanceLearnError
from .evaluation import SWEEP_AXES, SweepGrid, accuracy, sweep
from .pipeline import (
    BASELINE_VARIANTS,
    TrainConfig,
    check_fits,
    finetune_clean,
    run_baseline,
    train_student,
    train_teacher,
)
from .serialize import (_write_atomic, from_document, read_json_object, to_document,
                        write_canonical_json)

log = logging.getLogger("guidance_learn")

# DataRecipe field -> config key
_RECIPE_KEYS = {
    "kind": "data_kind", "csv_path": "data_csv", "classes": "data_classes",
    "per_class": "data_per_class", "dim": "data_dim", "sigma": "data_sigma",
    "clean_fraction": "data_clean_fraction", "test_fraction": "data_test_fraction",
    "noise_model": "noise_model", "noise_rate": "noise_rate", "pair_map": "noise_pair_map",
}


@dataclass(frozen=True)
class SweepKeys:
    """The optional sweep keys of a config file."""

    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] | None = None
    sweep_seeds: tuple[int, ...] | None = None


_CONFIG_KEYS = {f.name for f in (*fields(TrainConfig), *fields(SweepKeys))} | set(
    _RECIPE_KEYS.values())


@dataclass
class CliConfig:
    """The parsed command line; each field is the `dest` of its flag."""

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
    classes: int = DataRecipe.classes
    per_class: int = DataRecipe.per_class
    dim: int = DataRecipe.dim
    sigma: float = DataRecipe.sigma
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

    def command(name, help):
        # a flag not given stays out of the namespace: CliConfig holds the defaults
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("-v", "--verbose", dest="verbosity", action="count")
        return p

    def common(p):
        p.add_argument("--config", dest="config_path", required=True, help="JSON config file")
        p.add_argument("--out", dest="out_dir", required=True, help="output run directory")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--force", action="store_true",
                       help="overwrite an existing report in the output directory")
        return p

    p = command("make-data", "generate a Gaussian-blob CSV dataset")
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")

    p = command("inject-noise", "corrupt labels of a CSV dataset")
    p.add_argument("--data", dest="data_path", required=True, help="input CSV dataset")
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--noise-model", required=True, choices=["symmetric", "pair_flip"])
    p.add_argument("--noise-rate", type=float, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")

    common(command("train-teacher", "stage 1: cross-entropy on all training data"))

    p = common(command("train-student", "stage 2: guidance training from a teacher"))
    p.add_argument("--teacher", help="teacher checkpoint; trained in-place when omitted")

    p = common(command("finetune", "cross-entropy fine-tuning on the clean subset"))
    p.add_argument("--checkpoint", required=True, help="model checkpoint to start from")

    p = common(command("baseline", "run one comparison variant"))
    p.add_argument("--variant", required=True, choices=list(BASELINE_VARIANTS))

    p = common(command("sweep", "sweep one hyperparameter axis"))
    p.add_argument("--axis", dest="sweep_axis", choices=list(SWEEP_AXES))
    p.add_argument("--values", dest="sweep_values", help="comma-separated axis values")
    p.add_argument("--seeds", dest="sweep_seeds", help="comma-separated replicate seeds")

    p = command("eval", "accuracy of a saved checkpoint on a split")
    p.add_argument("--config", dest="config_path", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["clean_train", "noisy_train", "test"])
    p.add_argument("--seed", type=int)

    return parser


def parse_args(argv: list[str]) -> CliConfig:
    return CliConfig(**vars(make_parser().parse_args(argv)))


def _effective_config(cli: CliConfig) -> tuple[TrainConfig, DataRecipe, SweepKeys]:
    """The training config, dataset recipe and sweep keys of the config file;
    a bad key or value is a ConfigurationError naming the file."""
    path = cli.config_path
    doc = read_json_object(path, "config")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigurationError(f"{path}: unknown config keys: {sorted(unknown)}")
    try:
        config = TrainConfig.from_dict(doc)
        recipe = from_document(DataRecipe, doc, _RECIPE_KEYS)
        sweep_keys = from_document(SweepKeys, doc)
    except GuidanceLearnError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    if cli.seed is not None:
        config = replace(config, seed=cli.seed)
    return config, recipe, sweep_keys


def _snapshot(config: TrainConfig, recipe: DataRecipe, sweep_doc: dict | None = None) -> dict:
    return {**config.to_dict(), **to_document(recipe, _RECIPE_KEYS), **(sweep_doc or {})}


def _parse_list(text: str, kind: type, flag: str) -> tuple:
    """Each comma-separated token as `kind`; a bad token is a ConfigurationError naming `flag`."""
    try:
        return tuple(kind(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: not a list of {kind.__name__} values: {exc}") from None


def _sweep_grid(cli: CliConfig, config: TrainConfig, keys: SweepKeys) -> tuple[SweepGrid, dict]:
    axis = cli.sweep_axis or keys.sweep_axis
    if axis is None:
        raise ConfigurationError("sweep needs an axis (--axis or sweep_axis in the config)")
    values = (keys.sweep_values if cli.sweep_values is None
              else _parse_list(cli.sweep_values, float, "--values"))
    if values is None:
        raise ConfigurationError("sweep needs values (--values or sweep_values in the config)")
    seeds = (keys.sweep_seeds if cli.sweep_seeds is None
             else _parse_list(cli.sweep_seeds, int, "--seeds"))
    if seeds is None:
        seeds = (config.seed,)
    elif any(seed < 0 for seed in seeds):
        source = "sweep_seeds" if cli.sweep_seeds is None else "--seeds"
        raise ConfigurationError(f"{source}: seeds must be >= 0, got {list(seeds)}")
    effective = SweepKeys(sweep_axis=axis, sweep_values=values, sweep_seeds=seeds)
    return (SweepGrid(axis=axis, values=values, base_config=config, seeds=seeds),
            to_document(effective))


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


def _start_run(cli: CliConfig):
    """The effective config, the dataset, and a new run directory holding the
    config.json snapshot (also returned, for the report)."""
    config, recipe, _ = _effective_config(cli)
    rundir = _RunDir(cli.out_dir, "report.json", cli.force)
    snapshot = _snapshot(config, recipe)
    write_canonical_json(rundir.path / "config.json", snapshot)
    dataset, _ = recipe.build(config.seed)
    return config, dataset, rundir, snapshot


def _finish_run(rundir: _RunDir, snapshot: dict, report, models: dict) -> int:
    """Write `models` as `<name>.ckpt` and the report, which embeds the full
    flat snapshot so it alone suffices to replay the run."""
    for name, params in models.items():
        nn.save_checkpoint(params, rundir.path / f"{name}.ckpt")
    write_canonical_json(rundir.path / "report.json",
                         {**report.to_json_dict(), "config": snapshot})
    rundir.finish()
    acc = report.final_test_accuracy
    shown = "n/a" if acc is None else f"{acc:.4f}"
    print(f"{report.stage}: final test accuracy {shown}")
    return 0


def _load_model(path: str, dataset) -> nn.ModelParams:
    """The checkpoint at `path`; one that does not fit `dataset` is a
    ShapeError naming the file and both sizes."""
    model = nn.load_checkpoint(path)
    check_fits(model, dataset, f"{path}: checkpoint")
    return model


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
    config, dataset, rundir, snapshot = _start_run(cli)
    teacher, report = train_teacher(dataset, config)
    return _finish_run(rundir, snapshot, report, {"teacher": teacher})


def _cmd_train_student(cli: CliConfig) -> int:
    config, dataset, rundir, snapshot = _start_run(cli)
    if cli.teacher is not None:
        teacher = _load_model(cli.teacher, dataset)
        log.info("loaded teacher from %s", cli.teacher)
    else:
        teacher, _teacher_report = train_teacher(dataset, config)
        log.info("trained stage-1 teacher (test accuracy %s)",
                 _teacher_report.final_test_accuracy)
    nn.save_checkpoint(teacher, rundir.path / "teacher.ckpt")
    cache = guidance.compute_teacher_soft_targets(teacher, dataset, config.temperature)
    guidance.save_cache(cache, rundir.path / "guidance_cache.bin")
    student, report = train_student(teacher, dataset, config, cache)
    return _finish_run(rundir, snapshot, report, {"student": student})


def _cmd_finetune(cli: CliConfig) -> int:
    config, dataset, rundir, snapshot = _start_run(cli)
    model = _load_model(cli.checkpoint, dataset)
    finetuned, report = finetune_clean(model, dataset, config)
    return _finish_run(rundir, snapshot, report, {"finetuned": finetuned})


def _cmd_baseline(cli: CliConfig) -> int:
    config, dataset, rundir, snapshot = _start_run(cli)
    models, report = run_baseline(cli.variant, dataset, config)
    return _finish_run(rundir, snapshot, report, models)


def _cmd_sweep(cli: CliConfig) -> int:
    config, recipe, sweep_keys = _effective_config(cli)
    grid, effective = _sweep_grid(cli, config, sweep_keys)
    rundir = _RunDir(cli.out_dir, "results.json", cli.force)
    write_canonical_json(rundir.path / "config.json", _snapshot(config, recipe, effective))
    result = sweep(grid, recipe)
    _write_atomic(rundir.path / "results.csv", result.to_csv_text().encode("utf-8"))
    write_canonical_json(rundir.path / "results.json", result.to_json_dict())
    _write_atomic(rundir.path / "plotdata.txt", result.to_plotdata_text().encode("utf-8"))
    rundir.finish()
    best = max(result.aggregates(), key=lambda e: e["acc_student"]["mean"])
    print(f"sweep over {grid.axis}: best mean student accuracy "
          f"{best['acc_student']['mean']:.4f} at {grid.axis}={best['value']}")
    return 0


def _cmd_eval(cli: CliConfig) -> int:
    config, recipe, _ = _effective_config(cli)
    dataset, _ = recipe.build(config.seed)
    params = _load_model(cli.checkpoint, dataset)
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
        if cli.seed is not None and cli.seed < 0:
            raise ConfigurationError(f"--seed: must be >= 0, got {cli.seed}")
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
