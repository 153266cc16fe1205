"""Command-line entry point.

One JSON config file drives everything: flat keys mirroring TrainConfig,
`data_*`/`noise_*` keys for the dataset recipe, and optional `sweep_*`
keys. Flags override config values.

Every command runs in three steps: parse the flags, read and check every
input (the config, the dataset its recipe builds and the subsets its stages
train on, a checkpoint given against that dataset, a sweep's cells and
datasets, a CSV and noise spec),
then open the run directory with `_run_dir`. So a bad input exits 1 and
creates nothing. The open directory gets a canonical config.json snapshot,
so any result can be replayed from the directory alone, and an
`.incomplete` marker that a run failing after that point leaves behind.
"""
from __future__ import annotations

import argparse
import logging
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import guidance, nn
from .data import (DataRecipe, Dataset, NoiseSpec, inject_noise, load_csv, make_blobs, save_csv,
                   save_noise_manifest)
from .errors import ConfigurationError, EmptySubsetError, GuidanceLearnError
from .evaluation import SWEEP_AXES, SweepGrid, accuracy, sweep
from .pipeline import (
    BASELINE_VARIANTS,
    TrainConfig,
    check_fits,
    check_split,
    check_trains,
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


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guidance-learn",
        description="Two-stage noisy-label training: teacher, guidance student, "
                    "baselines and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("-v", "--verbose", dest="verbosity", action="count", default=0)
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
    p.add_argument("--classes", type=int, default=DataRecipe.classes)
    p.add_argument("--per-class", type=int, default=DataRecipe.per_class)
    p.add_argument("--dim", type=int, default=DataRecipe.dim)
    p.add_argument("--sigma", type=float, default=DataRecipe.sigma)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")

    p = command("inject-noise", "corrupt labels of a CSV dataset")
    p.add_argument("--data", dest="data_path", required=True, help="input CSV dataset")
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--noise-model", required=True, choices=["symmetric", "pair_flip"])
    p.add_argument("--noise-rate", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--split", default="test", choices=["clean_train", "noisy_train", "test"])
    p.add_argument("--seed", type=int)

    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    return make_parser().parse_args(argv)


def _effective_config(cli: argparse.Namespace) -> tuple[TrainConfig, DataRecipe, SweepKeys]:
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


def _sweep_grid(cli: argparse.Namespace, config: TrainConfig, recipe: DataRecipe,
                keys: SweepKeys) -> tuple[SweepGrid, dict]:
    """The checked grid, its cells' datasets built, and its effective sweep keys."""
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
    try:
        with _naming_split_keys(cli, recipe):
            grid = SweepGrid(axis=axis, values=values, base_config=config, seeds=seeds,
                             recipe=recipe)
    except OSError as exc:
        raise ConfigurationError(f"{cli.config_path}: data_csv: {exc}") from None
    return grid, to_document(SweepKeys(sweep_axis=axis, sweep_values=values, sweep_seeds=seeds))


@contextmanager
def _run_dir(cli: argparse.Namespace, primary: str, snapshot: dict | None = None):
    """The run directory `--out`, opened once every input is read: an
    existing `primary` artifact is kept unless --force, the config.json
    `snapshot` (if any) is written, and `.incomplete` marks the run until
    the block ends without error."""
    path = Path(cli.out_dir)
    if (path / primary).exists() and not cli.force:
        raise ConfigurationError(
            f"refusing to overwrite existing {path / primary}; pass --force to allow it")
    path.mkdir(parents=True, exist_ok=True)
    marker = path / ".incomplete"
    marker.write_text("run in progress\n", encoding="utf-8")
    if snapshot is not None:
        write_canonical_json(path / "config.json", snapshot)
    yield path
    marker.unlink(missing_ok=True)


@contextmanager
def _naming_split_keys(cli: argparse.Namespace, recipe: DataRecipe):
    """An EmptySubsetError of the block, led by the config file and the keys
    that split its dataset."""
    try:
        yield
    except EmptySubsetError as exc:
        raise EmptySubsetError(f"{cli.config_path}: data_clean_fraction "
                               f"{recipe.clean_fraction!r}, data_test_fraction "
                               f"{recipe.test_fraction!r}: {exc}") from None


def _run_inputs(cli: argparse.Namespace, *stages: str,
                split: str | None = None) -> tuple[TrainConfig, Dataset, dict]:
    """The effective config, the dataset its recipe builds, and the config.json
    snapshot; an error building the dataset names the config file, and a
    dataset without a subset that one of `stages` trains on
    (`pipeline.check_trains`), or without samples in `split`, names the
    config file and its split keys."""
    config, recipe, _ = _effective_config(cli)
    try:
        dataset, _ = recipe.build(config.seed)
    except OSError as exc:
        raise ConfigurationError(f"{cli.config_path}: data_csv: {exc}") from None
    except GuidanceLearnError as exc:
        raise type(exc)(f"{cli.config_path}: {exc}") from None
    with _naming_split_keys(cli, recipe):
        check_trains(dataset, *stages)
        if split is not None:
            check_split(dataset, split)
    return config, dataset, _snapshot(config, recipe)


def _load_model(path: str, dataset: Dataset) -> nn.ModelParams:
    """The checkpoint at `path`; one that does not fit `dataset` is a
    ShapeError naming the file and both sizes."""
    model = nn.load_checkpoint(path)
    check_fits(model, dataset, f"{path}: checkpoint")
    log.info("loaded checkpoint %s", path)
    return model


def _write_run(out: Path, snapshot: dict, report, models: dict) -> str:
    """Write `models` as `<name>.ckpt` and the report, which embeds the full
    flat snapshot so it alone suffices to replay the run; the summary line."""
    for name, params in models.items():
        nn.save_checkpoint(params, out / f"{name}.ckpt")
    write_canonical_json(out / "report.json", {**to_document(report), "config": snapshot})
    acc = report.final_test_accuracy
    shown = "n/a" if acc is None else f"{acc:.4f}"
    return f"{report.stage}: final test accuracy {shown}"


def _cmd_make_data(cli: argparse.Namespace) -> str:
    dataset = make_blobs(cli.classes, cli.per_class, cli.dim, cli.sigma, cli.seed)
    with _run_dir(cli, "dataset.csv") as out:
        save_csv(dataset, out / "dataset.csv")
    return (f"wrote {out / 'dataset.csv'} ({len(dataset)} samples, "
            f"{dataset.num_classes} classes)")


def _cmd_inject_noise(cli: argparse.Namespace) -> str:
    spec = NoiseSpec(model=cli.noise_model, rate=cli.noise_rate, seed=cli.seed)
    dataset = load_csv(cli.data_path)
    corrupted, mask = inject_noise(dataset, spec)
    with _run_dir(cli, "dataset.csv") as out:
        save_csv(corrupted, out / "dataset.csv")
        save_noise_manifest(out / "noise_manifest.json", corrupted, spec, mask)
    n_flipped = int(mask.corrupted.sum())
    return f"wrote {out / 'dataset.csv'} ({n_flipped}/{len(dataset)} labels corrupted)"


def _cmd_train_teacher(cli: argparse.Namespace) -> str:
    config, dataset, snapshot = _run_inputs(cli, "teacher")
    with _run_dir(cli, "report.json", snapshot) as out:
        teacher, report = train_teacher(dataset, config)
        return _write_run(out, snapshot, report, {"teacher": teacher})


def _cmd_train_student(cli: argparse.Namespace) -> str:
    stages = ("teacher", "student") if cli.teacher is None else ("student",)
    config, dataset, snapshot = _run_inputs(cli, *stages)
    teacher = None if cli.teacher is None else _load_model(cli.teacher, dataset)
    with _run_dir(cli, "report.json", snapshot) as out:
        if teacher is None:
            teacher, teacher_report = train_teacher(dataset, config, record_epochs=False)
            log.info("trained stage-1 teacher (test accuracy %s)",
                     teacher_report.final_test_accuracy)
        nn.save_checkpoint(teacher, out / "teacher.ckpt")
        cache = guidance.compute_teacher_soft_targets(teacher, dataset, config.temperature)
        guidance.save_cache(cache, out / "guidance_cache.bin")
        student, report = train_student(teacher, dataset, config, cache)
        return _write_run(out, snapshot, report, {"student": student})


def _cmd_finetune(cli: argparse.Namespace) -> str:
    config, dataset, snapshot = _run_inputs(cli, "finetune")
    model = _load_model(cli.checkpoint, dataset)
    with _run_dir(cli, "report.json", snapshot) as out:
        finetuned, report = finetune_clean(model, dataset, config)
        return _write_run(out, snapshot, report, {"finetuned": finetuned})


def _cmd_baseline(cli: argparse.Namespace) -> str:
    config, dataset, snapshot = _run_inputs(cli, *BASELINE_VARIANTS[cli.variant])
    with _run_dir(cli, "report.json", snapshot) as out:
        models, report = run_baseline(cli.variant, dataset, config)
        return _write_run(out, snapshot, report, models)


def _cmd_sweep(cli: argparse.Namespace) -> str:
    config, recipe, sweep_keys = _effective_config(cli)
    grid, effective = _sweep_grid(cli, config, recipe, sweep_keys)
    with _run_dir(cli, "results.json", _snapshot(config, recipe, effective)) as out:
        result = sweep(grid)
        _write_atomic(out / "results.csv", [result.to_csv_text().encode("utf-8")])
        write_canonical_json(out / "results.json", result.to_json_dict())
        _write_atomic(out / "plotdata.txt", [result.to_plotdata_text().encode("utf-8")])
    best = max(result.aggregates(), key=lambda e: e["acc_student"]["mean"])
    return (f"sweep over {grid.axis}: best mean student accuracy "
            f"{best['acc_student']['mean']:.4f} at {grid.axis}={best['value']}")


def _cmd_eval(cli: argparse.Namespace) -> str:
    _, dataset, _ = _run_inputs(cli, split=cli.split)
    acc = accuracy(_load_model(cli.checkpoint, dataset), dataset, cli.split)
    return f"{cli.split} accuracy: {acc!r}"


# command -> its function, which returns the one-line summary printed on success
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


def run(cli: argparse.Namespace) -> int:
    level = logging.WARNING if cli.verbosity == 0 else (
        logging.INFO if cli.verbosity == 1 else logging.DEBUG)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        if cli.seed is not None and cli.seed < 0:
            raise ConfigurationError(f"--seed: must be >= 0, got {cli.seed}")
        print(_COMMANDS[cli.command](cli))
        return 0
    except (GuidanceLearnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    cli = parse_args(sys.argv[1:] if argv is None else argv)
    return run(cli)


if __name__ == "__main__":
    raise SystemExit(main())
