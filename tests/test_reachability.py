"""Every function in `src/guidance_learn` is reached from the command line.

Tiny jobs of every CLI command run under `sys.setprofile`, which records
each code object entered. Every function, method, lambda and generator
expression of the package must be among them: code that no command reaches
is deleted or wired into a command. Whole functions are checked, not every
line; error branches inside a reached function may stay unexecuted.
"""
import inspect
import sys
from pathlib import Path

import guidance_learn
from guidance_learn import cli
from guidance_learn.serialize import write_canonical_json

PACKAGE = Path(guidance_learn.__file__).parent

# (file, qualified name) of the functions allowed to stay unreached.
ALLOWED: set[tuple[str, str]] = set()

CONFIG = {
    "alpha": 0.1, "beta": 0.3, "temperature": 5.0, "batch_size": 16, "hidden_dims": [4],
    "seed": 0, "teacher_epochs": 1, "student_epochs": 1, "finetune_epochs": 1,
    "teacher_lr_schedule": [[0, 0.01]], "student_lr_schedule": [[0, 0.001]],
    "data_classes": 3, "data_per_class": 20, "data_dim": 3, "data_sigma": 0.3,
    "data_clean_fraction": 0.2, "data_test_fraction": 0.2,
    "noise_model": "symmetric", "noise_rate": 0.3,
}


# Comprehensions in a module or class body, which run on import.
_IMPORT_TIME = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def _package_functions() -> set[tuple[str, str, int]]:
    """(file, qualified name, first line) of every function code object in
    the package sources: module and class bodies, and the comprehensions
    they run on import, are left out."""
    found = set()

    def visit(code, name, in_function):
        is_function = bool(code.co_flags & inspect.CO_OPTIMIZED)
        if is_function and (in_function or code.co_name not in _IMPORT_TIME):
            found.add((name, code.co_qualname, code.co_firstlineno))
        for const in code.co_consts:
            if inspect.iscode(const):
                visit(const, name, is_function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.name, False)
    return found


def _run_jobs(tmp: Path) -> None:
    def config(name, **overrides):
        path = tmp / f"{name}.json"
        write_canonical_json(path, {**CONFIG, **overrides})
        return str(path)

    def run(*argv, code=0):
        assert cli.main([str(a) for a in argv]) == code, argv

    base = config("base")
    run("make-data", "--out", tmp / "data", "--classes", 3, "--per-class", 20, "--dim", 3,
        "--seed", 1)
    for model in ("symmetric", "pair_flip"):
        run("inject-noise", "--data", tmp / "data" / "dataset.csv", "--out", tmp / model,
            "--noise-model", model, "--noise-rate", 0.3, "--seed", 2)
    overflow = tmp / "overflow.csv"
    overflow.write_text("f0,label\n0.5,0\n1.5,9223372036854775808\n", encoding="utf-8")
    run("inject-noise", "--data", overflow, "--out", tmp / "overflow", "--noise-model",
        "symmetric", "--noise-rate", 0.3, "--seed", 2, code=1)
    assert not (tmp / "overflow").exists()
    run("train-teacher", "--config", base, "--out", tmp / "teacher", "-v")
    run("train-student", "--config", base, "--out", tmp / "student")
    run("train-student", "--config", base, "--out", tmp / "from-teacher",
        "--teacher", tmp / "teacher" / "teacher.ckpt")
    run("finetune", "--config", base, "--out", tmp / "finetune",
        "--checkpoint", tmp / "student" / "student.ckpt")
    run("eval", "--config", base, "--checkpoint", tmp / "student" / "student.ckpt",
        "--split", "noisy_train")
    for variant in cli.BASELINE_VARIANTS:
        run("baseline", "--config", base, "--out", tmp / variant, "--variant", variant)
    run("sweep", "--config", base, "--out", tmp / "sweep-beta", "--axis", "beta",
        "--values", "0.0,0.3", "--seeds", "1,2")
    run("sweep", "--config", base, "--out", tmp / "sweep-clean", "--axis", "clean_fraction",
        "--values", "0.2,0.3", "--seeds", "1")
    pair_map = config("pair-map", noise_model="pair_flip", noise_pair_map={"0": 2, "1": 0},
                      sweep_axis="noise_rate", sweep_values=[0.2, 0.4], sweep_seeds=[1])
    run("sweep", "--config", pair_map, "--out", tmp / "sweep-noise")
    csv = config("csv", data_kind="csv", data_csv=str(tmp / "pair_flip" / "dataset.csv"))
    run("train-student", "--config", csv, "--out", tmp / "csv")
    diverging = config("diverging", teacher_lr_schedule=[[0, 1e100]])
    run("train-teacher", "--config", diverging, "--out", tmp / "diverging", code=1)


def test_every_package_function_is_reached_from_the_cli(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _run_jobs(tmp_path)
    finally:
        sys.setprofile(None)
    reached = {(Path(c.co_filename).name, c.co_qualname, c.co_firstlineno)
               for c in entered if Path(c.co_filename).parent == PACKAGE}
    unreached = sorted((name, qualname) for name, qualname, line in _package_functions()
                       if (name, qualname, line) not in reached)
    assert set(unreached) <= ALLOWED, unreached
