import dataclasses
import errno
import hashlib
import io
import json
import logging
import re
import warnings

import numpy as np
import pytest

from guidance_learn import cli, data, evaluation, nn, pipeline, serialize
from guidance_learn.serialize import write_canonical_json
from helpers import read_cache


def small_config_doc(**overrides):
    doc = {
        "alpha": 0.1,
        "beta": 0.3,
        "temperature": 5.0,
        "batch_size": 16,
        "hidden_dims": [8],
        "seed": 0,
        "teacher_epochs": 3,
        "student_epochs": 2,
        "finetune_epochs": 1,
        "teacher_lr_schedule": [[0, 0.01]],
        "student_lr_schedule": [[0, 0.001]],
        "data_kind": "blobs",
        "data_classes": 3,
        "data_per_class": 40,
        "data_dim": 4,
        "data_sigma": 0.15,
        "data_clean_fraction": 0.1,
        "data_test_fraction": 0.2,
        "noise_model": "symmetric",
        "noise_rate": 0.3,
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "c.json"
    write_canonical_json(path, small_config_doc())
    return path


def test_parse_args_direct_case():
    parsed = cli.parse_args(["train-teacher", "--config", "c.json", "--out", "run1"])
    assert parsed.command == "train-teacher"
    assert parsed.config_path == "c.json"
    assert parsed.out_dir == "run1"
    assert parsed.seed is None
    assert not parsed.force


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--help"])
    assert exc.value.code == 0
    assert "guidance-learn" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["train-teacher", "--config", "c.json", "--out", "x", "--bogus"])
    assert exc.value.code != 0


def test_bad_variant_lists_valid_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["baseline", "--config", "c.json", "--out", "x",
                        "--variant", "bogus"])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert "guidance" in err and "noisy_only" in err


def test_make_data_and_inject_noise(tmp_path, capsys):
    out = tmp_path / "data"
    assert cli.main(["make-data", "--out", str(out), "--classes", "3",
                     "--per-class", "10", "--dim", "3", "--sigma", "0.1",
                     "--seed", "1"]) == 0
    assert (out / "dataset.csv").exists()
    assert not (out / ".incomplete").exists()

    noisy_out = tmp_path / "noisy"
    assert cli.main(["inject-noise", "--data", str(out / "dataset.csv"),
                     "--out", str(noisy_out), "--noise-model", "symmetric",
                     "--noise-rate", "0.4", "--seed", "1"]) == 0
    assert (noisy_out / "dataset.csv").exists()
    manifest = json.loads((noisy_out / "noise_manifest.json").read_text())
    assert manifest["spec"]["model"] == "symmetric"
    loaded = data.load_csv(noisy_out / "dataset.csv")
    assert np.array_equal(
        np.asarray(manifest["flip_indices"]),
        np.where(loaded.labels != loaded.true_labels)[0],
    )


def test_train_teacher_writes_run_dir(tmp_path, config_file, capsys):
    out = tmp_path / "run1"
    assert cli.main(["train-teacher", "--config", str(config_file),
                     "--out", str(out)]) == 0
    assert (out / "config.json").exists()
    assert (out / "teacher.ckpt").exists()
    assert (out / "report.json").exists()
    assert not (out / ".incomplete").exists()
    summary = capsys.readouterr().out
    assert "final test accuracy" in summary
    report = json.loads((out / "report.json").read_text())
    assert report["stage"] == "teacher"
    assert "wall_time_sec" not in report


def test_train_student_full_run_layout(tmp_path, config_file):
    out = tmp_path / "run2"
    assert cli.main(["train-student", "--config", str(config_file),
                     "--out", str(out)]) == 0
    for name in ("config.json", "teacher.ckpt", "guidance_cache.bin",
                 "student.ckpt", "report.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    fp = report["checkpoint_fingerprints"]
    assert fp["teacher"] != fp["student"]
    # the cache sidecar names the stored teacher and the temperature
    teacher = nn.load_checkpoint(out / "teacher.ckpt")
    cache = read_cache(out / "guidance_cache.bin")
    assert cache.teacher_fingerprint == nn.fingerprint(teacher) == fp["teacher"]
    assert cache.temperature == 5.0
    assert len(cache.indices) > 0


def test_report_json_holds_the_report_fields_and_the_config(tmp_path, config_file):
    """Every report field is written, and nothing else but the config: a
    field that report.json leaves out is state no artifact records."""
    out = tmp_path / "run"
    assert cli.main(["train-student", "--config", str(config_file), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    fields = {f.name for f in dataclasses.fields(pipeline.RunReport)}
    assert set(report) == fields | {"config"}
    assert report["config"] == json.loads((out / "config.json").read_text())


def test_train_student_from_checkpoint_and_finetune(tmp_path, config_file):
    teacher_dir = tmp_path / "teacher_run"
    assert cli.main(["train-teacher", "--config", str(config_file),
                     "--out", str(teacher_dir)]) == 0
    student_dir = tmp_path / "student_run"
    assert cli.main(["train-student", "--config", str(config_file),
                     "--out", str(student_dir),
                     "--teacher", str(teacher_dir / "teacher.ckpt")]) == 0
    finetune_dir = tmp_path / "finetune_run"
    assert cli.main(["finetune", "--config", str(config_file),
                     "--out", str(finetune_dir),
                     "--checkpoint", str(student_dir / "student.ckpt")]) == 0
    assert (finetune_dir / "finetuned.ckpt").exists()


def test_report_config_snapshot_replays_the_run(tmp_path, config_file):
    out = tmp_path / "orig"
    assert cli.main(["train-teacher", "--config", str(config_file), "--out", str(out)]) == 0
    snapshot = json.loads((out / "report.json").read_text())["config"]
    assert snapshot["data_classes"] == 3 and snapshot["seed"] == 0

    replay_config = tmp_path / "replay.json"
    write_canonical_json(replay_config, snapshot)
    replay_out = tmp_path / "replay"
    assert cli.main(["train-teacher", "--config", str(replay_config),
                     "--out", str(replay_out)]) == 0
    assert (out / "report.json").read_bytes() == (replay_out / "report.json").read_bytes()
    assert (out / "teacher.ckpt").read_bytes() == (replay_out / "teacher.ckpt").read_bytes()


def test_rerun_into_fresh_directory_is_byte_identical(tmp_path, config_file):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train-student", "--config", str(config_file), "--out", str(a)]) == 0
    assert cli.main(["train-student", "--config", str(config_file), "--out", str(b)]) == 0
    for name in ("report.json", "config.json", "teacher.ckpt", "student.ckpt",
                 "guidance_cache.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_refuses_overwrite_without_force(tmp_path, config_file, capsys):
    out = tmp_path / "run"
    assert cli.main(["train-teacher", "--config", str(config_file), "--out", str(out)]) == 0
    assert cli.main(["train-teacher", "--config", str(config_file), "--out", str(out)]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert cli.main(["train-teacher", "--config", str(config_file), "--out", str(out),
                     "--force"]) == 0


def test_failed_run_leaves_incomplete_marker(tmp_path):
    # the student diverges after the teacher and its cache are written
    path = tmp_path / "c.json"
    write_canonical_json(path, small_config_doc(student_lr_schedule=[[0, 1e100]]))
    out = tmp_path / "broken"
    code = cli.main(["train-student", "--config", str(path), "--out", str(out)])
    assert code != 0
    assert (out / ".incomplete").exists()
    assert not (out / "report.json").exists()


def test_malformed_config_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"alpha": 0.1,\n  broken\n}')
    assert cli.main(["train-teacher", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "c.json"
    write_canonical_json(path, small_config_doc(alhpa=0.2))
    assert cli.main(["train-teacher", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 1
    assert "alhpa" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("alpha", "abc"),
    ("hidden_dims", 5),
    ("data_classes", "ten"),
    ("noise_pair_map", [1, 2]),
    ("teacher_lr_schedule", [[0]]),
    ("batch_size", 64.7),
    ("seed", True),
    ("hidden_dims", [0]),
])
def test_config_value_of_wrong_type_names_file_and_key(tmp_path, capsys, key, value):
    path = tmp_path / "c.json"
    write_canonical_json(path, small_config_doc(**{key: value}))
    out = tmp_path / "x"
    assert cli.main(["train-teacher", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {key}"), err
    assert "Traceback" not in err
    assert not out.exists()


def test_seed_flag_overrides_config(tmp_path, config_file):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["train-teacher", "--config", str(config_file), "--out", str(out1),
                     "--seed", "5"]) == 0
    snapshot = json.loads((out1 / "config.json").read_text())
    assert snapshot["seed"] == 5
    assert cli.main(["train-teacher", "--config", str(config_file), "--out", str(out2)]) == 0
    assert json.loads((out2 / "config.json").read_text())["seed"] == 0


def test_eval_matches_library_accuracy(tmp_path, config_file, capsys):
    out = tmp_path / "run"
    assert cli.main(["train-student", "--config", str(config_file), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(config_file),
                     "--checkpoint", str(out / "student.ckpt")]) == 0
    printed = capsys.readouterr().out.strip()

    dataset, _ = data.DataRecipe(
        classes=3, per_class=40, dim=4, sigma=0.15, clean_fraction=0.1,
        test_fraction=0.2, noise_model="symmetric", noise_rate=0.3,
    ).build(0)
    params = nn.load_checkpoint(out / "student.ckpt")
    want = evaluation.accuracy(params, dataset, "test")
    assert printed == f"test accuracy: {want!r}"


def test_train_student_logs_the_accuracy_of_its_own_teacher(tmp_path, config_file, caplog):
    """`train-student -v` without --teacher logs the test accuracy of the
    teacher it trained, the one reader of that teacher's report."""
    out = tmp_path / "run"
    with caplog.at_level(logging.INFO, logger="guidance_learn"):
        assert cli.main(["train-student", "-v", "--config", str(config_file),
                         "--out", str(out)]) == 0
    dataset, _ = data.DataRecipe(
        classes=3, per_class=40, dim=4, sigma=0.15, clean_fraction=0.1,
        test_fraction=0.2, noise_model="symmetric", noise_rate=0.3,
    ).build(0)
    want = evaluation.accuracy(nn.load_checkpoint(out / "teacher.ckpt"), dataset, "test")
    assert f"trained stage-1 teacher (test accuracy {want})" in caplog.messages


def test_baseline_run_and_artifacts(tmp_path, config_file, capsys):
    out = tmp_path / "baseline"
    assert cli.main(["baseline", "--config", str(config_file), "--out", str(out),
                     "--variant", "guidance_finetuned"]) == 0
    for name in ("teacher.ckpt", "student.ckpt", "finetuned.ckpt", "report.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["variant"] == "guidance_finetuned"


def test_sweep_writes_result_files(tmp_path, config_file, capsys):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(config_file), "--out", str(out),
                     "--axis", "beta", "--values", "0.0,0.3", "--seeds", "1,2"]) == 0
    for name in ("results.csv", "results.json", "plotdata.txt", "config.json"):
        assert (out / name).exists(), name
    rows = json.loads((out / "results.json").read_text())["rows"]
    assert len(rows) == 4
    assert "sweep over beta" in capsys.readouterr().out


@pytest.mark.parametrize("flags, doc, named", [
    (["--values", "0.1,abc"], {}, ("--values", "'abc'")),
    (["--values", "0.1", "--seeds", "1,x"], {}, ("--seeds", "'x'")),
    ([], {"sweep_values": [0.1, "abc"]}, ("sweep_values", "'abc'")),
    (["--values", "0.1"], {"sweep_seeds": [1, "x"]}, ("sweep_seeds", "'x'")),
    (["--values", "0.1"], {"sweep_seeds": [1.5, 2.9]}, ("sweep_seeds", "1.5")),
    (["--values", "0.1"], {"sweep_seeds": "12"}, ("sweep_seeds", "'12'")),
], ids=["values-flag", "seeds-flag", "values-key", "seeds-key", "seeds-key-float",
        "seeds-key-string"])
def test_sweep_bad_value_or_seed_names_its_source(tmp_path, capsys, flags, doc, named):
    path = tmp_path / "c.json"
    write_canonical_json(path, small_config_doc(**doc))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                     "--axis", "beta", *flags]) == 1
    err = capsys.readouterr().err
    assert all(name in err for name in named), err
    assert not out.exists()


@pytest.mark.parametrize("argv, doc, named", [
    (["make-data", "--seed", "-1"], None, "--seed"),
    (["inject-noise", "--data", "{data}", "--noise-model", "symmetric",
      "--noise-rate", "0.2", "--seed", "-2"], None, "--seed"),
    (["sweep", "--axis", "beta", "--values", "0.1", "--seeds", "-1"], {}, "--seeds"),
    (["sweep", "--axis", "beta", "--values", "0.1"], {"sweep_seeds": [-1]}, "sweep_seeds"),
], ids=["make-data-flag", "inject-noise-flag", "sweep-flag", "sweep-key"])
def test_negative_seed_is_an_error_naming_its_source(tmp_path, capsys, argv, doc, named):
    data_csv = tmp_path / "data" / "dataset.csv"
    assert cli.main(["make-data", "--out", str(data_csv.parent), "--classes", "3",
                     "--per-class", "5", "--dim", "2"]) == 0
    capsys.readouterr()
    if doc is not None:
        path = tmp_path / "c.json"
        write_canonical_json(path, small_config_doc(**doc))
        argv = [argv[0], "--config", str(path), *argv[1:]]
    out = tmp_path / "out"
    argv = [a.replace("{data}", str(data_csv)) for a in argv]
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", [["train-teacher"],
                                     ["sweep", "--axis", "beta", "--values", "0.1"]],
                         ids=["train-teacher", "sweep"])
@pytest.mark.parametrize("doc, message", [
    ({"data_clean_fraction": 1.5}, r"clean_fraction must be in \[0, 1\), got 1.5"),
    ({"noise_rate": 1.5}, r"noise rate must be in \[0, 1\), got 1.5"),
    ({"data_clean_fraction": 0.5, "data_test_fraction": 0.5},
     "clean_fraction \\+ test_fraction must be < 1, got 1.0"),
    ({"data_clean_fraction": 0.3, "data_test_fraction": 0.8},
     "clean_fraction \\+ test_fraction must be < 1, got 1.1"),
], ids=["clean-fraction", "noise-rate", "fractions-sum-to-1", "fractions-sum-above-1"])
def test_recipe_value_out_of_range_exits_1_naming_the_file_before_the_run_directory(
        tmp_path, capsys, command, doc, message):
    path = tmp_path / "c.json"
    write_canonical_json(path, small_config_doc(**doc))
    out = tmp_path / "out"
    assert cli.main([command[0], "--config", str(path), "--out", str(out), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert re.match(f"error: {re.escape(str(path))}: {message}", err), err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_with_a_repeated_cell_exits_1_before_the_run_directory(tmp_path, capsys,
                                                                    config_file):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(config_file), "--out", str(out),
                     "--axis", "beta", "--values", "0.1,0.1", "--seeds", "1,1"]) == 1
    assert capsys.readouterr().err == "error: sweep value 0.1 is repeated\n"
    assert not out.exists()


@pytest.mark.parametrize("with_teacher", [True, False], ids=["from-teacher", "desk"])
def test_train_student_encodes_each_checkpoint_once(tmp_path, config_file, monkeypatch,
                                                    with_teacher):
    teacher_flag = []
    if with_teacher:
        assert cli.main(["train-teacher", "--config", str(config_file),
                         "--out", str(tmp_path / "teacher")]) == 0
        teacher_flag = ["--teacher", str(tmp_path / "teacher" / "teacher.ckpt")]
    encoded = []
    checkpoint_dict = nn.checkpoint_dict
    monkeypatch.setattr(nn, "checkpoint_dict",
                        lambda params: encoded.append(params) or checkpoint_dict(params))
    out = tmp_path / "student"
    assert cli.main(["train-student", "--config", str(config_file), "--out", str(out),
                     *teacher_flag]) == 0
    # the student once, and a trained teacher once; a loaded one is saved
    # from the bytes it was read from
    assert len(encoded) == (1 if with_teacher else 2)
    report = json.loads((out / "report.json").read_text())
    for role in ("teacher", "student"):
        digest = hashlib.sha256((out / f"{role}.ckpt").read_bytes()).hexdigest()
        assert report["checkpoint_fingerprints"][role] == digest


@pytest.mark.parametrize("argv", [
    pytest.param(["train-teacher"], id="train-teacher"),
    pytest.param(["train-student"], id="train-student"),
    pytest.param(["train-student", "--teacher", "{teacher}"], id="train-student-from-teacher"),
    pytest.param(["finetune", "--checkpoint", "{teacher}"], id="finetune"),
    *(pytest.param(["baseline", "--variant", variant], id=f"baseline-{variant}")
      for variant in pipeline.BASELINE_VARIANTS),
])
def test_report_fingerprints_are_the_run_checkpoints(tmp_path, config_file, argv):
    """Every command that writes checkpoints records, in report.json, the
    sha256 of each `<name>.ckpt` it wrote under `<name>`, and no other."""
    teacher = tmp_path / "teacher"
    if "{teacher}" in argv:
        assert cli.main(["train-teacher", "--config", str(config_file),
                         "--out", str(teacher)]) == 0
    argv = [a.replace("{teacher}", str(teacher / "teacher.ckpt")) for a in argv]
    out = tmp_path / "run"
    assert cli.main([argv[0], "--config", str(config_file), "--out", str(out),
                     *argv[1:]]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checkpoint_fingerprints"] == {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.glob("*.ckpt")}


def test_train_student_saves_a_compact_teacher_as_it_was_read(tmp_path, config_file):
    """A compact teacher checkpoint that is not canonical (keys out of order,
    a weight written 1e-5) is saved byte for byte, and the report and the
    cache name it by the sha256 of those bytes."""
    assert cli.main(["train-teacher", "--config", str(config_file),
                     "--out", str(tmp_path / "teacher")]) == 0
    doc = json.loads((tmp_path / "teacher" / "teacher.ckpt").read_bytes())
    doc["weights"][0][0][0] = 1e-5
    text = json.dumps(dict(reversed(doc.items())), separators=(",", ":"))
    assert text.count("1e-05") == 1
    written = (text.replace("1e-05", "1e-5") + "\n").encode()
    assert written != (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    teacher = tmp_path / "reordered.ckpt"
    teacher.write_bytes(written)
    out = tmp_path / "student"
    assert cli.main(["train-student", "--config", str(config_file), "--out", str(out),
                     "--teacher", str(teacher)]) == 0
    assert (out / "teacher.ckpt").read_bytes() == written
    digest = hashlib.sha256(written).hexdigest()
    report = json.loads((out / "report.json").read_text())
    assert report["checkpoint_fingerprints"]["teacher"] == digest
    assert json.loads((out / "guidance_cache.bin").read_text())["teacher_fingerprint"] == digest


@pytest.mark.parametrize("argv, bad", [
    (["train-teacher", "--config", "{bad}"], b'{"seed": 0, "\xff": 1}\n'),
    (["train-student", "--config", "{config}", "--teacher", "{bad}"], b'{"\xff"}\n'),
], ids=["config", "checkpoint"])
def test_file_that_is_not_utf8_exits_1_naming_it(tmp_path, capsys, config_file, argv, bad):
    path = tmp_path / "bad.json"
    path.write_bytes(bad)
    out = tmp_path / "out"
    argv = [a.format(bad=path, config=config_file) for a in argv]
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid UTF-8: "), err
    assert "Traceback" not in err
    assert not out.exists()


def test_train_student_from_an_indented_teacher_writes_it_compact(tmp_path, config_file):
    """A teacher checkpoint in the indented form that older versions wrote is
    read, and the run saves it compact, fingerprinted by its own bytes."""
    assert cli.main(["train-teacher", "--config", str(config_file),
                     "--out", str(tmp_path / "teacher")]) == 0
    compact = (tmp_path / "teacher" / "teacher.ckpt").read_bytes()
    indented = tmp_path / "indented.ckpt"
    indented.write_text(serialize.canonical_json(json.loads(compact)))
    assert indented.read_bytes() != compact
    out = tmp_path / "student"
    assert cli.main(["train-student", "--config", str(config_file), "--out", str(out),
                     "--teacher", str(indented)]) == 0
    saved = (out / "teacher.ckpt").read_bytes()
    assert saved == compact
    digest = hashlib.sha256(saved).hexdigest()
    report = json.loads((out / "report.json").read_text())
    assert report["checkpoint_fingerprints"]["teacher"] == digest
    cache = json.loads((out / "guidance_cache.bin").read_text())
    assert cache["teacher_fingerprint"] == digest


@pytest.mark.parametrize("override, sizes", [
    ({"data_classes": 3, "data_dim": 8}, ("4", "3")),
    ({"data_classes": 4, "data_dim": 5}, ("8", "5")),
], ids=["classes", "input-dim"])
@pytest.mark.parametrize("command", ["eval", "finetune", "train-student"])
def test_checkpoint_that_does_not_fit_the_data_exits_1_naming_it(tmp_path, capsys, command,
                                                                 override, sizes):
    """A 4-class teacher of 8 features, given data of 3 classes or of 5
    features: an error naming the file and both sizes, before any
    checkpoint is written."""
    teacher_config = tmp_path / "teacher.json"
    write_canonical_json(teacher_config, small_config_doc(data_classes=4, data_dim=8,
                                                          teacher_epochs=1))
    checkpoint = tmp_path / "teacher" / "teacher.ckpt"
    assert cli.main(["train-teacher", "--config", str(teacher_config),
                     "--out", str(checkpoint.parent)]) == 0
    capsys.readouterr()
    path = tmp_path / "c.json"
    write_canonical_json(path, small_config_doc(**override))
    out = tmp_path / "out"
    argv = {"eval": ["eval", "--checkpoint", str(checkpoint)],
            "finetune": ["finetune", "--out", str(out), "--checkpoint", str(checkpoint)],
            "train-student": ["train-student", "--out", str(out), "--teacher", str(checkpoint)]}
    assert cli.main([*argv[command], "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {checkpoint}: "), captured
    reason = captured.err[len(f"error: {checkpoint}: "):]
    assert all(size in reason for size in sizes) and "Traceback" not in reason, reason
    assert not list(out.glob("*.ckpt"))


def test_sweep_with_an_empty_test_split_exits_1_before_training(tmp_path, capsys,
                                                                monkeypatch):
    path = tmp_path / "c.json"
    write_canonical_json(path, small_config_doc(data_test_fraction=0.0))
    monkeypatch.setattr(evaluation, "train_teacher",
                        lambda *args: pytest.fail("a teacher was trained"))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep"),
                     "--axis", "beta", "--values", "0.0,0.3"]) == 1
    assert capsys.readouterr().err == (f"error: {path}: data_clean_fraction 0.1, "
                                       f"data_test_fraction 0.0: sweep beta=0.0: "
                                       f"split 'test' is empty\n")


def test_train_student_builds_no_model_per_step(tmp_path, monkeypatch):
    """How many models a train-student job builds does not depend on its step
    count: each stage trains one parameter set in place."""
    built = []
    post_init = nn.ModelParams.__post_init__
    monkeypatch.setattr(nn.ModelParams, "__post_init__",
                        lambda params: built.append(params) or post_init(params))
    counts = []
    for epochs in (1, 3):
        path = tmp_path / f"c{epochs}.json"
        write_canonical_json(path, small_config_doc(teacher_epochs=epochs,
                                                    student_epochs=epochs))
        built.clear()
        assert cli.main(["train-student", "--config", str(path),
                         "--out", str(tmp_path / f"s{epochs}")]) == 0
        counts.append(len(built))
    assert counts[0] == counts[1], counts


def test_training_calls_keep_the_shape_the_benchmark_trace_reads(tmp_path, monkeypatch):
    """perfbench's span reader takes `nn.backward`'s params, batch and
    targets from its positional arguments, and counts the `nn.sgd_step`
    calls under `pipeline.train_student` as the student's steps. In a
    train-student and a sweep job, every backward call passes those three
    positionally, and each train_student call steps once per batch pair."""
    positional, students = [], []
    backward, sgd_step = nn.backward, nn.sgd_step
    train_student, mixed_orders = pipeline.train_student, data.Slices.mixed_orders

    def traced_backward(*args, **kwargs):
        positional.append(len(args))
        return backward(*args, **kwargs)

    def traced_sgd_step(*args, **kwargs):
        if students and students[-1]["open"]:
            students[-1]["steps"] += 1
        return sgd_step(*args, **kwargs)

    def traced_train_student(*args, **kwargs):
        students.append({"open": True, "steps": 0, "batches": 0})
        try:
            return train_student(*args, **kwargs)
        finally:
            students[-1]["open"] = False

    def counted_mixed_orders(self, batch_size, epoch):
        noisy, clean = mixed_orders(self, batch_size, epoch)
        students[-1]["batches"] += -(-noisy.shape[-1] // batch_size)
        return noisy, clean

    monkeypatch.setattr(nn, "backward", traced_backward)
    monkeypatch.setattr(nn, "sgd_step", traced_sgd_step)
    for module in (cli, evaluation, pipeline):
        monkeypatch.setattr(module, "train_student", traced_train_student)
    monkeypatch.setattr(data.Slices, "mixed_orders", counted_mixed_orders)
    path = tmp_path / "c.json"
    write_canonical_json(path, small_config_doc(teacher_epochs=1))
    assert cli.main(["train-student", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep"),
                     "--axis", "beta", "--values", "0.0,0.3", "--seeds", "1,2"]) == 0
    assert positional and min(positional) >= 3, sorted(set(positional))
    assert len(students) == 2
    for student in students:
        assert student["steps"] == student["batches"] > 0, students


class _FullDisk(io.FileIO):
    """A file whose write stores half the data, then fails."""

    def write(self, data):
        super().write(bytes(data)[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_forced_write_keeps_the_old_artifact(tmp_path, config_file, monkeypatch,
                                                   capsys):
    out = tmp_path / "run"
    assert cli.main(["train-teacher", "--config", str(config_file), "--out", str(out)]) == 0
    old = {p.name: p.read_bytes() for p in out.iterdir()}

    def open_failing_for_checkpoints(path, mode, **kwargs):
        return _FullDisk(path, "x") if ".ckpt." in str(path) else open(path, mode, **kwargs)

    monkeypatch.setattr(serialize, "open", open_failing_for_checkpoints, raising=False)
    assert cli.main(["train-teacher", "--config", str(config_file), "--out", str(out),
                     "--seed", "3", "--force"]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert (out / "teacher.ckpt").read_bytes() == old["teacher.ckpt"]
    assert (out / "report.json").read_bytes() == old["report.json"]
    assert (out / "config.json").read_bytes() != old["config.json"]  # written whole
    assert sorted(p.name for p in out.iterdir()) == [
        ".incomplete", "config.json", "report.json", "teacher.ckpt"]


def test_divergent_run_exits_1_naming_stage_epoch_and_step(tmp_path, capsys):
    path = tmp_path / "c.json"
    write_canonical_json(path, small_config_doc(teacher_lr_schedule=[[0, 1e100]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["train-teacher", "--config", str(path), "--out", str(tmp_path / "r")])
    assert code == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    err = capsys.readouterr().err
    assert err.startswith("error: teacher diverged at epoch 0, step "), err
    assert "learning rate 1e+100" in err and "Traceback" not in err


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfef0,label\n1.0,0\n", "not UTF-8"),
    (b"f0,f1,label\n1.0,2.0,0\n0.5,nan,1\n", "row 3: feature 'f1' is nan"),
    (b"f0,label\n1e999,0\n0.5,1\n", "row 2: feature 'f0' is inf"),
], ids=["not-utf8", "nan", "overflow"])
def test_inject_noise_bad_csv_names_the_file(tmp_path, capsys, content, message):
    source = tmp_path / "in.csv"
    source.write_bytes(content)
    out = tmp_path / "noisy"
    assert cli.main(["inject-noise", "--data", str(source), "--out", str(out),
                     "--noise-model", "symmetric", "--noise-rate", "0.4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source}: ") and message in err, err
    assert "Traceback" not in err
    assert not (out / "dataset.csv").exists()


@pytest.mark.parametrize("argv, doc, named", [
    (["make-data", "--classes", "1"], None, "2 classes, got 1"),
    (["inject-noise", "--data", "{inf_csv}", "--noise-model", "symmetric", "--noise-rate", "0.4"],
     None, "{inf_csv}: row 2"),
    (["inject-noise", "--data", "{csv}", "--noise-model", "symmetric", "--noise-rate", "1.5"],
     None, "got 1.5"),
    (["train-teacher"], {"data_kind": "csv", "data_csv": "{missing}"}, "{missing}"),
    (["train-teacher"], {"data_per_class": 3, "data_clean_fraction": 0.1}, "clean_fraction=0.1"),
    (["train-student", "--teacher", "{not_json}"], {}, "{not_json}: "),
    (["train-student", "--teacher", "{wide}"], {}, "{wide}: "),
    (["finetune", "--checkpoint", "{not_json}"], {}, "{not_json}: "),
    (["sweep", "--axis", "clean_fraction", "--values", "0.1,0.9"], {},
     "sweep clean_fraction=0.9: clean_fraction + test_fraction must be < 1, got 1.1"),
    (["sweep", "--axis", "noise_rate", "--values", "0.1"],
     {"noise_model": "none", "noise_rate": 0.0}, "noise_rate sweep"),
    (["sweep", "--axis", "clean_fraction", "--values", "0.01,0.2"], {"data_per_class": 4},
     "clean_fraction=0.01"),
], ids=["make-data-classes", "inject-noise-inf", "inject-noise-rate", "missing-data-csv",
        "class-too-small", "teacher-not-json", "teacher-wrong-dim", "checkpoint-not-json",
        "sweep-fractions", "sweep-noise-model", "sweep-class-too-small"])
def test_bad_input_exits_1_naming_it_and_creates_no_run_directory(tmp_path, capsys, argv,
                                                                  doc, named):
    files = {name: tmp_path / name for name in ("inf_csv", "csv", "missing", "not_json", "wide")}
    files["inf_csv"].write_bytes(b"f0,label\n1e999,0\n0.5,1\n")
    files["csv"].write_bytes(b"f0,f1,label\n0.0,0.0,0\n1.0,1.0,1\n")
    files["not_json"].write_bytes(b"not a checkpoint\n")
    nn.save_checkpoint(nn.init_params([5, 8, 3], seed=0), files["wide"])  # data_dim is 4

    def filled(text):
        return text.format(**files) if isinstance(text, str) else text

    argv, named = [filled(a) for a in argv], filled(named)
    if doc is not None:
        path = tmp_path / "c.json"
        write_canonical_json(path, small_config_doc(**{k: filled(v) for k, v in doc.items()}))
        argv = [argv[0], "--config", str(path), *argv[1:]]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert named in captured.err and "Traceback" not in captured.err, captured.err
    assert not out.exists()


def test_forced_rerun_with_a_bad_teacher_leaves_the_finished_run_as_it_was(tmp_path, capsys,
                                                                           config_file):
    out = tmp_path / "run"
    assert cli.main(["train-student", "--config", str(config_file), "--out", str(out)]) == 0
    finished = {p.name: p.read_bytes() for p in out.iterdir()}
    teacher = tmp_path / "wide.ckpt"
    nn.save_checkpoint(nn.init_params([5, 8, 3], seed=0), teacher)  # data_dim is 4
    assert cli.main(["train-student", "--config", str(config_file), "--out", str(out),
                     "--teacher", str(teacher), "--seed", "3", "--force"]) == 1
    assert f"error: {teacher}: " in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == finished


@pytest.mark.parametrize("argv, doc, message", [
    (["train-teacher"], {"data_per_class": 3, "data_clean_fraction": 0.1},
     "{config}: class 0 has 3 samples, fewer than the requested stratified split"),
    (["train-teacher"], {"data_kind": "csv", "data_csv": "{missing}"},
     "{config}: data_csv: [Errno 2] No such file or directory: '{missing}'"),
    (["sweep", "--axis", "beta", "--values", "0.1,0.2"],
     {"data_per_class": 3, "data_clean_fraction": 0.1},
     "{config}: class 0 has 3 samples, fewer than the requested stratified split"),
    (["sweep", "--axis", "noise_rate", "--values", "0.1"],
     {"noise_model": "none", "noise_rate": 0.0},
     "noise_rate sweep needs a noise model (noise_model is 'none')"),
    (["sweep", "--axis", "beta", "--values", "0.1"], {"data_kind": "csv", "data_csv": "{missing}"},
     "{config}: data_csv: [Errno 2] No such file or directory: '{missing}'"),
    (["train-student"], {"data_clean_fraction": 0.0},
     "{config}: data_clean_fraction 0.0, data_test_fraction 0.2: student trains on "
     "clean_train samples, and the data has none"),
    (["sweep", "--axis", "beta", "--values", "0.1"], {"data_clean_fraction": 0.0},
     "{config}: data_clean_fraction 0.0, data_test_fraction 0.2: sweep beta=0.1: student "
     "trains on clean_train samples"),
    (["sweep", "--axis", "clean_fraction", "--values", "0.0,0.1"], {},
     "{config}: data_clean_fraction 0.1, data_test_fraction 0.2: sweep clean_fraction=0.0: "
     "student trains on clean_train samples"),
    (["baseline", "--variant", "guidance"], {"data_clean_fraction": 0.0},
     "{config}: data_clean_fraction 0.0, data_test_fraction 0.2: student trains on "
     "clean_train samples"),
    (["baseline", "--variant", "clean_only"], {"data_clean_fraction": 0.0},
     "{config}: data_clean_fraction 0.0, data_test_fraction 0.2: clean_only trains on "
     "clean_train samples"),
    (["finetune", "--checkpoint", "{missing}"], {"data_clean_fraction": 0.0},
     "{config}: data_clean_fraction 0.0, data_test_fraction 0.2: finetune trains on "
     "clean_train samples"),
    (["sweep", "--axis", "beta", "--values", "0.1"], {"data_test_fraction": 0.0},
     "{config}: data_clean_fraction 0.1, data_test_fraction 0.0: sweep beta=0.1: "
     "split 'test' is empty"),
    (["eval", "--checkpoint", "{missing}", "--split", "test"], {"data_test_fraction": 0.0},
     "{config}: data_clean_fraction 0.1, data_test_fraction 0.0: split 'test' is empty"),
], ids=["class-too-small", "missing-data-csv", "sweep-class-too-small", "sweep-noise-model",
        "sweep-missing-data-csv", "student-no-clean", "sweep-beta-no-clean",
        "sweep-clean-fraction-0", "guidance-no-clean", "clean-only-no-clean", "finetune-no-clean",
        "sweep-no-test", "eval-no-test"])
def test_dataset_build_error_names_the_config_file_or_key(tmp_path, capsys, argv, doc,
                                                          message):
    names = {"config": tmp_path / "c.json", "missing": tmp_path / "missing.csv"}
    write_canonical_json(names["config"], small_config_doc(
        **{k: v.format(**names) if isinstance(v, str) else v for k, v in doc.items()}))
    out = tmp_path / "out"
    out_flag = [] if argv[0] == "eval" else ["--out", str(out)]  # eval writes no run directory
    assert cli.main([argv[0], "--config", str(names["config"]), *out_flag,
                     *(a.format(**names) for a in argv[1:])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message.format(**names)}"), err
    assert not out.exists()
