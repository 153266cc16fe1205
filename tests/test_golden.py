"""Golden artifacts: small pinned CLI jobs must write byte-identical files.

Each job runs through `cli.main` and the sha256 of every file it leaves in
its run directory is compared with a constant. Refactors of the training
path must keep these digests; only a change that means to change results
(or the on-disk formats) should update them. The digests depend on the
floating-point results of the BLAS the tests run against, so a different
numpy/BLAS build may need them re-recorded.
"""
import hashlib

import pytest

from guidance_learn import cli
from guidance_learn.serialize import write_canonical_json

CONFIG = {
    "alpha": 0.1,
    "beta": 0.3,
    "temperature": 5.0,
    "batch_size": 16,
    "hidden_dims": [16, 8],
    "seed": 5,
    "teacher_epochs": 6,
    "student_epochs": 4,
    "finetune_epochs": 2,
    "teacher_lr_schedule": [[0, 0.05], [4, 0.005]],
    "student_lr_schedule": [[0, 0.01], [3, 0.001]],
    "data_classes": 4,
    "data_per_class": 120,
    "data_dim": 8,
    "data_sigma": 0.6,
    "data_clean_fraction": 0.1,
    "data_test_fraction": 0.2,
    "noise_model": "symmetric",
    "noise_rate": 0.4,
}

# job name -> (config overrides, argv after the subcommand's --config/--out)
JOBS = {
    "student": ({}, ["train-student"]),
    "student_alpha0": ({"alpha": 0.0}, ["train-student"]),
    "student_from_teacher": ({}, ["train-student", "--teacher", "{teacher}"]),
    "sweep_beta": ({}, ["sweep", "--axis", "beta", "--values", "0.0,0.3,1.0",
                        "--seeds", "1,2"]),
    "sweep_alpha": ({}, ["sweep", "--axis", "alpha", "--values", "0.0,0.1",
                         "--seeds", "1,2"]),
    "sweep_T": ({}, ["sweep", "--axis", "T", "--values", "1.0,5.0", "--seeds", "1,2"]),
    "sweep_noise_rate": ({}, ["sweep", "--axis", "noise_rate", "--values", "0.2,0.4",
                              "--seeds", "1,2"]),
    "sweep_clean_fraction": ({}, ["sweep", "--axis", "clean_fraction", "--values",
                                  "0.1,0.2", "--seeds", "1,2"]),
    "baseline_guidance_finetuned": ({}, ["baseline", "--variant", "guidance_finetuned"]),
}

GOLDEN = {
    "baseline_guidance_finetuned": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "finetuned.ckpt":
            "112c12cf78b9463f97e1d4e733ad84f74e3a3bd9d3fb99fc6b741b3549ada4ca",
        "report.json":
            "79eb0e823bb1ca510e8fdcfc0cc0e0612b5e0dc5f8faa45f46dc70493ff8c662",
        "student.ckpt":
            "a377642342bdfe00e2a74fb56a0f88ec7ac6d6da3446ae4ea70604af3d717fad",
        "teacher.ckpt":
            "7ef75106b351d9c384e6c3e3877597a13c16dd91397115cd1b4a9547f6e0ee4f",
    },
    "student": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "guidance_cache.bin":
            "7ab75ff6bb530ccc4e23272b6c902ea89d0cb6c6acf5cc29a5e0a74e31db5c7b",
        "report.json":
            "d20c0f2a8460e987dcd95697e5f1f639dfe670d601a228428be488b36b262777",
        "student.ckpt":
            "a377642342bdfe00e2a74fb56a0f88ec7ac6d6da3446ae4ea70604af3d717fad",
        "teacher.ckpt":
            "7ef75106b351d9c384e6c3e3877597a13c16dd91397115cd1b4a9547f6e0ee4f",
    },
    "student_alpha0": {
        "config.json":
            "dcd08a7b9d63f4941507acbcafe3e773e60ea975059082b5a6062565d13e67f0",
        "guidance_cache.bin":
            "7ab75ff6bb530ccc4e23272b6c902ea89d0cb6c6acf5cc29a5e0a74e31db5c7b",
        "report.json":
            "56af5f45ef40c66cceada944423e0ff2db2a0d80910b34a8744eeb725e46973e",
        "student.ckpt":
            "1f26128b9d266c7542350842d89999ac74d7ad3501206f0bedccd2b807ab611b",
        "teacher.ckpt":
            "7ef75106b351d9c384e6c3e3877597a13c16dd91397115cd1b4a9547f6e0ee4f",
    },
    "student_from_teacher": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "guidance_cache.bin":
            "7ab75ff6bb530ccc4e23272b6c902ea89d0cb6c6acf5cc29a5e0a74e31db5c7b",
        "report.json":
            "d20c0f2a8460e987dcd95697e5f1f639dfe670d601a228428be488b36b262777",
        "student.ckpt":
            "a377642342bdfe00e2a74fb56a0f88ec7ac6d6da3446ae4ea70604af3d717fad",
        "teacher.ckpt":
            "7ef75106b351d9c384e6c3e3877597a13c16dd91397115cd1b4a9547f6e0ee4f",
    },
    "sweep_T": {
        "config.json":
            "2404d32edeee6676ad11eedcc5c64f31caffd64df8566862fa9cd54ff654ac09",
        "plotdata.txt":
            "4d282f3d7aefc5bba963306c57b124d4acb577ce0a1f39519ab3f19a5ac20d9a",
        "results.csv":
            "2e0b8b5ab52ea3d37c5c2de621b0f867d0da9aa1608c774b651fb5b8edf09d76",
        "results.json":
            "e24c1ebb87fd9ac7a226970d3eb81fd7f6ad488282104889f8af13cc7a8a8037",
    },
    "sweep_alpha": {
        "config.json":
            "6fca67abb28a71cb2484f52baf42bbf49b8f1968c5bd825b0f36a2a11eb96dea",
        "plotdata.txt":
            "cffd83f62c766156380cf970dec7a09d69fd5bf73f47b735f5183471a6273660",
        "results.csv":
            "9ce30efb350e5e2fa6a18a96aa563233a13d9b5c2b251e2094df0da6b55ba588",
        "results.json":
            "a6430240226c349f86d16c197a08f5b9210fd818e2acad37318c1b7fda403d98",
    },
    "sweep_beta": {
        "config.json":
            "eb56ddbf776d1030305eb8edcf6d9268f2ce2fdf5236f82e15e88678cec755b6",
        "plotdata.txt":
            "4e14141f19c9109e41c8b67398064f2c8cd153e33a8f8dc77e4d4ec61b6c3882",
        "results.csv":
            "e39e89f372934fffa538aaec24759b694a7171e0cd57a1b2273319c3e4c6a4e6",
        "results.json":
            "c3e6fc594575df9c34fc79093150aa7f436dfd36f41cd3e9ab874a731757fe6e",
    },
    "sweep_clean_fraction": {
        "config.json":
            "5a8636b54ef6e0fa96b57822bd64b9c07967cfe0fe870dad124755fdb3a00b06",
        "plotdata.txt":
            "814cfd5f822082de93dae6748744d5452ae26ac0a737cccee9fd8387ddb768d6",
        "results.csv":
            "d3996404a29f0046a3effc0f1391d6ec7d071952688dcf5315659875c963a7e7",
        "results.json":
            "2beded0a0a35cbcd9e3b7fff8de26db343843e2cd96cf53e0dd99580b7911ea7",
    },
    "sweep_noise_rate": {
        "config.json":
            "4360742cfcd77553e1b935292f35b5d0262161cc6039ef5b8b82f58e47f22b74",
        "plotdata.txt":
            "d9f6da3dda31fd595cc4620cbbcddd47d2078b7ce68112c569778fa391d41114",
        "results.csv":
            "3a0e54dcb3530fe3cee9946b6879889de25b3295bfc12fab68e2338298be0c24",
        "results.json":
            "30c65503c8403f404ce0eaabcbb648428c611423bdfb8a71d1fbf568342dbd80",
    },
}


# The data commands: make-data, then inject-noise on its dataset.csv.
DATA_JOBS = {
    "make_data": ["make-data", "--classes", "3", "--per-class", "20", "--dim", "4",
                  "--sigma", "0.3", "--seed", "7"],
    "inject_noise_pair_flip": ["inject-noise", "--data", "{make_data}/dataset.csv",
                               "--noise-model", "pair_flip", "--noise-rate", "0.3",
                               "--seed", "7"],
}

GOLDEN_DATA = {
    "inject_noise_pair_flip": {
        "dataset.csv":
            "c78d464ec0e6ffdfe4a3efbb36b40d33141e1b8245c736d933aff8d25fb6a04c",
        "noise_manifest.json":
            "4c1b739f995dfa92e9f3cd9186414c1ab767f35d14150f1b68c7784dfef0dd13",
    },
    "make_data": {
        "dataset.csv":
            "14d5c2ff8baf5bc8e905ff4e825194fb842c0f4038b8866ccbf5c70bd5b6266a",
    },
}


def _digests(directory) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def run_job(tmp_path, name: str) -> dict[str, str]:
    """Run one pinned job in a fresh directory; sha256 of every file it wrote."""
    overrides, argv = JOBS[name]
    config_path = tmp_path / f"{name}.json"
    write_canonical_json(config_path, {**CONFIG, **overrides})
    teacher = tmp_path / f"{name}-teacher"
    if "{teacher}" in argv:
        assert cli.main(["train-teacher", "--config", str(config_path),
                         "--out", str(teacher)]) == 0
    argv = [a.replace("{teacher}", str(teacher / "teacher.ckpt")) for a in argv]
    out = tmp_path / name
    assert cli.main([argv[0], "--config", str(config_path), "--out", str(out),
                     *argv[1:]]) == 0
    return _digests(out)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_pinned_job_artifacts_are_byte_identical(tmp_path, name):
    assert run_job(tmp_path, name) == GOLDEN[name]


def test_data_command_artifacts_are_byte_identical(tmp_path):
    got = {}
    for name, argv in DATA_JOBS.items():
        argv = [a.replace("{make_data}", str(tmp_path / "make_data")) for a in argv]
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
        got[name] = _digests(tmp_path / name)
    assert got == GOLDEN_DATA
