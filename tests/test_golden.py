"""Golden artifacts: small pinned CLI jobs must write byte-identical files.

Each job runs through `cli.main` and the sha256 of every file it leaves in
its run directory is compared with a constant. Refactors of the training
path must keep these digests; only a change that means to change results
(or the on-disk formats) should update them.

The digests depend on the floating-point results of the BLAS kernel: a
different GEMM kernel gives different bits. So the jobs run in child
processes (this file run as a script), each on a named OpenBLAS kernel of
numpy's bundled OpenBLAS, set by OPENBLAS_CORETYPE: Haswell, the oldest FMA
kernel family, which runs on any AVX2 host, for GOLDEN and GOLDEN_DATA; and
Sandybridge, of the non-FMA family, which runs on any AVX host, for
GOLDEN_NON_FMA and the tables' other entries. The test checks that each
child ran on its kernel: on any other (no AVX2, another BLAS, another
architecture) it fails, naming the kernel it got. The other tests run on
the host's own kernel.
"""
import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from guidance_learn import cli
from guidance_learn.serialize import write_canonical_json

KERNEL = "Haswell"
NON_FMA_KERNEL = "Sandybridge"

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
    "teacher": ({}, ["train-teacher"]),
    "finetune": ({}, ["finetune", "--checkpoint", "{teacher}"]),
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
    "baseline_noisy_only": ({}, ["baseline", "--variant", "noisy_only"]),
    "baseline_clean_only": ({}, ["baseline", "--variant", "clean_only"]),
    "baseline_mixed": ({}, ["baseline", "--variant", "mixed"]),
    "baseline_guidance": ({}, ["baseline", "--variant", "guidance"]),
    "baseline_guidance_finetuned": ({}, ["baseline", "--variant", "guidance_finetuned"]),
}

GOLDEN = {
    "baseline_clean_only": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "model.ckpt":
            "5b705fc96327dbe8cee4b6742fde427ef86cdfffe8a49471d0fc7a22febfb4e1",
        "report.json":
            "90d1d0f8757d35da7a5a7ec3caa98a175a25642d5ff01f39b2bbaa10a6a33e8f",
    },
    "baseline_guidance": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "report.json":
            "4cf84517475a59c854205523bf4c206e056d03637491c070c33e26c238c19d9d",
        "student.ckpt":
            "f7061187d81f419ab2559a420e8ceaa974fbda3cb65bc14eb6550f90e1635872",
        "teacher.ckpt":
            "bf1aab8339a8973ab259dde240b715eb48670629c9ae3d6680f064993c72d800",
    },
    "baseline_guidance_finetuned": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "finetuned.ckpt":
            "1b4dc04831670c02e006812d74083230c25dca3b286a88fa6ac91be74fed8683",
        "report.json":
            "a7f299c6452725a5e00bfd319b9c9c43a65d2fe19def74c6265e5ec4505d4b28",
        "student.ckpt":
            "f7061187d81f419ab2559a420e8ceaa974fbda3cb65bc14eb6550f90e1635872",
        "teacher.ckpt":
            "bf1aab8339a8973ab259dde240b715eb48670629c9ae3d6680f064993c72d800",
    },
    "baseline_mixed": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "model.ckpt":
            "bf1aab8339a8973ab259dde240b715eb48670629c9ae3d6680f064993c72d800",
        "report.json":
            "dac8d679441eee221c515dcb7225c5c4b5475c763914cb879ae2a015f7ac3fcf",
    },
    "baseline_noisy_only": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "model.ckpt":
            "4f83a9522f38ee706fb8c962c0d666d7f2d786965c9c34f1c1471418c8c70cbf",
        "report.json":
            "fda275678d0b55d32f49e02fcfe1aa9387263f1de8c6abb8af740a13a59135c4",
    },
    "finetune": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "finetuned.ckpt":
            "6bf1b7600074c5d6c65e3c014277f5a09a4f3275b8ce7e68cedd97e8733f0ad0",
        "report.json":
            "1180aa9acb7ea84e0586d00efdbb9f436abc3be19b8c66e79604b4b29835f300",
    },
    "student": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "guidance_cache.bin":
            "9a1d39de0a02fe3a0ec5bb34825b78cc2d536ea2de009cf5bb8d2a8c9ce8115d",
        "report.json":
            "a2cfd5e74284b32118279cd63a1bc8ceae8e7c4a641a2fce9b103c68397ea2a8",
        "student.ckpt":
            "f7061187d81f419ab2559a420e8ceaa974fbda3cb65bc14eb6550f90e1635872",
        "teacher.ckpt":
            "bf1aab8339a8973ab259dde240b715eb48670629c9ae3d6680f064993c72d800",
    },
    "student_alpha0": {
        "config.json":
            "dcd08a7b9d63f4941507acbcafe3e773e60ea975059082b5a6062565d13e67f0",
        "guidance_cache.bin":
            "9a1d39de0a02fe3a0ec5bb34825b78cc2d536ea2de009cf5bb8d2a8c9ce8115d",
        "report.json":
            "240b0c117004b79fb6b07b71ce56fd636dd27077706eb25296bdcf4937f87f6f",
        "student.ckpt":
            "ae3d3221295a577b84bd06a8ff155733d5f2df87ca8033037bd4a2e42a14e636",
        "teacher.ckpt":
            "bf1aab8339a8973ab259dde240b715eb48670629c9ae3d6680f064993c72d800",
    },
    "student_from_teacher": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "guidance_cache.bin":
            "9a1d39de0a02fe3a0ec5bb34825b78cc2d536ea2de009cf5bb8d2a8c9ce8115d",
        "report.json":
            "a2cfd5e74284b32118279cd63a1bc8ceae8e7c4a641a2fce9b103c68397ea2a8",
        "student.ckpt":
            "f7061187d81f419ab2559a420e8ceaa974fbda3cb65bc14eb6550f90e1635872",
        "teacher.ckpt":
            "bf1aab8339a8973ab259dde240b715eb48670629c9ae3d6680f064993c72d800",
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
    "teacher": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "report.json":
            "f47bc6f4a2cfe6734ead554e507ecf11e0e037051a0c2aff0a804026e51925c2",
        "teacher.ckpt":
            "bf1aab8339a8973ab259dde240b715eb48670629c9ae3d6680f064993c72d800",
    },
}


# The jobs whose files differ on the non-FMA kernels (Sandybridge, and also
# Nehalem and Katmai, which give the same bits): those that write a single
# model. The sweeps, which train stacks, and the data commands give the
# GOLDEN and GOLDEN_DATA digests there too.
GOLDEN_NON_FMA = {
    "baseline_clean_only": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "model.ckpt":
            "35a019acd517501d2abec0c023001d8f01d9e922adf4dcebc79df094786e2adb",
        "report.json":
            "c6aef810ba04e90e2013a343442f1e38bd65fd3c1a60755adf0d46c908f73a32",
    },
    "baseline_guidance": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "report.json":
            "cf5a927b4f0173c869aae4ab022d13bd3f52f54e617bd24dfc0b52e493d9a777",
        "student.ckpt":
            "f0d28ed6322e7f77fd9a3b85ec06082f2219920c8fbef696d5f9cc2a88db632a",
        "teacher.ckpt":
            "18d15997aa87115084de300aa6534447f4f755eb9034de468873b4549d1e2d01",
    },
    "baseline_guidance_finetuned": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "finetuned.ckpt":
            "4f10f4551482ce0c5b61e75a7a17edfaf7b09059e064b5fe6b3fc71c3de26355",
        "report.json":
            "31cd7448130fc98703bdc0c83ca3fecffb8b9ff16d26288626fe2bc43289043a",
        "student.ckpt":
            "f0d28ed6322e7f77fd9a3b85ec06082f2219920c8fbef696d5f9cc2a88db632a",
        "teacher.ckpt":
            "18d15997aa87115084de300aa6534447f4f755eb9034de468873b4549d1e2d01",
    },
    "baseline_mixed": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "model.ckpt":
            "18d15997aa87115084de300aa6534447f4f755eb9034de468873b4549d1e2d01",
        "report.json":
            "964f1c105195b52d1429f3ae3aab88d69394fdb2103ee29160558c9a03b1261f",
    },
    "baseline_noisy_only": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "model.ckpt":
            "e3adb70636be0e19aa0968bb04cd8aaefc292237779e7c5e64d2df0b00a44326",
        "report.json":
            "d43eba3a3bbc3133445d957ee363440a556099d0bc3a625b711865c4b77c6b58",
    },
    "finetune": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "finetuned.ckpt":
            "8287e7184a3273ee81cd2e899bcf01732c6306093daff3ca535b0911284e7345",
        "report.json":
            "ee7cee80d81cbc77329b259d83591d50dd2a4738a155ee5f7df282b71b6525d3",
    },
    "student": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "guidance_cache.bin":
            "921d0555288275e93c476154a091326bc3181b9dd46b26107737ab745df21d38",
        "report.json":
            "d9cc3147ca117bf09fe906fedd2bb1d2c342baeaeb858dc2bbeb94083b6ca041",
        "student.ckpt":
            "f0d28ed6322e7f77fd9a3b85ec06082f2219920c8fbef696d5f9cc2a88db632a",
        "teacher.ckpt":
            "18d15997aa87115084de300aa6534447f4f755eb9034de468873b4549d1e2d01",
    },
    "student_alpha0": {
        "config.json":
            "dcd08a7b9d63f4941507acbcafe3e773e60ea975059082b5a6062565d13e67f0",
        "guidance_cache.bin":
            "921d0555288275e93c476154a091326bc3181b9dd46b26107737ab745df21d38",
        "report.json":
            "807aabce00fc7277f1fd9d354377b1677473a102a6d6bf0b46dd410e1afdfcac",
        "student.ckpt":
            "eb980498140ce2ce6228ab6d97b065dc67b1be4822b1cee68958ac625202a5b6",
        "teacher.ckpt":
            "18d15997aa87115084de300aa6534447f4f755eb9034de468873b4549d1e2d01",
    },
    "student_from_teacher": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "guidance_cache.bin":
            "921d0555288275e93c476154a091326bc3181b9dd46b26107737ab745df21d38",
        "report.json":
            "d9cc3147ca117bf09fe906fedd2bb1d2c342baeaeb858dc2bbeb94083b6ca041",
        "student.ckpt":
            "f0d28ed6322e7f77fd9a3b85ec06082f2219920c8fbef696d5f9cc2a88db632a",
        "teacher.ckpt":
            "18d15997aa87115084de300aa6534447f4f755eb9034de468873b4549d1e2d01",
    },
    "teacher": {
        "config.json":
            "852e0d96b107d05884f13e04b4ec6cb2eec84a63c72225309599d3f3326e44f0",
        "report.json":
            "434910c88860c37efe49b5f6472a0fd15e8149f1879be068bf334629f3e5750b",
        "teacher.ckpt":
            "18d15997aa87115084de300aa6534447f4f755eb9034de468873b4549d1e2d01",
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


def blas_kernel() -> str:
    """The name of the kernel that numpy's bundled OpenBLAS runs on in this
    process (`scipy_openblas_get_corename64_`); a numpy built against
    another BLAS has none, and the text says so."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*"))
    if not found:
        return f"none: no scipy-openblas library in {libs}"
    corename = ctypes.CDLL(str(found[0])).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


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


def run_data_jobs(tmp_path) -> dict[str, dict[str, str]]:
    """Run the data commands in order; per command, sha256 of every file it wrote."""
    got = {}
    for name, argv in DATA_JOBS.items():
        argv = [a.replace("{make_data}", str(tmp_path / "make_data")) for a in argv]
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
        got[name] = _digests(tmp_path / name)
    return got


def _run_child(tmp_path_factory, kernel: str) -> dict:
    """Every job and the data commands, run in one child process on the
    OpenBLAS kernel `kernel`, which turns numpy's warnings into errors as
    pytest's settings do here: {"kernel": the kernel it ran on, "jobs":
    digests per JOBS name, "data": digests per DATA_JOBS name}."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         __file__, str(tmp_path_factory.mktemp(f"golden-{kernel}"))],
        env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    runs = json.loads(child.stdout.splitlines()[-1])
    assert runs["kernel"] == kernel, f"the golden jobs ran on OpenBLAS kernel {runs['kernel']!r}"
    return runs


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory) -> dict:
    return _run_child(tmp_path_factory, KERNEL)


@pytest.fixture(scope="module")
def non_fma_runs(tmp_path_factory) -> dict:
    return _run_child(tmp_path_factory, NON_FMA_KERNEL)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_pinned_job_artifacts_are_byte_identical(golden_runs, name):
    assert golden_runs["jobs"][name] == GOLDEN[name]


def test_data_command_artifacts_are_byte_identical(golden_runs):
    assert golden_runs["data"] == GOLDEN_DATA


@pytest.mark.parametrize("name", sorted(JOBS))
def test_pinned_job_artifacts_on_non_fma_kernel(non_fma_runs, name):
    assert non_fma_runs["jobs"][name] == GOLDEN_NON_FMA.get(name, GOLDEN[name])


def test_data_command_artifacts_on_non_fma_kernel(non_fma_runs):
    assert non_fma_runs["data"] == GOLDEN_DATA


if __name__ == "__main__":
    # python tests/test_golden.py DIR: run every job in DIR; the last line
    # printed is what `golden_runs` returns, as JSON
    directory = Path(sys.argv[1])
    jobs = {name: run_job(directory, name) for name in sorted(JOBS)}
    print(json.dumps({"kernel": blas_kernel(), "jobs": jobs, "data": run_data_jobs(directory)}))
