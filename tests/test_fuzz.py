"""Arbitrary JSON documents fed to every document loader fail, if at all,
only with a package error (GuidanceLearnError subclass)."""
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from guidance_learn import cli, data, guidance, nn
from guidance_learn.errors import GuidanceLearnError
from test_cli import small_config_doc

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12,
)

_CONFIG = small_config_doc(sweep_axis="beta", sweep_values=[0.0, 0.3], sweep_seeds=[1, 2],
                           noise_pair_map={"0": 1})
_CHECKPOINT = {"format_version": 1, "activation": "relu", "layer_dims": [2, 3, 2],
               "weights": [[[1.0, 0.5], [0.0, -1.0], [2.0, 0.0]], [[1.0, 0.0, 0.5],
                                                                    [0.0, 1.0, 0.5]]],
               "biases": [[0.0, 0.1, 0.2], [0.0, 0.0]], "rng_seed": 3}
_CACHE = {"format_version": 1, "temperature": 5.0, "teacher_fingerprint": "f",
          "targets": {"0": [0.5, 0.5], "3": [0.25, 0.75]}}
_MANIFEST = {"format_version": 1, "seed": 0, "flip_indices": [1],
             "spec": {"model": "symmetric", "rate": 0.5, "pair_map": None},
             "tags": ["noisy_train", "noisy_train"]}


def _load_config(path):
    return cli._effective_config(cli.CliConfig(command="train-teacher", config_path=str(path)))


def _documents(valid: dict):
    """Any JSON value, or `valid` with one key set to any value or removed."""
    key = st.sampled_from(sorted(valid))
    return st.one_of(
        _JSON,
        st.builds(lambda k, v: {**valid, k: v}, key, _JSON),
        st.builds(lambda k: {name: v for name, v in valid.items() if name != k}, key),
    )


@pytest.mark.parametrize("load, valid", [
    (_load_config, _CONFIG),
    (nn.load_checkpoint, _CHECKPOINT),
    (guidance.load_cache, _CACHE),
    (data.load_noise_manifest, _MANIFEST),
], ids=["config", "checkpoint", "cache", "manifest"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(example=st.data())
def test_loaders_fail_only_with_package_errors(tmp_path, load, valid, example):
    path = tmp_path / "document.json"
    path.write_text(json.dumps(example.draw(_documents(valid))), encoding="utf-8")
    try:
        load(path)
    except GuidanceLearnError:
        pass
