"""Arbitrary JSON documents fed to every document loader, and arbitrary
bytes fed to every file loader, fail, if at all, only with a package error
(GuidanceLearnError subclass)."""
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from guidance_learn import cli, data, nn
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


def _load_config(path):
    return cli._effective_config(cli.parse_args(["train-teacher", "--config", str(path),
                                                 "--out", "unused"]))


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
], ids=["config", "checkpoint"])
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


_CSV = b"f0,f1,label,true_label\n0.5,-1.25,0,0\n1e-3,2.0,1,0\n3.0,0.0,2,2\n"


def _bytes_like(valid: bytes):
    """Any bytes, or `valid` with a slice replaced by any bytes (which also
    truncates, extends or leaves it whole)."""
    cut = st.integers(min_value=0, max_value=len(valid))
    return st.one_of(
        st.binary(max_size=64),
        st.builds(lambda i, j, new: valid[:min(i, j)] + new + valid[max(i, j):],
                  cut, cut, st.binary(max_size=8)),
    )


def _load_csv(tmp_path, example):
    path = tmp_path / "dataset.csv"
    path.write_bytes(example.draw(_bytes_like(_CSV)))
    data.load_csv(path)


def _document_bytes(load, valid: dict):
    """`load` of a file holding the compact JSON of `valid`, mangled as bytes."""
    def load_bytes(tmp_path, example):
        path = tmp_path / "document.json"
        path.write_bytes(example.draw(_bytes_like(
            (json.dumps(valid, separators=(",", ":")) + "\n").encode())))
        load(path)
    return load_bytes


@pytest.mark.parametrize("load", [_load_csv, _document_bytes(_load_config, _CONFIG),
                                  _document_bytes(nn.load_checkpoint, _CHECKPOINT)],
                         ids=["csv", "config", "checkpoint"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(example=st.data())
def test_byte_loaders_fail_only_with_package_errors(tmp_path, load, example):
    try:
        load(tmp_path, example)
    except GuidanceLearnError:
        pass
