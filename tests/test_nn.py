import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidance_learn import nn
from guidance_learn.errors import InputError, ParameterError, ShapeError
from helpers import copy, fd_gradients, max_rel_error, random_net, random_probs, stack
from helpers import params_bytes


def test_forward_zero_params_gives_zero_logits():
    params = nn.ModelParams(
        weights=[np.zeros((3, 4)), np.zeros((2, 3))],
        biases=[np.zeros(3), np.zeros(2)],
    )
    batch = np.random.default_rng(0).normal(size=(5, 4))
    assert np.array_equal(nn.forward(params, batch), np.zeros((5, 2)))


def test_forward_identity_layer():
    params = nn.ModelParams(weights=[np.eye(3)], biases=[np.zeros(3)])
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(nn.forward(params, e1), e1)


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(42)
    params = nn.init_params([4, 6, 3], seed=9)
    batch = rng.normal(size=(7, 4))

    def oracle_single(x):
        h = [0.0] * 6
        for i in range(6):
            acc = params.biases[0][i]
            for j in range(4):
                acc += params.weights[0][i][j] * x[j]
            h[i] = max(acc, 0.0)
        out = [0.0] * 3
        for i in range(3):
            acc = params.biases[1][i]
            for j in range(6):
                acc += params.weights[1][i][j] * h[j]
            out[i] = acc
        return out

    got = nn.forward(params, batch)
    want = np.array([oracle_single(x) for x in batch])
    assert np.abs(got - want).max() < 1e-12


def test_forward_equals_training_pass_logits_bitwise():
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(9, 5))
    single = nn.init_params([5, 7, 6, 3], seed=2)
    for params in (single, stack([single, nn.init_params([5, 7, 6, 3], seed=3)])):
        copy = batch.copy()
        logits = nn.forward(params, copy)
        recorded = nn._logits(params, batch, [])
        assert np.array_equal(logits, recorded)
        assert np.array_equal(np.signbit(logits), np.signbit(recorded))
        assert np.array_equal(copy, batch)  # the input is not written to


def test_forward_dimension_mismatch_names_layer():
    params = nn.init_params([4, 6, 3], seed=0)
    with pytest.raises(ShapeError, match="layer 0"):
        nn.forward(params, np.zeros((2, 5)))


def test_model_params_chain_validation():
    with pytest.raises(ShapeError, match="layer 1"):
        nn.ModelParams(weights=[np.zeros((3, 4)), np.zeros((2, 5))],
                       biases=[np.zeros(3), np.zeros(2)])
    with pytest.raises(ShapeError, match="layer 1"):
        nn.ModelParams(weights=[np.zeros((2, 3, 4)), np.zeros((3, 2, 3))],
                       biases=[np.zeros((2, 3)), np.zeros((3, 2))])
    with pytest.raises(ShapeError, match="layer 0"):
        nn.ModelParams(weights=[np.zeros((2, 3, 4))], biases=[np.zeros(3)])
    tiled = nn.stack([nn.init_params([4, 3, 2], seed=0)] * 5)
    assert tiled.layer_dims == [4, 3, 2] and tiled.num_classes == 2
    assert tiled.weights[0].shape == (5, 3, 4) and tiled.biases[1].shape == (5, 2)


def test_softmax_symmetric():
    assert np.allclose(nn.softmax_t(np.zeros(3), 1.0), np.full(3, 1 / 3), atol=1e-15)


def test_softmax_t1_equals_plain_softmax_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.normal(scale=3.0, size=5)
        want = [float(np.exp(v)) for v in z]
        total = sum(want)
        want = np.array([w / total for w in want])
        assert np.abs(nn.softmax_t(z, 1.0) - want).max() < 1e-12


def test_softmax_frozen_value():
    # independent high-precision evaluation of exp(z/T)/sum for (2,1,0), T=5
    got = nn.softmax_t(np.array([2.0, 1.0, 0.0]), 5.0)
    want = np.array([0.4017595785333554, 0.3289329222889067, 0.2693074991777379])
    assert np.abs(got - want).max() < 1e-12


def test_softmax_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        nn.softmax_t(np.zeros(3), 0.0)
    with pytest.raises(ParameterError):
        nn.softmax_t(np.zeros(3), -1.0)
    with pytest.raises(InputError):
        nn.softmax_t(np.array([1.0, np.inf]), 1.0)


@settings(max_examples=200, deadline=None)
@given(
    logits=st.lists(st.floats(-100, 100), min_size=2, max_size=8),
    temperature=st.floats(1e-3, 1e6),
    shift=st.floats(-50, 50),
)
def test_softmax_is_valid_and_shift_invariant(logits, temperature, shift):
    z = np.array(logits)
    p = nn.softmax_t(z, temperature)
    assert (p >= 0).all()
    assert abs(p.sum() - 1.0) < 1e-9
    shifted = nn.softmax_t(z + shift, temperature)
    assert np.abs(p - shifted).max() < 1e-9


def test_softmax_high_temperature_is_near_uniform():
    rng = np.random.default_rng(11)
    for C in (2, 3, 5, 10):
        z = rng.uniform(-10, 10, size=C)
        p = nn.softmax_t(z, 1e6)
        assert np.abs(p - 1.0 / C).max() < 1e-5


def test_softmax_preserves_argmax():
    rng = np.random.default_rng(12)
    for _ in range(200):
        z = rng.normal(scale=4.0, size=int(rng.integers(2, 9)))
        for T in (0.5, 1.0, 5.0, 100.0):
            assert np.argmax(nn.softmax_t(z, T)) == np.argmax(z)


def test_cross_entropy_perfect_prediction_is_zero():
    onehot = np.array([0.0, 1.0, 0.0])
    assert nn.cross_entropy(onehot, onehot) == 0.0


def test_cross_entropy_uniform_vs_onehot():
    pred = np.full(4, 0.25)
    target = np.array([0.0, 0.0, 1.0, 0.0])
    assert abs(nn.cross_entropy(pred, target) - 1.3862943611198906) < 1e-12


def test_cross_entropy_matches_summation_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = random_probs(rng, 6)
        t = random_probs(rng, 6)
        import math

        want = -sum(float(ti) * math.log(max(float(pi), 1e-12)) for pi, ti in zip(p, t))
        assert abs(nn.cross_entropy(p, t) - want) < 1e-12


def test_cross_entropy_batch_mean_and_shape_error():
    rng = np.random.default_rng(6)
    p = random_probs(rng, (4, 3))
    t = random_probs(rng, (4, 3))
    per = [nn.cross_entropy(p[i], t[i]) for i in range(4)]
    assert abs(nn.cross_entropy(p, t) - np.mean(per)) < 1e-12
    with pytest.raises(ShapeError):
        nn.cross_entropy(np.full(3, 1 / 3), np.full(4, 0.25))


def test_kl_identical_distributions_is_zero():
    rng = np.random.default_rng(7)
    g = random_probs(rng, 5)
    assert nn.kl_div(g, g) == 0.0


def test_kl_onehot_reduces_to_neg_log():
    rng = np.random.default_rng(8)
    q = random_probs(rng, 4)
    g = np.array([0.0, 0.0, 1.0, 0.0])
    assert abs(nn.kl_div(g, q) - (-np.log(q[2]))) < 1e-12


def test_kl_frozen_value():
    got = nn.kl_div(np.array([0.7, 0.3]), np.array([0.5, 0.5]))
    assert abs(got - 0.08228287850505185) < 1e-12


def test_kl_matches_summation_oracle_and_nonneg():
    import math

    rng = np.random.default_rng(9)
    for _ in range(100):
        g = random_probs(rng, 5)
        q = random_probs(rng, 5)
        want = sum(float(gi) * math.log(float(gi) / max(float(qi), 1e-12))
                   for gi, qi in zip(g, q) if gi > 0)
        assert abs(nn.kl_div(g, q) - want) < 1e-12
        assert nn.kl_div(g, q) >= 0.0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kl_nonnegative_property(data):
    C = data.draw(st.integers(2, 6))
    raw_g = np.array(data.draw(st.lists(st.floats(1e-6, 1.0), min_size=C, max_size=C)))
    raw_q = np.array(data.draw(st.lists(st.floats(1e-6, 1.0), min_size=C, max_size=C)))
    g, q = raw_g / raw_g.sum(), raw_q / raw_q.sum()
    assert nn.kl_div(g, q) >= 0.0


def test_cross_entropy_equals_kl_plus_entropy():
    rng = np.random.default_rng(10)
    for _ in range(50):
        p = random_probs(rng, 6)
        q = random_probs(rng, 6)
        entropy = -(q * np.log(q)).sum()
        assert abs(nn.cross_entropy(p, q) - (nn.kl_div(q, p) + entropy)) < 1e-9


def test_backward_zero_loss_gives_zero_gradient():
    # single linear layer; with zero weights the prediction is uniform, so a
    # uniform target is the exact minimum of the cross-entropy
    params = nn.ModelParams(weights=[np.zeros((3, 2))], biases=[np.zeros(3)])
    batch = np.random.default_rng(0).normal(size=(4, 2))
    targets = np.full((4, 3), 1 / 3)
    _, grads = nn.backward(params, batch, targets)
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.weights + grads.biases)


def test_backward_cross_entropy_matches_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(10):
        params = random_net(rng)
        B = int(rng.integers(1, 5))
        batch = rng.normal(size=(B, params.layer_dims[0]))
        targets = random_probs(rng, (B, params.num_classes))
        _, analytic = nn.backward(params, batch, targets)

        def loss(p):
            return nn.cross_entropy(nn.softmax_t(nn.forward(p, batch), 1.0), targets)

        assert max_rel_error(analytic, fd_gradients(params, loss)) < 1e-4


def test_backward_kl_matches_finite_differences():
    rng = np.random.default_rng(22)
    for temperature in (1.0, 5.0):
        params = random_net(rng)
        B = int(rng.integers(1, 5))
        batch = rng.normal(size=(B, params.layer_dims[0]))
        targets = random_probs(rng, (B, params.num_classes))
        # scale 1/T turns the gradient of T * KL into that of the mean KL
        probs, analytic = nn.backward(params, batch, targets, temperature, 1.0 / temperature)
        assert np.array_equal(probs, nn.softmax_t(nn.forward(params, batch), temperature))

        def loss(p):
            return nn.kl_div(targets, nn.softmax_t(nn.forward(p, batch), temperature))

        assert max_rel_error(analytic, fd_gradients(params, loss)) < 1e-4


def test_backward_rejects_bad_targets_and_temperature():
    params = nn.init_params([2, 3], seed=0)
    with pytest.raises(ShapeError, match="targets shape"):
        nn.backward(params, np.zeros((2, 2)), np.full((2, 4), 0.25))
    with pytest.raises(ParameterError, match="temperature"):
        nn.backward(params, np.zeros((1, 2)), np.full((1, 3), 1 / 3), temperature=0.0)


def test_sgd_zero_gradient_is_fixed_point():
    params = nn.init_params([3, 4, 2], seed=1)
    updated = copy(params)
    nn.sgd_step(updated, nn.Gradients.zeros(params), nn.Gradients.zeros(updated),
                lr=0.5, momentum=0.9, weight_decay=0.0, scratch=np.empty_like(updated.flat))
    assert np.array_equal(updated.flat, params.flat)


def test_sgd_single_step_arithmetic():
    params = nn.ModelParams(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
    grads = nn.Gradients(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
    velocity = nn.Gradients.zeros(params)
    nn.sgd_step(params, grads, velocity, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert params.flat[0] == pytest.approx(0.9, abs=1e-15)
    assert velocity.flat[0] == pytest.approx(1.0, abs=1e-15)
    assert params.weights[0][0, 0] == params.flat[0]  # a view of the buffer


def test_sgd_three_step_trajectory_matches_hand_oracle():
    # hand-stepped before the build: p0=1, v0=0, lr=0.1, momentum=0.9,
    # weight_decay=1e-3, gradient sequence (1.0, 0.5, -0.25)
    expected = [(1.001, 0.8999), (1.4017999, 0.75972001), (1.01237963001, 0.658482046999)]
    params = nn.ModelParams(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
    velocity = nn.Gradients.zeros(params)
    scratch = np.empty_like(params.flat)
    for grad, (v_want, p_want) in zip((1.0, 0.5, -0.25), expected):
        grads = nn.Gradients(weights=[np.array([[grad]])], biases=[np.array([0.0])])
        nn.sgd_step(params, grads, velocity, lr=0.1, momentum=0.9, weight_decay=1e-3,
                    scratch=scratch)
        assert velocity.flat[0] == pytest.approx(v_want, abs=1e-12)
        assert params.flat[0] == pytest.approx(p_want, abs=1e-12)


def test_sgd_without_momentum_is_vanilla_gradient_descent():
    rng = np.random.default_rng(23)
    params = random_net(rng)
    grads = nn.Gradients(weights=[rng.normal(size=W.shape) for W in params.weights],
                         biases=[rng.normal(size=b.shape) for b in params.biases])
    updated = copy(params)
    nn.sgd_step(updated, grads, nn.Gradients.zeros(updated), lr=0.05, momentum=0.0,
                weight_decay=0.0)
    assert np.array_equal(updated.flat, params.flat - 0.05 * grads.flat)


def test_sgd_shape_mismatch():
    params = nn.init_params([2, 3], seed=0)
    # more entries, and as many entries in other shapes
    for grads in (nn.Gradients(weights=[np.zeros((4, 2))], biases=[np.zeros(4)]),
                  nn.Gradients(weights=[np.zeros((2, 3))], biases=[np.zeros(3)])):
        with pytest.raises(ShapeError, match="gradient shapes"):
            nn.sgd_step(params, grads, nn.Gradients.zeros(params), 0.1, 0.9, 0.0)


@pytest.mark.parametrize("with_scratch", [True, False], ids=["scratch", "no-scratch"])
def test_chunked_sgd_has_the_bits_of_whole_buffer_passes(with_scratch):
    """Three steps on a model of about 2.5 chunks, the last one short, give
    the bits of the six operations on the whole buffers, signs of zeros
    included."""
    rng = np.random.default_rng(26)
    rows = 5 * nn.SGD_CHUNK // 512
    params = nn.ModelParams(weights=[rng.normal(size=(rows, 256))], biases=[np.zeros(rows)])
    assert 2 * nn.SGD_CHUNK < params.flat.size < 3 * nn.SGD_CHUNK
    params.flat[::7] = -0.0
    W, v = params.flat.copy(), np.zeros_like(params.flat)
    velocity = nn.Gradients.zeros(params)
    scratch = np.empty_like(params.flat) if with_scratch else None
    for step in range(3):
        grads = nn.Gradients(weights=[rng.normal(size=(rows, 256))], biases=[np.zeros(rows)])
        grads.flat[::5] = -0.0 if step % 2 else 0.0
        nn.sgd_step(params, grads, velocity, lr=0.05, momentum=0.9, weight_decay=1e-3,
                    scratch=scratch)
        t = W * 1e-3
        t += grads.flat
        v *= 0.9
        v += t
        W -= v * 0.05
        assert velocity.flat.tobytes() == v.tobytes()
        assert params.flat.tobytes() == W.tobytes()
    assert np.signbit(W).any() and (W == 0.0).any()


def test_arrays_are_views_of_one_buffer_each():
    """A model's and a Gradients' arrays are copied into one buffer, weights
    then biases; `copy` and `backward(..., out=)` keep to that layout, and a
    step with a scratch buffer has the bits of one without."""
    rng = np.random.default_rng(25)
    W0, b0 = rng.normal(size=(4, 3)), rng.normal(size=4)
    params = nn.ModelParams(weights=[W0, rng.normal(size=(2, 4))], biases=[b0, np.zeros(2)])
    W0[0, 0] = 99.0  # the model holds a copy
    assert params.weights[0][0, 0] != 99.0
    assert np.array_equal(params.flat, np.concatenate(
        [a.ravel() for a in params.weights + params.biases]))
    assert params.layout == ((4, 3), (2, 4), (4,), (2,))
    for a in params.weights + params.biases:
        assert np.shares_memory(a, params.flat)
    copied = copy(params)
    assert not np.shares_memory(copied.flat, params.flat)
    assert copied.flat.tobytes() == params.flat.tobytes()

    batch, targets = rng.normal(size=(5, 3)), random_probs(rng, (5, 2))
    _, fresh = nn.backward(params, batch, targets)
    buffer = nn.Gradients.zeros(params)
    _, written = nn.backward(params, batch, targets, out=buffer)
    assert written is buffer and buffer.flat.tobytes() == fresh.flat.tobytes()
    with pytest.raises(ShapeError, match="gradient buffer shapes"):
        nn.backward(params, batch, targets, out=nn.Gradients.zeros(nn.init_params([3, 2], 0)))

    velocity, scratch = nn.Gradients.zeros(params), np.empty_like(params.flat)
    nn.sgd_step(params, fresh, velocity, 0.1, 0.9, 1e-3, scratch)
    nn.sgd_step(copied, fresh, nn.Gradients.zeros(copied), 0.1, 0.9, 1e-3)
    assert params.flat.tobytes() == copied.flat.tobytes()


def test_t2_compensated_gradient_converges_with_temperature():
    # gradient of T^2 * kl_div(softmax_t(z_t,T), softmax_t(z_s,T)) w.r.t. z_s
    # for the batch-mean loss over bounded logit vectors
    rng = np.random.default_rng(24)
    z_t = rng.uniform(-5, 5, size=(1000, 6))
    z_s = rng.uniform(-5, 5, size=(1000, 6))

    def grad_norm(T):
        g = nn.softmax_t(z_t, T)
        q = nn.softmax_t(z_s, T)
        return float(np.linalg.norm(T * (q - g) / z_s.shape[0]))

    assert abs(grad_norm(100.0) - grad_norm(200.0)) < 1e-3


def _compact(doc) -> bytes:
    """The stdlib's compact, sorted JSON of a checkpoint document."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False,
                       default=np.ndarray.tolist) + "\n").encode()


def test_checkpoint_roundtrip_is_byte_exact(tmp_path):
    params = nn.init_params([5, 7, 4], seed=13)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    nn.save_checkpoint(params, first)
    loaded = nn.load_checkpoint(first)
    nn.save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert nn.fingerprint(params) == nn.fingerprint(loaded)


def test_indented_checkpoint_loads_to_bit_equal_arrays(tmp_path):
    """A checkpoint in the indented form that older versions wrote loads to
    the same arrays, and saves again in the compact form."""
    params = nn.init_params([5, 7, 4], seed=13)
    params.weights[0][0, 0] = -0.0
    indented = tmp_path / "indented.ckpt"
    indented.write_text(json.dumps(nn.checkpoint_dict(params), indent=2, sort_keys=True,
                                   default=np.ndarray.tolist) + "\n")
    loaded = nn.load_checkpoint(indented)
    assert params_bytes(loaded) == params_bytes(params)
    assert loaded.rng_seed == params.rng_seed
    compact = tmp_path / "compact.ckpt"
    nn.save_checkpoint(loaded, compact)
    assert compact.stat().st_size < indented.stat().st_size
    assert hashlib.sha256(compact.read_bytes()).hexdigest() == nn.fingerprint(params)


def test_loaded_compact_checkpoint_keeps_its_bytes_until_changed(tmp_path):
    """A compact checkpoint that is not canonical (keys out of order) is
    fingerprinted and saved as read; changed in place, the model saves as
    the canonical encoding of its new state."""
    params = nn.init_params([5, 7, 4], seed=13)
    doc = nn.checkpoint_dict(params)
    written = (json.dumps(dict(reversed(doc.items())), separators=(",", ":"),
                          default=np.ndarray.tolist) + "\n").encode()
    assert written != _compact(doc)
    path = tmp_path / "reordered.ckpt"
    path.write_bytes(written)
    loaded = nn.load_checkpoint(path)
    assert nn.fingerprint(loaded) == hashlib.sha256(written).hexdigest()
    for name in ("same.ckpt", "again.ckpt"):  # every save, not only the first
        nn.save_checkpoint(loaded, tmp_path / name)
        assert (tmp_path / name).read_bytes() == written
        assert nn.fingerprint(loaded) == hashlib.sha256(written).hexdigest()

    loaded.weights[1][0, 0] += 1.0
    nn.save_checkpoint(loaded, tmp_path / "changed.ckpt")
    changed = (tmp_path / "changed.ckpt").read_bytes()
    assert changed == _compact(nn.checkpoint_dict(loaded)) != written
    assert nn.fingerprint(loaded) == hashlib.sha256(changed).hexdigest()


def _compact_variant(variant: str) -> bytes:
    doc = nn.checkpoint_dict(nn.init_params([5, 7, 4], seed=13))
    doc["weights"] = [W.tolist() for W in doc["weights"]]
    if variant == "unknown-field":
        doc["note"] = "x"
    elif variant == "boolean-weight":
        doc["weights"][0][0][0] = True
    elif variant in ("version-true", "version-float"):
        doc["format_version"] = True if variant == "version-true" else 1.0
    text = _compact(doc)
    if variant == "duplicate-key":  # json.loads keeps the last "weights"
        text = b'{"weights":[[[2.0]]],' + text[1:]
    return text


@pytest.mark.parametrize("variant", ["unknown-field", "duplicate-key", "version-true",
                                     "version-float", "boolean-weight"])
def test_compact_checkpoint_beyond_the_schema_saves_canonically(tmp_path, variant):
    """A compact checkpoint that holds more or other than the model it loads
    to (a field the loader does not read, a key given twice, a format
    version or a weight that is not a number of the schema's type) is not
    saved as read: the model saves and fingerprints as its canonical
    encoding, as an indented checkpoint does."""
    path = tmp_path / "variant.ckpt"
    path.write_bytes(_compact_variant(variant))
    loaded = nn.load_checkpoint(path)
    canonical = _compact(nn.checkpoint_dict(loaded))
    assert canonical != path.read_bytes()
    nn.save_checkpoint(loaded, tmp_path / "saved.ckpt")
    assert (tmp_path / "saved.ckpt").read_bytes() == canonical
    assert nn.fingerprint(loaded) == hashlib.sha256(canonical).hexdigest()


def test_checkpoint_of_a_stack_is_refused_before_writing(tmp_path):
    single = nn.init_params([5, 7, 4], seed=13)
    path = tmp_path / "stack.ckpt"
    with pytest.raises(ShapeError, match="not a stack of 2"):
        nn.save_checkpoint(stack([single, single]), path)
    assert not path.exists() and not list(tmp_path.iterdir())


def test_take_treats_a_single_model_as_a_stack_of_one():
    single = nn.init_params([5, 7, 4], seed=13)
    models = [nn.init_params([5, 7, 4], seed=s) for s in range(3)]
    stacked = stack(models)
    assert params_bytes(nn.take(single, [0, 0])) == params_bytes(nn.stack([single, single]))
    assert params_bytes(nn.take(single, 0)) == params_bytes(single)
    assert nn.take(stacked, 0).weights[0].shape == (7, 5)
    assert params_bytes(nn.take(stacked, 0)) == params_bytes(models[0])
    assert params_bytes(nn.take(stacked, [2, 0])) == params_bytes(stack([models[2], models[0]]))
    for model, count, index in ((single, 1, 1), (single, 1, [0, -1]), (stacked, 3, [0, 3]),
                                (stacked, 3, -1), (stacked, 3, 4)):
        with pytest.raises(ShapeError, match=f"of a stack of {count} models"):
            nn.take(model, index)


def test_checkpoint_rejects_bad_documents(tmp_path):
    from guidance_learn.errors import FormatError

    bad = tmp_path / "bad.ckpt"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(FormatError):
        nn.load_checkpoint(bad)
    bad.write_text('{"format_version": 99}', encoding="utf-8")
    with pytest.raises(FormatError, match="version"):
        nn.load_checkpoint(bad)


def test_fingerprint_tracks_parameter_changes():
    params = nn.init_params([3, 4, 2], seed=5)
    other = copy(params)
    other.weights[0][0, 0] += 1e-9
    assert nn.fingerprint(params) != nn.fingerprint(other)


def test_fingerprint_and_save_follow_in_place_changes(tmp_path):
    import hashlib

    params = nn.init_params([5, 7, 4], seed=13)
    before = nn.fingerprint(params)
    params.weights[1][2, 3] += 0.5
    params.biases[0][1] = -0.0
    after = nn.fingerprint(params)
    assert after != before
    assert after == nn.fingerprint(copy(params))
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(params, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == after
    assert params._encoding[2] is None  # the save keeps only the sha256

    params.weights[0][0, 0] = 2.0  # changed after its save: encoded again
    nn.save_checkpoint(params, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == nn.fingerprint(copy(params))
    assert nn.fingerprint(params) == nn.fingerprint(copy(params)) != after


def test_stacked_passes_equal_each_single_model_bitwise():
    """Forward, backward, losses and sgd_step on a [K, ...] stack with
    per-slice temperatures and scales give, slice by slice, the bytes of
    the single-model calls, for per-slice and for shared targets."""
    rng = np.random.default_rng(31)
    models = [nn.init_params([5, 7, 6, 4], seed=s) for s in range(3)]
    stacked = stack(models)
    batch = rng.normal(size=(9, 5))
    T = np.array([1.0, 2.5, 20.0])
    scale = np.array([0.0, 0.3, 7.0])
    logits = nn.forward(stacked, batch[0])
    for k, model in enumerate(models):
        assert logits[k].tobytes() == nn.forward(model, batch[0]).tobytes()
    for targets in (random_probs(rng, (3, 9, 4)), random_probs(rng, (9, 4))):
        q, grads = nn.backward(stacked, batch, targets, T, scale)
        stepped = copy(stacked)
        nn.sgd_step(stepped, grads, nn.Gradients.zeros(stepped), 0.1, 0.9, 1e-3)
        kl, ce = nn.kl_div(targets, q), nn.cross_entropy(q, targets)
        for k, model in enumerate(models):
            t_k = targets[k] if targets.ndim == 3 else targets
            q_k, g_k = nn.backward(model, batch, t_k, T[k], scale[k])
            s_k = copy(model)
            nn.sgd_step(s_k, g_k, nn.Gradients.zeros(s_k), 0.1, 0.9, 1e-3)
            assert q[k].tobytes() == q_k.tobytes()
            for got, want in zip(grads.weights + grads.biases + stepped.weights + stepped.biases,
                                 g_k.weights + g_k.biases + s_k.weights + s_k.biases):
                assert got[k].tobytes() == want.tobytes()
            assert (kl[k], ce[k]) == (nn.kl_div(t_k, q_k), nn.cross_entropy(q_k, t_k))


def _bits(a):
    return a.tobytes() + np.signbit(a).tobytes()


@pytest.mark.parametrize("B, d, h", [(64, 20, 64), (64, 256, 256), (17, 20, 64), (64, 64, 10)])
def test_per_slice_inputs_equal_each_single_model_bitwise(B, d, h):
    """forward and backward of a [K, ...] stack on per-slice inputs [K, B, d]
    give, slice by slice, the bits (signs of zeros included) of each model on
    its own rows; a shared [B, d] input gives those of each model on it."""
    rng = np.random.default_rng(B + d + h)
    models = [nn.init_params([d, h, 10], seed=s) for s in range(3)]
    stacked = stack(models)
    batches = rng.normal(size=(3, B, d))
    targets = random_probs(rng, (3, B, 10))
    T, scale = np.array([1.0, 2.5, 20.0]), np.array([0.0, 0.3, 7.0])
    for inputs, rows in ((batches, list(batches)), (batches[0], [batches[0]] * 3)):
        logits = nn.forward(stacked, inputs)
        q, grads = nn.backward(stacked, inputs, targets, T, scale)
        for k, (model, x) in enumerate(zip(models, rows)):
            assert _bits(logits[k]) == _bits(nn.forward(model, x))
            q_k, g_k = nn.backward(model, x, targets[k], T[k], scale[k])
            assert _bits(q[k]) == _bits(q_k)
            for got, want in zip(grads.weights + grads.biases, g_k.weights + g_k.biases):
                assert _bits(got[k]) == _bits(want)


def test_per_slice_inputs_need_a_stack_of_as_many_models():
    single = nn.init_params([4, 3, 2], seed=0)
    with pytest.raises(ShapeError, match="per-slice batch"):
        nn.forward(single, np.zeros((2, 5, 4)))
    with pytest.raises(ShapeError, match="per-slice batch"):
        nn.backward(stack([single, single]), np.zeros((3, 5, 4)), np.zeros((5, 2)))
    for per_slice in ({"temperature": np.array([1.0, 2.0])}, {"scale": np.array([1.0, 2.0])}):
        with pytest.raises(ShapeError, match="needs a stack of as many models"):
            nn.backward(single, np.zeros((5, 4)), np.full((5, 2), 0.5), **per_slice)
