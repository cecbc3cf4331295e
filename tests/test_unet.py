"""Network assembly: shape laws, init, parameter ledger, checkpoints."""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sinoquad.autograd as ag
import sinoquad.unet as unet_mod
from sinoquad.io_formats import (
    BadMagicError,
    TomoFormatError,
    TruncatedFileError,
    UnsupportedVersionError,
)
from sinoquad.unet import (
    CHECKPOINT_MAGIC,
    UNet,
    UNetConfig,
    load_checkpoint,
    save_checkpoint,
)


def layer_arithmetic(base, bottleneck):
    """Per-layer parameter tally, written out independently of the model."""
    down = [base, 2 * base, 4 * base, 8 * base]

    def conv(cin, cout, k):
        return cout * (cin * k * k + 1)

    total, prev = 0, 1
    for c in down:
        total += conv(prev, c, 3) + conv(c, c, 3)
        prev = c
    total += conv(prev, bottleneck, 3) + conv(bottleneck, bottleneck, 3)
    prev = bottleneck
    for c in reversed(down):
        total += c * (prev * 4 + 1)  # 2x2 transposed kernel
        total += conv(2 * c, c, 3) + conv(c, c, 3)
        prev = c
    for _ in range(2):
        total += base * (prev * 4 + 1)
        total += conv(base, base, 3) + conv(base, base, 3)
        prev = base
    return total + conv(base, 1, 1)


class TestConfig:
    def test_defaults(self):
        assert [f.name for f in dataclasses.fields(UNetConfig)] == ["base_channels"]
        assert UNetConfig().base_channels == 32

    def test_bottleneck_scales_with_base(self):
        shapes = dict(unet_mod._layer_table(UNetConfig(base_channels=4)))
        assert shapes["bottleneck_conv1_w"][0] == shapes["bottleneck_conv2_w"][0] == 64

    @pytest.mark.parametrize("kwargs,hint", [
        ({"base_channels": 0}, "base_channels"),
    ])
    def test_rejects_bad_fields(self, kwargs, hint):
        with pytest.raises(ValueError, match=hint):
            UNetConfig(**kwargs)

    @pytest.mark.parametrize("angles,bins", [(24, 128), (32, 100)])
    def test_extents_must_survive_four_poolings(self, angles, bins):
        with pytest.raises(ag.ShapeMismatchError, match="divisible by 16"):
            unet_mod.check_extents(angles, bins)
        unet_mod.check_extents(angles - angles % 16, bins - bins % 16)

    def test_view_factor_is_the_networks_output_ratio(self):
        out = UNet(UNetConfig(base_channels=1)).predict(np.zeros((1, 1, 16, 16), np.float32))
        assert out.shape[2] == unet_mod.VIEW_FACTOR * 16 == 64


BUILD_RSS = """
from sinoquad.unet import UNet, UNetConfig

def vm_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmRSS:"))

before = vm_rss()
model = UNet(UNetConfig(base_channels=32))
print(vm_rss() - before, sum(p.data.nbytes for p in model.parameters()))
"""


def run_python(code: str, threads: int = 1) -> str:
    """stdout of code run by a fresh interpreter on this package, at a BLAS thread count."""
    # BLAS reads its thread count when it loads, so it is set in the environment
    src = str(Path(unet_mod.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    env.update({v: str(threads) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=300).stdout.strip()


class TestParameterLedger:
    def test_default_count_frozen_value(self):
        assert layer_arithmetic(32, 512) == 7_804_769
        model = UNet(UNetConfig())
        assert sum(p.data.size for p in model.params.values()) == 7_804_769

    @pytest.mark.parametrize("base", [1, 2, 8])
    def test_count_matches_arithmetic_for_other_widths(self, base):
        cfg = UNetConfig(base_channels=base)
        params = UNet(cfg).params.values()
        assert sum(p.data.size for p in params) == layer_arithmetic(base, 16 * base)

    def test_biases_start_at_zero_weights_bounded(self):
        model = UNet(UNetConfig(base_channels=4), seed=3)
        for name, p in model.params.items():
            if name.endswith("_b"):
                assert (p.data == 0).all()
            else:
                shape = p.data.shape
                fan_in = shape[1] * shape[2] * shape[3]
                limit = np.sqrt(6.0 / fan_in)
                assert np.abs(p.data).max() <= limit
                assert np.abs(p.data).max() > 0.5 * limit  # actually spread out

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
    def test_adam_moments_take_no_memory_until_written(self):
        # weights plus two written moment buffers would be three times the weights
        grown, weights = map(int, run_python(BUILD_RSS).split())
        assert weights > 25e6
        assert grown < 2 * weights, f"building grew VmRSS by {grown / weights:.2f}x the weights"

    def test_init_deterministic_per_seed(self):
        a = UNet(UNetConfig(base_channels=2), seed=9)
        b = UNet(UNetConfig(base_channels=2), seed=9)
        c = UNet(UNetConfig(base_channels=2), seed=10)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
        assert any(
            not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params
        )


class TestForwardShapes:
    @pytest.mark.parametrize("angles,bins", [(32, 128), (32, 256), (16, 16), (48, 64)])
    def test_angle_axis_quadrupled(self, angles, bins):
        model = UNet(UNetConfig(base_channels=2))
        x = np.random.default_rng(0).random((1, 1, angles, bins), dtype=np.float32)
        out = model.predict(x)
        assert out.shape == (1, 1, 4 * angles, bins)

    def test_minimal_width_model_runs(self):
        model = UNet(UNetConfig(base_channels=1))
        out = model.predict(np.zeros((1, 1, 16, 16), dtype=np.float32))
        assert out.shape == (1, 1, 64, 16)

    def test_skip_concat_shapes(self, monkeypatch):
        recorded = []
        original = ag.concat_channels

        def spy(a, b):
            recorded.append(tuple(b.shape[1:]))
            return original(a, b)

        monkeypatch.setattr(unet_mod.ag, "concat_channels", spy)
        UNet(UNetConfig()).predict(np.zeros((1, 1, 32, 128), dtype=np.float32))
        assert recorded == [(256, 4, 16), (128, 8, 32), (64, 16, 64), (32, 32, 128)]

    @pytest.mark.parametrize("shape,hint", [
        ((1, 1, 30, 128), "divisible by 16"),
        ((1, 1, 32, 120), "divisible by 16"),
        ((1, 2, 32, 128), "B,1,angles,bins"),
        ((32, 128), "B,1,angles,bins"),
    ])
    def test_invalid_inputs_rejected(self, shape, hint):
        model = UNet(UNetConfig(base_channels=1))
        with pytest.raises(ag.ShapeMismatchError, match=hint):
            model.forward(np.zeros(shape, dtype=np.float32))


class TestForwardSemantics:
    def test_zero_input_zero_head_gives_zero_output(self):
        model = UNet(UNetConfig(base_channels=2))
        model.params["head_w"].data = np.zeros_like(model.params["head_w"].data)
        out = model.predict(np.zeros((1, 1, 16, 16), dtype=np.float32))
        assert (out == 0).all()

    def test_forward_deterministic(self):
        model = UNet(UNetConfig(base_channels=2), seed=4)
        x = np.random.default_rng(1).random((2, 1, 16, 32), dtype=np.float32)
        np.testing.assert_array_equal(model.predict(x), model.predict(x))

    def test_inference_clamps_training_does_not(self):
        model = UNet(UNetConfig(base_channels=2), seed=0)
        model.params["head_b"].data = np.array([-10.0], dtype=np.float32)
        x = np.random.default_rng(2).random((1, 1, 16, 16), dtype=np.float32)
        raw = model.forward(x, training=True).data
        clamped = model.predict(x)
        assert raw.min() < 0
        assert clamped.min() >= 0
        np.testing.assert_array_equal(clamped, np.maximum(raw, 0.0))

    def test_gradient_reaches_every_parameter(self):
        model = UNet(UNetConfig(base_channels=2), seed=6)
        rng = np.random.default_rng(3)
        x = rng.random((2, 1, 16, 16), dtype=np.float32)
        target = rng.random((2, 1, 64, 16), dtype=np.float32)
        out = model.forward(x, training=True)
        ag.mse_loss(out, ag.Tensor(target)).backward()
        for p in model.parameters():
            assert p.grad is not None and np.any(p.grad != 0), p.name


    def test_same_seed_training_steps_are_byte_identical(self):
        rng = np.random.default_rng(8)
        x = rng.random((2, 1, 16, 64), dtype=np.float32)
        target = rng.random((2, 1, 64, 64), dtype=np.float32)
        runs = []
        for _ in range(2):
            model = UNet(UNetConfig(base_channels=2), seed=5)
            preds = []
            for _ in range(3):
                out = model.forward(x, training=True)
                ag.mse_loss(out, ag.Tensor(target)).backward()
                ag.adam_step(model.parameters(), lr=1e-3)
                preds.append(out.data.tobytes())
            runs.append((preds, [p.data.tobytes() for p in model.parameters()]))
        assert runs[0] == runs[1]

    def test_training_steps_hold_one_graph(self):
        # out and loss are rebound each step, as in trainer.train; backward
        # frees each step's graph, so no step holds the last one's
        rng = np.random.default_rng(8)
        x = rng.random((2, 1, 32, 128), dtype=np.float32)
        target = rng.random((2, 1, 128, 128), dtype=np.float32)
        model = UNet(UNetConfig(base_channels=2), seed=5)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(3):
                out = model.forward(x, training=True)
                loss = ag.mse_loss(out, ag.Tensor(target))
                loss.backward()
                ag.adam_step(model.parameters(), lr=1e-3)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] <= 1.25 * peaks[0]


class TestStepMemory:
    """What one training step holds at the benchmark's shapes: base 8, B=8,
    32x128 in, 128x128 out."""

    def batch(self):
        rng = np.random.default_rng(7)
        return (rng.random((8, 1, 32, 128), dtype=np.float32),
                rng.random((8, 1, 128, 128), dtype=np.float32))

    def test_step_peak_is_pinned(self):
        # 48.5 MiB; a conv that keeps its pre-activation for a separate relu
        # and holds each backward temporary to the end makes it 64.2
        model = UNet(UNetConfig(base_channels=8), seed=3)
        x, target = self.batch()
        tracemalloc.start()
        try:
            out = model.forward(x, training=True)
            ag.mse_loss(out, ag.Tensor(target)).backward()
            ag.adam_step(model.parameters(), lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50 * 2**20, f"step peak {peak / 2**20:.1f} MiB"

    def test_forward_graph_keeps_one_activation_per_layer(self):
        model = UNet(UNetConfig(base_channels=8), seed=3)
        x, _ = self.batch()
        tracemalloc.start()
        try:
            out = model.forward(x, training=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        nodes, stack = {}, [out]
        while stack:
            t = stack.pop()
            if id(t) not in nodes:
                nodes[id(t)] = t
                stack.extend(t._parents)
        ops = [t for t in nodes.values() if t._parents]
        layers = sum(name.endswith("_w") for name, _ in unet_mod._layer_table(model.config))
        # one output per conv and transposed conv, plus four pools and four
        # concats: no node is a ReLU whose parent keeps the pre-activation
        assert len(ops) == layers + 8 == 37
        kept = sum(t.data.nbytes for t in ops)
        assert kept == 33_783_808  # 32.2 MiB; 51.8 MiB with the pre-activations
        assert kept <= held <= kept + 2**20  # and nothing else of that size


# Three same-seed Adam steps of a base-2 UNet; prints the SHA-1 of the
# parameters' bytes. Run as a separate process, so nothing is shared.
TRAIN_STEPS = """
import hashlib
import numpy as np
import sinoquad.autograd as ag
from sinoquad.unet import UNet, UNetConfig

rng = np.random.default_rng(8)
x = rng.random((2, 1, 16, 64), dtype=np.float32)
target = rng.random((2, 1, 64, 64), dtype=np.float32)
model = UNet(UNetConfig(base_channels=2), seed=5)
for _ in range(3):
    ag.mse_loss(model.forward(x, training=True), ag.Tensor(target)).backward()
    ag.adam_step(model.parameters(), lr=1e-3)
print(hashlib.sha1(b"".join(p.data.tobytes() for p in model.parameters())).hexdigest())
"""


def test_same_seed_steps_byte_identical_across_processes_at_one_blas_thread():
    # results at different BLAS thread counts may differ
    digests = [run_python(TRAIN_STEPS) for _ in range(2)]
    assert len(digests[0]) == 40
    assert digests[0] == digests[1]


# Three Adam steps of trainer.train at the benchmark's shapes (base 8, B=8,
# 32x128 in, 128x128 out) on nine random pairs, eight to train and one to
# validate; prints the SHA-1 of the trained parameters and of a prediction.
TRAIN_AT_BASE_8 = """
import hashlib, sys
from pathlib import Path
import numpy as np
from sinoquad.geometry import Sinogram
from sinoquad.io_formats import write_manifest, write_tomo
from sinoquad.trainer import TrainConfig, train

root = Path(sys.argv[1])
rng = np.random.default_rng(8)
rows = []
for i in range(9):
    write_tomo(root / f"in{i}.sptb", Sinogram(rng.random((32, 128), dtype=np.float32) + 0.5))
    write_tomo(root / f"out{i}.sptb", Sinogram(rng.random((128, 128), dtype=np.float32)))
    rows.append({"input": f"in{i}.sptb", "target": f"out{i}.sptb", "phantom": "",
                 "seed": i, "noise": "low"})
write_manifest(root / "manifest.jsonl", rows)
model, history = train(TrainConfig(str(root / "manifest.jsonl"), epochs=3, batch_size=8,
                                   base_channels=8, seed=4), verbose=False)
x = rng.random((8, 1, 32, 128), dtype=np.float32)
print(hashlib.sha1(b"".join(p.data.tobytes() for p in model.parameters())).hexdigest(),
      hashlib.sha1(model.predict(x).tobytes()).hexdigest())
"""


def test_training_and_prediction_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # train and predict pin numpy's BLAS to one thread whatever the environment says
    digests = []
    for threads in (1, 2):
        (tmp_path / str(threads)).mkdir()
        code = TRAIN_AT_BASE_8.replace("sys.argv[1]", repr(str(tmp_path / str(threads))))
        digests.append(run_python(code, threads))
    assert len(digests[0]) == 81
    assert digests[0] == digests[1]


class TestCheckpoint:
    def small_model(self, seed=7):
        return UNet(UNetConfig(base_channels=2), seed=seed)

    def test_round_trip_forward_bit_identical(self, tmp_path):
        path = tmp_path / "model.sptc"
        model = self.small_model()
        # perturb away from init so the test can't pass by rebuild alone
        for p in model.parameters():
            p.data = p.data + 0.01
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        x = np.random.default_rng(4).random((1, 1, 32, 128), dtype=np.float32)
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))

    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch):
        path = tmp_path / "model.sptc"
        model = self.small_model()
        for p in model.parameters():
            p.data = p.data + 0.01
        save_checkpoint(model, path)

        def no_draws(gen, shape):
            raise AssertionError(f"drew initial weights of shape {shape}")

        monkeypatch.setattr(unet_mod, "_he_uniform", no_draws)
        loaded = load_checkpoint(path)
        assert list(loaded.params) == list(model.params)
        for name, p in loaded.params.items():
            assert p.data.dtype == np.float32 and p.data.flags.writeable
            assert p.data.tobytes() == model.params[name].data.tobytes()

    def test_given_weights_must_match_the_layer_table(self):
        model = self.small_model()
        weights = {name: p.data for name, p in model.params.items()}
        weights["head_b"] = np.zeros(2, dtype=np.float32)
        with pytest.raises(ag.ShapeMismatchError, match="'head_b' has shape"):
            UNet(model.config, weights=weights)

    def test_failed_save_keeps_old_checkpoint(self, tmp_path):
        path = tmp_path / "model.sptc"
        save_checkpoint(self.small_model(seed=1), path)
        old = path.read_bytes()
        model = self.small_model(seed=2)
        last = list(model.params)[-1]
        model.params[last].data = np.array(["not a number"], dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(model, path)  # fails after every other array is serialized
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.sptc"]

    def test_magic_prefix(self, tmp_path):
        path = tmp_path / "model.sptc"
        save_checkpoint(self.small_model(), path)
        assert path.read_bytes()[:8] == CHECKPOINT_MAGIC

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "model.sptc"
        save_checkpoint(self.small_model(), path)
        clipped = tmp_path / "clipped.sptc"
        clipped.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(TruncatedFileError, match="truncated"):
            load_checkpoint(clipped)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "model.sptc"
        save_checkpoint(self.small_model(), path)
        clipped = tmp_path / "clipped.sptc"
        clipped.write_bytes(path.read_bytes()[:20])
        with pytest.raises(TruncatedFileError, match="header"):
            load_checkpoint(clipped)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.sptc"
        save_checkpoint(self.small_model(), path)
        bad = tmp_path / "bad.sptc"
        bad.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(BadMagicError, match="magic"):
            load_checkpoint(bad)

    def test_future_version(self, tmp_path):
        path = tmp_path / "model.sptc"
        save_checkpoint(self.small_model(), path)
        bad = tmp_path / "bad.sptc"
        bad.write_bytes(b"SPTC0002" + path.read_bytes()[8:])
        with pytest.raises(UnsupportedVersionError, match="0002"):
            load_checkpoint(bad)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.sptc"
        save_checkpoint(self.small_model(), path)
        bad = tmp_path / "bad.sptc"
        bad.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TomoFormatError, match="trailing"):
            load_checkpoint(bad)

    def test_array_table_must_match_config(self, tmp_path):
        import json
        import struct

        path = tmp_path / "model.sptc"
        save_checkpoint(self.small_model(), path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + hlen])
        header["arrays"][0][1] = [9, 9, 9, 9]
        doctored = json.dumps(header, sort_keys=True).encode()
        bad = tmp_path / "bad.sptc"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(doctored)) + doctored + blob[12 + hlen:])
        with pytest.raises(TomoFormatError, match="does not match"):
            load_checkpoint(bad)

    def test_header_config_is_the_width_alone(self, tmp_path):
        path = tmp_path / "model.sptc"
        save_checkpoint(self.small_model(), path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        assert json.loads(blob[12 : 12 + hlen])["config"] == {"base_channels": 2}

    @staticmethod
    def with_header(src, dst, **fields):
        """Copy checkpoint src to dst with some of its header's fields replaced."""
        blob = src.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = {**json.loads(blob[12 : 12 + hlen]), **fields}
        text = json.dumps(header, sort_keys=True).encode()
        dst.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen:])

    # the header older writers gave a base-2 model
    FIVE_KEYS = {"base_channels": 2, "bottleneck_channels": 32, "detector_bins": 128,
                 "in_angles": 32, "out_angles": 128}

    @pytest.mark.parametrize("edit", [{}, {"bottleneck_channels": None},
                                      {"in_angles": 16, "out_angles": 64, "detector_bins": 64}])
    def test_loads_five_key_headers_bit_for_bit(self, tmp_path, edit):
        model = self.small_model()
        for p in model.parameters():
            p.data = p.data + 0.01
        path, old = tmp_path / "model.sptc", tmp_path / "old.sptc"
        save_checkpoint(model, path)
        self.with_header(path, old, config={**self.FIVE_KEYS, **edit})
        loaded = load_checkpoint(old)
        assert loaded.config == model.config
        x = np.random.default_rng(5).random((1, 1, 16, 64), dtype=np.float32)
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))

    @pytest.mark.parametrize("fields", [
        {"dtype": "f16"}, {"normalization": "per_sinogram_mean"}, {"dtype": None},
    ], ids=["f16", "mean-normalized", "null-dtype"])
    def test_header_dtype_and_normalization_are_checked(self, tmp_path, fields):
        path, bad = tmp_path / "model.sptc", tmp_path / "bad.sptc"
        save_checkpoint(self.small_model(), path)
        self.with_header(path, bad, **fields)
        (key, value), = fields.items()
        with pytest.raises(TomoFormatError, match=f"{key} {value!r}"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit,error,hint", [
        ({"in_angles": "32"}, TomoFormatError, "no valid UNetConfig"),
        ({"bottleneck_channels": 2.5}, TomoFormatError, "no valid UNetConfig"),
        ({"base_channels": 0}, TomoFormatError, "base_channels must be >= 1"),
    ], ids=["string-angles", "float-bottleneck", "zero-width"])
    def test_five_key_headers_keep_their_checks(self, tmp_path, edit, error, hint):
        path, old = tmp_path / "model.sptc", tmp_path / "old.sptc"
        save_checkpoint(self.small_model(), path)
        self.with_header(path, old, config={**self.FIVE_KEYS, **edit})
        with pytest.raises(error, match=hint):
            load_checkpoint(old)

    def test_non_default_bottleneck_is_refused(self, tmp_path):
        # the array table an older writer gave a base-2 model with a 16-wide bottleneck
        narrow = {"bottleneck_conv1_w": [16, 16, 3, 3], "bottleneck_conv1_b": [16],
                  "bottleneck_conv2_w": [16, 16, 3, 3], "bottleneck_conv2_b": [16],
                  "up0_convt_w": [16, 16, 2, 2]}
        arrays = [[name, narrow.get(name, list(shape))]
                  for name, shape in unet_mod._layer_table(UNetConfig(base_channels=2))]
        path, old = tmp_path / "model.sptc", tmp_path / "old.sptc"
        save_checkpoint(self.small_model(), path)
        self.with_header(path, old, config={**self.FIVE_KEYS, "bottleneck_channels": 16},
                         arrays=arrays)
        with pytest.raises(TomoFormatError, match="does not match"):
            load_checkpoint(old)

    def test_short_file_allocates_no_model(self, tmp_path):
        import json
        import struct
        import tracemalloc

        # a valid header for a base-48 model (about 50 M weights) and no payload
        config = UNetConfig(base_channels=48)
        header = {
            "config": {"base_channels": 48}, "normalization": "per_sinogram_max",
            "dtype": "f32",
            "arrays": [[name, list(shape)] for name, shape in unet_mod._layer_table(config)],
        }
        blob = json.dumps(header).encode()
        path = tmp_path / "short.sptc"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFileError, match="truncated"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"{peak / 1e6:.0f} MB allocated for a {len(blob) + 12}-byte file"
