import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from embhist import compression
from embhist.compression import (
    AEConfig, MatryoshkaAE, ae_train, dimension_correlation_probe, load_ae,
    prefix_mse, save_ae,
)
from embhist.errors import ConfigError, DataError, DimensionError, FormatError


def toy_embeddings(n=256, d=10, seed=0):
    rng = np.random.default_rng(seed)
    latent = rng.normal(0, 1, (n, 3))
    mix = rng.normal(0, 1, (3, d))
    return latent @ mix + 0.05 * rng.normal(0, 1, (n, d))


class TestTraining:
    def test_empty_set_rejected(self):
        with pytest.raises(DataError):
            ae_train(np.zeros((0, 4)), AEConfig(dims=(2, 4)))

    def test_loss_decreases(self):
        e = toy_embeddings()
        _, history = ae_train(e, AEConfig(dims=(2, 4, 8), epochs=30), seed=1)
        assert history[-1] < history[0]

    def test_identity_linear_init_reconstructs_exactly(self):
        cfg = AEConfig(dims=(6,), use_hidden=False, encoder_activation="linear",
                       epochs=0)
        ae = MatryoshkaAE(6, cfg, seed=0)
        ae.params.set_("enc.out.w", np.eye(6))
        ae.params.set_("dec6.out.w", np.eye(6))
        e = toy_embeddings(32, 6, 3)
        loss = float(ae.loss_fn(e)(ae.params)[0].value[0, 0])
        assert loss == pytest.approx(0.0, abs=1e-18)

    def test_constant_embeddings_absorbed_by_bias(self):
        e = np.tile(np.array([[0.7, -0.3, 1.2, 0.4]]), (64, 1))
        ae, history = ae_train(e, AEConfig(dims=(2, 4), epochs=150, lr=0.02), seed=2)
        assert prefix_mse(ae, e)[4] < 1e-3

    def test_prefix_mse_non_increasing(self):
        e = toy_embeddings(512, 12, 5)
        ae, _ = ae_train(e, AEConfig(dims=(2, 4, 8), epochs=80), seed=3)
        mse = prefix_mse(ae, e)
        assert mse[2] >= mse[4] >= mse[8]

    @pytest.mark.parametrize("cfg", [
        AEConfig(epochs=0),
        AEConfig(dims=(3, 5), use_hidden=False, encoder_activation="linear", epochs=0),
    ])
    def test_epoch0_loss_is_the_eager_loss_bit_for_bit(self, cfg):
        # ae_train sums the per-prefix terms itself, in the eager loss's order
        e = toy_embeddings(300, 32, 11)
        ae, history = ae_train(e, cfg, seed=6)
        assert history == [ae.loss_fn(e)(ae.params)[0].value[0, 0]]

    def test_training_leaves_input_embeddings_untouched(self):
        # the teacher is frozen input: its logged activations cannot change
        e = toy_embeddings(128, 8, 7)
        snapshot = e.copy()
        ae_train(e, AEConfig(dims=(2, 4), epochs=10), seed=0)
        assert np.array_equal(e, snapshot)


@pytest.fixture(scope="module")
def trained():
    e = toy_embeddings(256, 10, 9)
    ae, _ = ae_train(e, AEConfig(dims=(2, 4, 8), epochs=60), seed=4)
    return ae, e


class TestEncodeDecode:

    def test_code_strictly_inside_unit_box(self, trained):
        ae, e = trained
        z = ae.encode_batch(e)
        assert np.abs(z).max() < 1.0

    def test_encode_deterministic(self, trained):
        ae, e = trained
        assert np.array_equal(ae.encode_batch(e[:1]), ae.encode_batch(e[:1]))

    def test_dim_mismatch(self, trained):
        ae, _ = trained
        with pytest.raises(DimensionError):
            ae.encode_batch(np.zeros((1, 11)))

    def test_unknown_prefix_rejected(self, trained):
        ae, _ = trained
        with pytest.raises(ConfigError):
            ae.decode_prefix_batch(np.zeros((1, 3)), 3)

    def test_full_prefix_is_plain_autoencoder(self, trained):
        ae, e = trained
        z = ae.encode_batch(e[:1])
        full = ae.decode_prefix_batch(z, 8)
        assert full.shape == (1, 10)
        # the full-width decoder is the best of the prefix family
        mse = prefix_mse(ae, e)
        assert mse[8] == min(mse.values())

    def test_zero_code_zero_decoder_gives_zero(self):
        cfg = AEConfig(dims=(4,), use_hidden=False, encoder_activation="linear")
        ae = MatryoshkaAE(6, cfg, seed=0)
        ae.params.set_("dec4.out.w", np.zeros((4, 6)))
        assert np.array_equal(ae.decode_prefix_batch(np.zeros((1, 4)), 4), np.zeros((1, 6)))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        e = toy_embeddings(128, 6, 11)
        ae, _ = ae_train(e, AEConfig(dims=(2, 4), epochs=10), seed=5)
        path = tmp_path / "ae.lfmm"
        save_ae(path, ae)
        loaded = load_ae(path)
        assert loaded.config.dims == (2, 4)
        assert np.array_equal(loaded.encode_batch(e), ae.encode_batch(e))

    def test_linear_variant_not_persistable(self, tmp_path):
        cfg = AEConfig(dims=(4,), use_hidden=False, encoder_activation="linear")
        ae = MatryoshkaAE(4, cfg, seed=0)
        with pytest.raises(ConfigError):
            save_ae(tmp_path / "x.lfmm", ae)

    def test_round_trip_keeps_hidden_width(self, tmp_path):
        e = toy_embeddings(64, 6, 2)
        ae, _ = ae_train(e, AEConfig(dims=(2, 4), hidden_scale=3, epochs=2), seed=0)
        save_ae(tmp_path / "ae.lfmm", ae)
        loaded = load_ae(tmp_path / "ae.lfmm")
        assert loaded.config.hidden_scale == 3
        assert np.array_equal(loaded.encode_batch(e), ae.encode_batch(e))

    @pytest.mark.parametrize("dims", [(), (4, 2), (0,)], ids=["none", "descending", "zero"])
    def test_header_without_valid_dim_set_is_format_error(self, tmp_path, dims):
        from embhist.models import write_checkpoint

        ae = MatryoshkaAE(6, AEConfig(dims=(2, 4)), seed=0)
        write_checkpoint(tmp_path / "x.lfmm", ae.params, schema_hash=6, extra_dims=dims)
        with pytest.raises(FormatError):
            load_ae(tmp_path / "x.lfmm")

    # (2, 16): the 8-wide hidden layer is narrower than the code, hidden_scale 0
    @pytest.mark.parametrize("in_dim,dims", [(7, (2, 4)), (6, (2, 8)), (6, (2, 16))],
                             ids=["input_width", "dim_set", "hidden_below_code"])
    def test_weights_not_matching_header_are_format_error(self, tmp_path, in_dim, dims):
        from embhist.models import write_checkpoint

        ae = MatryoshkaAE(6, AEConfig(dims=(2, 4)), seed=0)
        write_checkpoint(tmp_path / "x.lfmm", ae.params, schema_hash=in_dim, extra_dims=dims)
        with pytest.raises(FormatError):
            load_ae(tmp_path / "x.lfmm")

    def test_header_dim_without_weights_allocates_nothing(self, tmp_path):
        """A 2,370-byte checkpoint whose header adds the dim 2**23 fails before
        the model is built; building it first would take 64 MB."""
        from embhist.models import write_checkpoint

        ae = MatryoshkaAE(6, AEConfig(dims=(2, 4)), seed=0)
        path = tmp_path / "x.lfmm"
        write_checkpoint(path, ae.params, schema_hash=6, extra_dims=(2, 4, 2**23))
        with pytest.raises(FormatError):
            load_ae(path)
        # Linux carries a process's peak RSS across exec, so a child of the test
        # runner starts at the runner's peak; a process forked from a fresh
        # interpreter starts at that interpreter's size instead
        probe = (
            "import os, resource, sys\n"
            "from embhist.compression import load_ae\n"
            "from embhist.errors import FormatError\n"
            "pid = os.fork()\n"
            "if pid:\n"
            "    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "try:\n"
            "    load_ae(sys.argv[1])\n"
            "except FormatError:\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, flush=True)\n"
            "os._exit(0)\n"
        )
        src = str(Path(compression.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", probe, str(path)], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
        assert int(out.stdout) < 8 * 1024  # ru_maxrss is in KiB on Linux


class TestCorrelationProbe:
    def test_rank_agreement_positive_when_aligned(self):
        rng = np.random.default_rng(13)
        n, d = 2000, 6
        signal = rng.normal(0, 1, n)
        z = np.outer(signal, rng.uniform(0.2, 1.0, d)) + 0.3 * rng.normal(0, 1, (n, d))
        soft = 1 / (1 + np.exp(-signal))
        labels = (rng.uniform(0, 1, n) < soft).astype(float)
        _, _, rho = dimension_correlation_probe(z, soft, labels)
        assert rho > 0.5

    @pytest.mark.parametrize("ties", [False, True])
    def test_rho_matches_scipy_spearman(self, ties):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(21)
        for _ in range(200):
            n, d = int(rng.integers(4, 40)), int(rng.integers(3, 12))
            z = rng.normal(0, 1, (n, d))
            if ties:
                # a copied column ties exactly; constant columns tie at 0
                z[:, 1] = z[:, 0]
                z[:, 2] = 1.0
                z[:, d - 1] = -2.0
            soft = rng.uniform(0, 1, n)
            labels = (rng.uniform(0, 1, n) < soft).astype(float)
            corr_soft, corr_true, rho = dimension_correlation_probe(z, soft, labels)
            assert (len(np.unique(corr_soft)) < d) == ties
            assert rho == pytest.approx(spearmanr(corr_soft, corr_true).statistic, abs=1e-12)

    def test_constant_profile_gives_nan_without_warning(self):
        rng = np.random.default_rng(5)
        z = rng.normal(0, 1, (50, 6))
        labels = rng.integers(0, 2, 50).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corr_soft, _, rho = dimension_correlation_probe(z, np.full(50, 0.5), labels)
        assert not corr_soft.any()
        assert math.isnan(rho)
