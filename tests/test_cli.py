import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from embhist.cli import load_config, main
from embhist.pipeline import ExperimentConfig

REPO = Path(__file__).resolve().parents[1]

CONFIG = """
[world]
n_users = 36
events_per_user = 32
vm_cardinalities = 3,2
extra_cardinalities = 2,2
vm_weights = 0.7,-0.55
extra_weights = 1.0,-0.8
base_logit = -1.4
temporal_window = 8
temporal_cap = 4
beta_temporal = 0.35

[fm]
embed_dim = 4
hidden = 16,8,4
history_len = 4
epochs = 2

[ae]
dims = 4,8
epochs = 15

[experiment]
layer = hidden_0
active_dim = 8
codec_kind = int4_kmeans
seq_len = 8
seeds = 0
arms = baseline,kd_emb_hist
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG)
    return str(path)


def test_load_config_round_trips_values(config_path):
    cfg = load_config(config_path)
    assert cfg.world.n_users == 36
    assert cfg.fm.hidden == (16, 8, 4)
    assert cfg.ae.dims == (4, 8)
    assert cfg.active_dim == 8
    assert cfg.arms == ("baseline", "kd_emb_hist")


def readme_config_block():
    text = (REPO / "README.md").read_text()
    return text.split("## Config schema (INI)")[1].split("```ini")[1].split("```")[0]


@pytest.mark.parametrize("source", ["readme", "example"])
def test_documented_configs_load(tmp_path, source):
    path = REPO / "scripts" / "example_config.ini"
    if source == "readme":
        path = tmp_path / "readme.ini"
        path.write_text(readme_config_block())
    cfg = load_config(path)
    if source == "readme":
        # the documented block spells out the defaults, apart from its seeds
        assert cfg == replace(ExperimentConfig(), seeds=(0, 1, 2, 3, 4), event_log_path="")
    else:
        assert cfg.world.n_users == 128 and cfg.fm.epochs == 3 and cfg.seeds == (0, 1)


@pytest.mark.parametrize("text,message", [
    ("[fm]\nepoch = 1\n", "unknown key"), ("[experimnt]\nseeds = 0\n", "unknown section"),
    ("[vm]\nseq_dim = 8\n", "unknown key"), ("[world]\nvm_feature_probs = 0.5\n", "unknown key"),
    ("[fm]\nepochs = 1\n[extra]\n", "unknown section"),
    ("epochs = 1\n", "no section headers"), ("[fm]\nepochs = 1\nepochs = 2\n", "already exists"),
], ids=["key", "section", "seq_dim", "probs", "extra_section", "no_header", "duplicate"])
def test_unknown_or_malformed_config_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "typo.ini"
    path.write_text(text)
    rc = main(["gen-world", "--config", str(path), "--out", str(tmp_path / "x.tsv")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["gen-world", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "x.tsv")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nactive_dim = 12\n")
    rc = main(["run-experiment", "--config", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_missing_artifact_exits_4(tmp_path, capsys):
    rc = main(["report", "--run", str(tmp_path / "absent")])
    assert rc == 4


def test_staged_pipeline_end_to_end(config_path, tmp_path, capsys):
    art = tmp_path / "artifacts"
    steps = [
        ["gen-world", "--out", str(art / "events.tsv")],
        ["train-fm", "--events", str(art / "events.tsv"),
         "--out", str(art / "fm.lfmm")],
        ["extract", "--events", str(art / "events.tsv"),
         "--fm", str(art / "fm.lfmm"), "--out", str(art / "teacher.npz")],
        ["train-ae", "--teacher", str(art / "teacher.npz"),
         "--out", str(art / "ae.lfmm")],
        ["quantize", "--teacher", str(art / "teacher.npz"),
         "--ae", str(art / "ae.lfmm"), "--out", str(art / "codec.json")],
        ["build-store", "--teacher", str(art / "teacher.npz"),
         "--ae", str(art / "ae.lfmm"), "--codec", str(art / "codec.json"),
         "--out", str(art / "store.lfsq")],
        ["train-vm", "--events", str(art / "events.tsv"),
         "--arm", "kd_emb_hist", "--store", str(art / "store.lfsq"),
         "--teacher", str(art / "teacher.npz"), "--out", str(art / "vm.lfmm")],
        ["eval", "--events", str(art / "events.tsv"), "--vm", str(art / "vm.lfmm"),
         "--arm", "kd_emb_hist", "--store", str(art / "store.lfsq"),
         "--teacher", str(art / "teacher.npz")],
    ]
    for step in steps:
        rc = main(step + ["--config", config_path, "--seed", "0"])
        assert rc == 0, f"step {step[0]} failed"
    out = capsys.readouterr().out
    assert "auc=" in out

    codec = json.loads((art / "codec.json").read_text())
    assert codec["kind"] == "int4_kmeans"
    assert len(codec["codebook"]) == 16
    assert np.all(np.diff(codec["codebook"]) > 0)


def test_run_experiment_and_report(config_path, tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["run-experiment", "--config", config_path, "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "report.tsv").exists()
    rc = main(["report", "--run", str(out_dir)])
    assert rc == 0
    assert "kd_emb_hist" in capsys.readouterr().out


def test_verify_theory_quick(tmp_path, capsys):
    rc = main(["verify-theory", "--worlds", "2", "--no-tr",
               "--out", str(tmp_path / "theory")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ALL CHECKS PASSED" in out
    assert (tmp_path / "theory" / "theory_checks.tsv").exists()


def test_verify_theory_failure_exits_3(monkeypatch, capsys):
    from embhist import pipeline

    def fake_battery(n_worlds=20, seed=0):
        return pipeline.TheorySuiteResult(
            [pipeline.TheoryCheck("fabricated", "w0", 1.0, 0.0, False)]
        )

    monkeypatch.setattr(pipeline, "theory_battery", fake_battery)
    rc = main(["verify-theory", "--worlds", "1", "--no-tr"])
    assert rc == 3
    assert "verification failure" in capsys.readouterr().err


def test_ablate_axis_writes_table(config_path, tmp_path):
    rc = main(["ablate", "codec", "--config", config_path,
               "--out", str(tmp_path / "abl")])
    assert rc == 0
    table = (tmp_path / "abl" / "codec.tsv").read_text()
    assert "int4_kmeans" in table and "codec_mse" in table


def teacher_columns(n=8, width=3):
    return dict(keys=np.arange(n), timestamps=np.arange(n), chunks=np.full(n, 4),
                labels=np.arange(n) % 2, soft=np.full(n, 0.5), emb=np.zeros((n, width)))


@pytest.mark.parametrize("text", [
    "{not json", '{"codebook": []}', '{"kind": "int4_kmeans"}',
    '{"kind": "int4_kmeans", "codebook": null}', '["fp32"]',
    '{"kind": "int4_kmeans", "codebook": ' + json.dumps(["a"] * 16) + "}",
])
def test_malformed_codec_descriptor_exits_4(tmp_path, capsys, text):
    from embhist.compression import AEConfig, MatryoshkaAE, save_ae

    np.savez(tmp_path / "teacher.npz", **teacher_columns())
    save_ae(tmp_path / "ae.lfmm", MatryoshkaAE(3, AEConfig(), seed=0))
    (tmp_path / "codec.json").write_text(text)
    rc = main(["build-store", "--teacher", str(tmp_path / "teacher.npz"),
               "--ae", str(tmp_path / "ae.lfmm"), "--codec", str(tmp_path / "codec.json"),
               "--out", str(tmp_path / "store.lfsq")])
    assert rc == 4
    assert "data error" in capsys.readouterr().err


def test_teacher_file_missing_field_exits_4(tmp_path, capsys):
    columns = teacher_columns()
    del columns["soft"]
    np.savez(tmp_path / "teacher.npz", **columns)
    rc = main(["train-ae", "--teacher", str(tmp_path / "teacher.npz"),
               "--out", str(tmp_path / "ae.lfmm")])
    assert rc == 4
    assert "soft" in capsys.readouterr().err


def truncated_npz(path):
    np.savez(path, **teacher_columns())
    path.write_bytes(path.read_bytes()[:100])


def plain_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


@pytest.mark.parametrize("make", [
    lambda path: path.write_bytes(b"not an npz file"), truncated_npz, plain_npy,
], ids=["garbage", "truncated", "npy"])
def test_unreadable_teacher_file_exits_4(tmp_path, capsys, make):
    path = tmp_path / "teacher.npz"
    make(path)
    rc = main(["train-ae", "--teacher", str(path), "--out", str(tmp_path / "ae.lfmm")])
    assert rc == 4
    assert "data error" in capsys.readouterr().err


def checkpoint_files(tmp_path, config_path):
    """An untrained teacher and baseline student of the test config, saved."""
    from embhist.models import FeatureSchema, FMModel, VMModel, write_checkpoint

    cfg = load_config(config_path)
    schema = FeatureSchema.from_world(cfg.world)
    for name, model in (("fm", FMModel(schema, cfg.fm, seed=0)),
                        ("vm", VMModel(schema, cfg.vm, seed=0))):
        write_checkpoint(tmp_path / f"{name}.lfmm", model.params, schema.hash64())
    np.savez(tmp_path / "teacher.npz", **teacher_columns())


@pytest.mark.parametrize("case", ["fm_as_ae", "other_widths", "wrong_arm"])
def test_mismatched_checkpoint_exits_4(tmp_path, capsys, config_path, case):
    checkpoint_files(tmp_path, config_path)
    if case == "fm_as_ae":
        argv = ["quantize", "--teacher", str(tmp_path / "teacher.npz"),
                "--ae", str(tmp_path / "fm.lfmm"), "--out", str(tmp_path / "codec.json")]
    elif case == "other_widths":
        wide = tmp_path / "wide.ini"
        wide.write_text(Path(config_path).read_text().replace("hidden = 16,8,4",
                                                              "hidden = 16,12,4"))
        config_path = str(wide)
        argv = ["extract", "--fm", str(tmp_path / "fm.lfmm"),
                "--out", str(tmp_path / "t.npz")]
    else:
        argv = ["eval", "--vm", str(tmp_path / "vm.lfmm"), "--arm", "emb_hist"]
    rc = main(argv + ["--config", config_path])
    assert rc == 4
    assert "data error" in capsys.readouterr().err


def test_teacher_columns_of_unequal_length_exit_4(tmp_path, capsys, config_path):
    from embhist.compression import AEConfig, MatryoshkaAE, save_ae

    columns = teacher_columns()
    columns["soft"] = columns["soft"][:5]
    np.savez(tmp_path / "teacher.npz", **columns)
    save_ae(tmp_path / "ae.lfmm", MatryoshkaAE(3, AEConfig(), seed=0))
    (tmp_path / "codec.json").write_text('{"kind": "int4_uniform"}')
    for argv in (["build-store", "--ae", str(tmp_path / "ae.lfmm"),
                  "--codec", str(tmp_path / "codec.json"), "--out", str(tmp_path / "s.lfsq")],
                 ["train-vm", "--arm", "kd", "--config", config_path,
                  "--out", str(tmp_path / "vm.lfmm")]):
        rc = main(argv + ["--teacher", str(tmp_path / "teacher.npz")])
        assert rc == 4
        assert "one length" in capsys.readouterr().err


def test_teacher_file_missing_student_events_exits_4(tmp_path, capsys, config_path):
    np.savez(tmp_path / "teacher.npz", **teacher_columns())
    rc = main(["train-vm", "--arm", "kd", "--config", config_path,
               "--teacher", str(tmp_path / "teacher.npz"), "--out", str(tmp_path / "vm.lfmm")])
    assert rc == 4
    assert "no teacher row for the event with key" in capsys.readouterr().err


def test_artifact_of_wrong_width_exits_4(tmp_path, capsys):
    from embhist.compression import AEConfig, MatryoshkaAE, save_ae

    np.savez(tmp_path / "teacher.npz", **teacher_columns(width=4))
    save_ae(tmp_path / "ae.lfmm", MatryoshkaAE(3, AEConfig(), seed=0))
    (tmp_path / "codec.json").write_text('{"kind": "int4_uniform"}')
    rc = main(["build-store", "--teacher", str(tmp_path / "teacher.npz"),
               "--ae", str(tmp_path / "ae.lfmm"), "--codec", str(tmp_path / "codec.json"),
               "--out", str(tmp_path / "store.lfsq")])
    assert rc == 4
    assert "data error: expected dim 3, got 4" in capsys.readouterr().err
