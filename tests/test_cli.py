import json
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from embhist.cli import load_config, main
from embhist.errors import ConfigError
from embhist.models import FMConfig
from embhist.pipeline import ExperimentConfig
from embhist.synthworld import WorldSpec

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def config_path():
    return str(REPO / "tests" / "staged.ini")


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


@pytest.mark.parametrize("source", ["readme", "example", "five_seeds", "ablations"])
def test_documented_configs_load(tmp_path, source):
    path = REPO / "scripts" / ("example_config.ini" if source == "example" else f"{source}.ini")
    if source == "readme":
        path = tmp_path / "readme.ini"
        path.write_text(readme_config_block())
    cfg = load_config(path)
    if source == "readme":
        # the documented block spells out the defaults, apart from its seeds
        assert cfg == replace(ExperimentConfig(), seeds=(0, 1, 2, 3, 4), event_log_path="")
    elif source == "example":
        assert cfg.world.n_users == 128 and cfg.fm.epochs == 3 and cfg.seeds == (0, 1)
    elif source == "five_seeds":
        # the default four-arm experiment over seeds 0-4
        assert cfg == ExperimentConfig(seeds=(0, 1, 2, 3, 4))
    else:
        # the mid-sized world the ablation tables are run on
        assert cfg == ExperimentConfig(world=WorldSpec(n_users=128, events_per_user=64),
                                       fm=FMConfig(epochs=3), arms=("kd", "kd_emb_hist"),
                                       seeds=(0, 1))


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


@pytest.mark.parametrize("section,line", [
    ("fm", "hidden = 8,4"), ("fm", "history_len = 0"), ("fm", "batch_size = 0"),
    ("vm", "batch_size = 0"), ("ae", "batch_size = 0"), ("fm", "embed_dim = 0"),
    ("ae", "hidden_scale = 0"), ("fm", "epochs = -1"), ("vm", "hidden = "),
    ("fm", "lr = nan"), ("vm", "lr = 0"), ("ae", "lr = inf"), ("fm", "lr = -0.1"),
    ("experiment", "kd_weight = -1"), ("experiment", "kd_weight = nan"),
    ("experiment", "kd_weight = inf"),
])
def test_bad_model_size_exits_2(tmp_path, capsys, section, line):
    sections = {"world": ["n_users = 24", "events_per_user = 16"], "experiment": ["seeds = 0"]}
    sections.setdefault(section, []).append(line)
    path = tmp_path / "bad.ini"
    path.write_text("".join(f"[{name}]\n" + "".join(f"{kv}\n" for kv in lines)
                            for name, lines in sections.items()))
    rc = main(["run-experiment", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and line.split(" =")[0] in err


def test_world_of_2_31_rows_exits_2(tmp_path, capsys):
    # rejected when the spec is built, before any user is generated
    with pytest.raises(ConfigError):
        WorldSpec(n_users=2**28, events_per_user=8)
    path = tmp_path / "huge.ini"
    path.write_text(f"[world]\nn_users = {2**28}\nevents_per_user = 8\n"
                    "[experiment]\nseeds = 0\n")
    rc = main(["run-experiment", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "2^31 log rows" in err[0]


@pytest.mark.parametrize("lr,message", [
    # steps whose loss stays finite but leave the teacher's parameters not finite
    ("1e308", "error: teacher training left a parameter that is not finite"),
    # the first step's loss overflows
    ("1.7e308", "error: loss is not finite"),
], ids=["1e308", "1.7e308"])
def test_non_finite_training_loss_exits_1(tmp_path, capsys, lr, message):
    # finite learning rates that pass config validation but overflow the
    # teacher; a numpy warning raised here would escape main as a traceback
    path = tmp_path / "huge_lr.ini"
    path.write_text("[world]\nn_users = 24\nevents_per_user = 16\n"
                    f"[fm]\nepochs = 1\nlr = {lr}\n[experiment]\nseeds = 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["run-experiment", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [message]


def test_diverged_teacher_is_not_saved(tmp_path, capsys):
    # a diverged teacher is an error, never a checkpoint of non-finite parameters
    path = tmp_path / "huge_lr.ini"
    path.write_text("[world]\nn_users = 24\nevents_per_user = 16\n[fm]\nepochs = 1\nlr = 1e308\n")
    events, fm = tmp_path / "events.tsv", tmp_path / "fm.lfmm"
    assert main(["gen-world", "--config", str(path), "--out", str(events)]) == 0
    capsys.readouterr()
    rc = main(["train-fm", "--config", str(path), "--events", str(events), "--out", str(fm)])
    assert rc == 1 and not fm.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: teacher training left a parameter that is not finite"]


@pytest.mark.parametrize("section,line", [
    ("experiment", "layer = hidden0"), ("vm", "seq_encoder = attention"),
])
def test_unknown_layer_or_encoder_exits_2_before_training(tmp_path, capsys, monkeypatch,
                                                          section, line):
    from embhist import pipeline

    calls = []
    monkeypatch.setattr(pipeline, "train_fm", lambda *args, **kwargs: calls.append(args))
    path = tmp_path / "typo.ini"
    path.write_text(f"[world]\nn_users = 24\nevents_per_user = 16\n[{section}]\n{line}\n")
    rc = main(["run-experiment", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and not calls
    assert len(err) == 1 and err[0].startswith("config error") and line.split(" = ")[1] in err[0]


def test_repeated_seed_exits_2_before_any_seed_runs(tmp_path, capsys, monkeypatch):
    from embhist import pipeline

    calls = []
    monkeypatch.setattr(pipeline, "run_seed", lambda *args: calls.append(args))
    path = tmp_path / "twice.ini"
    path.write_text("[world]\nn_users = 24\nevents_per_user = 16\n[experiment]\nseeds = 0,0\n")
    rc = main(["run-experiment", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and not calls
    assert len(err) == 1 and err[0].startswith("config error") and "(0, 0)" in err[0]


def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    # a world under the 2^31-row bound may still not fit the host; generate
    # fails here as numpy does, and no large world is ever built
    from embhist import cli

    def no_memory(*args):
        raise MemoryError("Unable to allocate 64.0 GiB for an array with shape (2147483647, 4)")

    monkeypatch.setattr(cli, "generate", no_memory)
    rc = main(["gen-world", "--out", str(tmp_path / "events.tsv")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: out of memory: Unable to allocate 64.0 GiB for an array with shape "
        "(2147483647, 4)"]


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
         "--arm", "kd_emb_hist", "--store", str(art / "store.lfsq")],
    ]
    for step in steps:
        rc = main(step + ["--config", config_path, "--seed", "0"])
        assert rc == 0, f"step {step[0]} failed"
    out = capsys.readouterr().out
    assert "auc=" in out

    # the staged chain reproduces run-experiment: same seeds for every stage
    run = tmp_path / "run"
    assert main(["run-experiment", "--config", config_path, "--out", str(run)]) == 0
    rows = [line.split("\t") for line in (run / "report.tsv").read_text().splitlines()]
    auc = next(float(row[2]) for row in rows if row[:2] == ["0", "kd_emb_hist"])
    assert f"auc={auc:.6f}" in out

    codec = json.loads((art / "codec.json").read_text())
    assert codec["kind"] == "int4_kmeans"
    assert len(codec["codebook"]) == 16
    assert np.all(np.diff(codec["codebook"]) > 0)


@pytest.mark.parametrize("command", ["train-fm", "extract", "train-ae", "quantize"])
def test_stack_commands_refuse_per_split(tmp_path, capsys, command):
    # these commands build run-experiment's "fixed" teacher stack only; the
    # policy is checked before any input file is read, so none need exist
    path = tmp_path / "per_split.ini"  # staged.ini ends with [experiment]
    path.write_text((REPO / "tests" / "staged.ini").read_text()
                    + "checkpoint_policy = per_split\n")
    inputs = {"extract": ["--fm", "fm.lfmm"], "train-ae": ["--teacher", "t.npz"],
              "quantize": ["--teacher", "t.npz", "--ae", "ae.lfmm"]}.get(command, [])
    rc = main([command, "--config", str(path), *inputs, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train-vm", "eval"])
def test_sequence_arm_without_store_exits_2(config_path, tmp_path, capsys, command):
    from embhist.models import FeatureSchema, VMModel, write_checkpoint

    cfg = load_config(config_path)
    schema = FeatureSchema.from_world(cfg.world)
    vm = VMModel(schema, replace(cfg.vm, seq_dim=cfg.active_dim), seed=0)
    write_checkpoint(tmp_path / "vm.lfmm", vm.params, schema.hash64())
    args = {"train-vm": ["--out", str(tmp_path / "out.lfmm")],
            "eval": ["--vm", str(tmp_path / "vm.lfmm")]}[command]
    rc = main([command, "--config", config_path, "--arm", "emb_hist", *args])
    assert rc == 2
    assert "arm 'emb_hist' needs a populated sequence store" in capsys.readouterr().err


def test_run_experiment_and_report(config_path, tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = main(["run-experiment", "--config", config_path, "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "report.tsv").exists()
    rc = main(["report", "--run", str(out_dir)])
    assert rc == 0
    assert "kd_emb_hist" in capsys.readouterr().out


def test_verify_theory_quick(tmp_path, capsys):
    rc = main(["verify-theory", "--worlds", "2", "--out", str(tmp_path / "theory")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ALL CHECKS PASSED" in out
    assert (tmp_path / "theory" / "theory_checks.tsv").exists()


@pytest.mark.parametrize("worlds", ["0", "-3"])
def test_verify_theory_without_a_world_exits_2(capsys, worlds):
    rc = main(["verify-theory", "--worlds", worlds])
    out, err = capsys.readouterr()
    assert rc == 2 and "ALL CHECKS PASSED" not in out
    assert err.splitlines() == [f"config error: the theory battery needs at least one world, "
                                f"got {worlds}"]


def test_verify_theory_failure_exits_3(monkeypatch, capsys):
    from embhist import pipeline

    def fake_suite(n_worlds=20, seed=0):
        return pipeline.TheorySuiteResult(
            [pipeline.TheoryCheck("fabricated", "w0", 1.0, 0.0, False)]
        )

    monkeypatch.setattr(pipeline, "run_theory_suite", fake_suite)
    rc = main(["verify-theory", "--worlds", "1"])
    assert rc == 3
    assert "verification failure" in capsys.readouterr().err


def test_no_tr_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-theory", "--no-tr"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("column,value", [("emb", np.nan), ("emb", -np.inf),
                                          ("soft", np.nan), ("soft", 1.5), ("soft", -0.25)])
@pytest.mark.parametrize("command", ["quantize", "build-store"])
def test_non_finite_teacher_exits_4(tmp_path, capsys, command, column, value):
    from embhist.compression import AEConfig, MatryoshkaAE, save_ae

    columns = teacher_columns()
    columns[column] = columns[column].astype(float)
    columns[column][5] = value
    np.savez(tmp_path / "teacher.npz", **columns)
    save_ae(tmp_path / "ae.lfmm", MatryoshkaAE(3, AEConfig(), seed=0))
    (tmp_path / "codec.json").write_text('{"kind": "int4_uniform"}')
    argv = [command, "--teacher", str(tmp_path / "teacher.npz"),
            "--ae", str(tmp_path / "ae.lfmm"), "--out", str(tmp_path / "out")]
    if command == "build-store":
        argv += ["--codec", str(tmp_path / "codec.json")]
    assert main(argv) == 4
    assert "data error: teacher row 5" in capsys.readouterr().err


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


@pytest.mark.parametrize("case", ["chunk_9", "log_without_chunk_7"])
def test_eval_on_a_chunk_without_events_exits_4(tmp_path, capsys, config_path, case):
    checkpoint_files(tmp_path, config_path)
    argv = ["eval", "--config", config_path, "--vm", str(tmp_path / "vm.lfmm"),
            "--arm", "baseline"]
    if case == "chunk_9":
        argv += ["--chunk", "9"]
    else:  # the default chunk, 7, cut out of a generated log
        events = tmp_path / "events.tsv"
        assert main(["gen-world", "--config", config_path, "--out", str(events)]) == 0
        lines = events.read_text().splitlines(keepends=True)
        events.write_text("".join(line for line in lines if line.split("\t")[2] != "7"))
        argv += ["--events", str(events)]
    assert main(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: chunk {case[-1]} has no events to evaluate"]


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


def test_checkpoint_naming_a_parameter_twice_exits_4(tmp_path, capsys):
    from embhist.compression import AEConfig, MatryoshkaAE, save_ae

    np.savez(tmp_path / "teacher.npz", **teacher_columns())
    path = tmp_path / "ae.lfmm"
    save_ae(path, MatryoshkaAE(3, AEConfig(), seed=0))
    blob = path.read_bytes()
    # magic, <IQ version and schema hash, <H dim count, the <I dims, <I parameter count
    (n_dims,) = struct.unpack_from("<H", blob, 16)
    count_at = 18 + 4 * n_dims
    (n_params,) = struct.unpack_from("<I", blob, count_at)
    first = count_at + 4
    (name_len,) = struct.unpack_from("<H", blob, first)
    rows, cols = struct.unpack_from("<II", blob, first + 2 + name_len)
    end = first + 2 + name_len + 8 + 8 * rows * cols
    path.write_bytes(blob[:count_at] + struct.pack("<I", n_params + 1)
                     + blob[first:end] + blob[first:])
    rc = main(["quantize", "--teacher", str(tmp_path / "teacher.npz"),
               "--ae", str(path), "--out", str(tmp_path / "codec.json")])
    assert rc == 4
    assert "appears twice" in capsys.readouterr().err


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency: importing the CLI and the pipeline in a
    # fresh interpreter must not load it
    probe = ("import sys, embhist.cli, embhist.pipeline\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert out.stdout.strip() == "[]"


def _run_with_bad_id(config_path, tmp_path, command, line, field, index, bad_id):
    """Exit code of `command` on a generated log whose line `line` has id
    `index` of its tab field `field` (3: visible ids, 4: extra ids) set to
    `bad_id`."""
    events = tmp_path / "events.tsv"
    assert main(["gen-world", "--config", config_path, "--out", str(events)]) == 0
    lines = events.read_text().splitlines()
    fields = lines[line - 1].split("\t")
    ids = fields[field].split(",")
    ids[index] = str(bad_id)
    fields[field] = ",".join(ids)
    lines[line - 1] = "\t".join(fields)
    events.write_text("\n".join(lines) + "\n")
    # the log is read before any checkpoint, so these need not exist
    args = {"extract": ["--fm", "fm.lfmm"], "eval": ["--vm", "vm.lfmm"]}.get(command, [])
    out = [] if command == "eval" else ["--out", str(tmp_path / "out")]
    return main([command, "--config", config_path, "--events", str(events), *args, *out])


@pytest.mark.parametrize("bad_id", [-1, 3])  # vm0 has cardinality 3 in staged.ini
@pytest.mark.parametrize("command", ["train-fm", "extract", "train-vm", "eval"])
def test_out_of_range_event_id_exits_4(config_path, tmp_path, capsys, command, bad_id):
    assert _run_with_bad_id(config_path, tmp_path, command, 2, 3, 0, bad_id) == 4
    assert f"line 2: feature 0 id {bad_id} outside [0, 3)" in capsys.readouterr().err


# the last extra feature (feature 3 overall) has cardinality 2 in staged.ini,
# whose log has 36 users x 32 events: the bad id is on the last line
@pytest.mark.parametrize("bad_id", [-7, 2])
@pytest.mark.parametrize("command", ["train-fm", "extract", "train-vm", "eval"])
def test_out_of_range_extra_id_on_last_line_exits_4(config_path, tmp_path, capsys,
                                                     command, bad_id):
    assert _run_with_bad_id(config_path, tmp_path, command, 1152, 4, -1, bad_id) == 4
    assert f"line 1152: feature 3 id {bad_id} outside [0, 2)" in capsys.readouterr().err


# each appends one line to the staged log of 1,152 lines, given its first line
@pytest.mark.parametrize("appended, message", [
    (lambda first: first, "lines 1 and 1153: duplicate key 0 at timestamp 0"),
    (lambda first: b"\xff\n", "line 1153: 'utf-8' codec can't decode byte 0xff"),
    (lambda first: b"-1" + first[first.index(b"\t"):],
     "line 1153: key and timestamp must be non-negative"),
], ids=["repeated_first_line", "not_utf8", "negative_key"])
def test_bad_appended_line_exits_4(config_path, tmp_path, capsys, appended, message):
    events = tmp_path / "events.tsv"
    assert main(["gen-world", "--config", config_path, "--out", str(events)]) == 0
    text = events.read_bytes()
    events.write_bytes(text + appended(text[: text.index(b"\n") + 1]))
    assert main(["train-fm", "--config", config_path, "--events", str(events),
                 "--out", str(tmp_path / "fm.lfmm")]) == 4
    assert message in capsys.readouterr().err
