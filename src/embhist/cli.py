"""Command-line entry points for each pipeline stage.

Exit codes: 0 ok, 1 any other package error (e.g. a training loss that is
not finite) or out of memory, 2 configuration error, 3 verification failure,
4 data/format error. Output paths default under $EMBHIST_OUT (or ./runs).
Configs are INI files; see README.md for the schema.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import zipfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, pipeline
from .compression import AEConfig, ae_train, load_ae, save_ae
from .errors import (
    ConfigError, DataError, DimensionError, EmbhistError, FormatError,
    MetricError, SchemaError, VerificationError,
)
from .models import (
    FeatureSchema, FMConfig, FMModel, VMConfig, VMModel, read_checkpoint,
    write_checkpoint,
)
from .quantization import Codec
from .seqstore import SequenceStore
from .synthworld import WorldSpec, generate, load_event_log


# INI section -> the config dataclass whose fields its keys set
_SECTIONS = {"world": WorldSpec, "fm": FMConfig, "vm": VMConfig, "ae": AEConfig,
             "experiment": pipeline.ExperimentConfig}
# fields no INI key sets: the per-feature probability tables, the student's
# sequence width (set by the arm), the persistable compressor's shape, and
# the nested configs (each is a section of its own)
_NOT_IN_INI = {"vm_feature_probs", "extra_feature_probs", "seq_dim", "use_hidden",
               "encoder_activation", *_SECTIONS}


def _ini_value(sec, key: str, default):
    """An INI value cast like its field's default: bool, int, float or str; a
    comma list cast like the default's first element; a None default reads
    as str."""
    if isinstance(default, bool):
        return sec.getboolean(key)
    raw = sec[key]
    if isinstance(default, tuple):
        return tuple(type(default[0])(x.strip()) for x in raw.split(",")) if raw.strip() else ()
    return raw if default is None else type(default)(raw)


def load_config(path) -> pipeline.ExperimentConfig:
    """Experiment config from an INI file: each section of _SECTIONS sets the
    fields of its dataclass, unset keys keep their defaults, and `#` after
    whitespace starts a comment. An unknown section or key is a ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        unknown = sorted(set(parser.sections()) - set(_SECTIONS))
        if unknown:
            raise ConfigError(f"unknown section(s) {unknown} in {path}")
        kwargs = {}
        for name, cls in _SECTIONS.items():
            sec = parser[name] if parser.has_section(name) else {}
            defaults = {f.name: f.default for f in fields(cls) if f.name not in _NOT_IN_INI}
            unknown = sorted(set(sec) - set(defaults))
            if unknown:
                raise ConfigError(f"unknown key(s) {unknown} in [{name}] of {path}")
            kwargs[name] = {key: _ini_value(sec, key, defaults[key]) for key in sec}
        nested = {name: _SECTIONS[name](**kwargs[name]) for name in ("world", "fm", "vm", "ae")}
        return pipeline.ExperimentConfig(**nested, **kwargs["experiment"])
    except (configparser.Error, ValueError, TypeError) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc


def _out_root() -> Path:
    return Path(os.environ.get("EMBHIST_OUT", "runs"))


def _get_cfg(args) -> pipeline.ExperimentConfig:
    return load_config(args.config) if args.config else pipeline.ExperimentConfig()


def _ensure_parent(path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def cmd_gen_world(args):
    cfg = _get_cfg(args)
    log = generate(cfg.world, args.seed)
    out = _ensure_parent(Path(args.out))
    log.write_text(out)
    print(f"wrote {len(log.labels)} events to {out}")
    return 0


def _load_log(cfg, args):
    path = args.events or cfg.event_log_path
    return load_event_log(path, cfg.world) if path else generate(cfg.world, args.seed)


def _fixed_stack_seeds(cfg, args) -> tuple[int, int, int]:
    """(teacher, ae, codec) seeds of run-experiment's "fixed" teacher stack,
    the only one the stage commands build; per_split is a ConfigError."""
    if cfg.checkpoint_policy != "fixed":
        raise ConfigError(f"{args.command} builds the fixed stack only; run per_split "
                          "with run-experiment")
    return pipeline.checkpoint_segments("fixed", args.seed)[0][2]


def cmd_train_fm(args):
    cfg = _get_cfg(args)
    fm_seed, _, _ = _fixed_stack_seeds(cfg, args)
    log = _load_log(cfg, args)
    schema = FeatureSchema.from_world(cfg.world)
    fm = pipeline.train_fm(log, schema, cfg.fm, fm_seed)
    write_checkpoint(_ensure_parent(Path(args.out)), fm.params, schema.hash64())
    print(f"teacher checkpoint -> {args.out}")
    return 0


def _restore(cls, config, cfg, path):
    """A model of class `cls` under `config` with the parameters of the
    checkpoint at `path`, which must match the config world's schema."""
    schema = FeatureSchema.from_world(cfg.world)
    params, schema_hash, _ = read_checkpoint(path)
    if schema_hash != schema.hash64():
        raise FormatError(f"checkpoint {path} schema hash does not match the config world")
    model = cls(schema, config, seed=0)
    model.params.restore(params)
    return model


def cmd_extract(args):
    cfg = _get_cfg(args)
    _fixed_stack_seeds(cfg, args)
    log = _load_log(cfg, args)
    fm = _restore(FMModel, cfg.fm, cfg, args.fm)
    teacher = pipeline.log_teacher(fm, log, cfg.layer, pipeline.LOG_CHUNKS)
    out = _ensure_parent(Path(args.out))
    np.savez(out, keys=teacher.keys, timestamps=teacher.timestamps,
             chunks=teacher.chunks, labels=teacher.labels, soft=teacher.soft,
             emb=teacher.emb)
    print(f"extracted {len(teacher.keys)} rows (layer={cfg.layer}) -> {out}")
    return 0


def _load_teacher(path) -> pipeline.TeacherLog:
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            columns = {f.name: data[f.name] for f in fields(pipeline.TeacherLog)}
    except (KeyError, ValueError, TypeError, zipfile.BadZipFile) as exc:
        raise FormatError(f"teacher file {path}: {exc}") from exc
    return pipeline.TeacherLog(**columns)


def cmd_train_ae(args):
    cfg = _get_cfg(args)
    _, ae_seed, _ = _fixed_stack_seeds(cfg, args)
    teacher = _load_teacher(args.teacher)
    rows = teacher.rows_in_chunk(pipeline.LOG_CHUNKS[0])
    ae, history = ae_train(teacher.emb[rows], cfg.ae, ae_seed)
    save_ae(_ensure_parent(Path(args.out)), ae)
    print(f"compressor trained on {len(rows)} embeddings; "
          f"loss {history[0]:.4f} -> {history[-1]:.4f}; saved to {args.out}")
    return 0


def cmd_quantize(args):
    cfg = _get_cfg(args)
    _, _, codec_seed = _fixed_stack_seeds(cfg, args)
    teacher = _load_teacher(args.teacher)
    ae = load_ae(args.ae)
    rows = teacher.rows_in_chunk(pipeline.LOG_CHUNKS[0])
    z = pipeline.encode(ae, teacher.emb[rows], cfg.active_dim)
    codec = pipeline.fit_codec(cfg.codec_kind, z, codec_seed)
    descriptor = {"kind": codec.kind}
    if codec.codebook:
        descriptor["codebook"] = list(codec.codebook)
    out = _ensure_parent(Path(args.out))
    out.write_text(json.dumps(descriptor, indent=1) + "\n")
    print(f"codec descriptor ({codec.kind}) -> {out}")
    return 0


def _load_codec(path) -> Codec:
    try:
        data = json.loads(Path(path).read_text())
        return Codec(data["kind"], tuple(data["codebook"]) if "codebook" in data else None)
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"codec descriptor {path}: {exc!r}") from exc


def cmd_build_store(args):
    cfg = _get_cfg(args)
    teacher = _load_teacher(args.teacher)
    ae = load_ae(args.ae)
    codec = _load_codec(args.codec)
    store = SequenceStore(cfg.active_dim, codec)
    pipeline.append_store(store, teacher, pipeline.encode(ae, teacher.emb, cfg.active_dim))
    store.persist(_ensure_parent(Path(args.out)))
    print(f"store with {len(store)} records -> {args.out}")
    return 0


def cmd_train_vm(args):
    cfg = _get_cfg(args)
    log = _load_log(cfg, args)
    schema = FeatureSchema.from_world(cfg.world)
    store = SequenceStore.load(args.store) if args.store else None
    teacher = _load_teacher(args.teacher) if args.teacher else None
    vm = pipeline.train_vm(log, schema, cfg, (args.arm,), store, teacher, args.seed)[args.arm]
    write_checkpoint(_ensure_parent(Path(args.out)), vm.params, schema.hash64())
    print(f"student arm {args.arm!r} -> {args.out}")
    return 0


def cmd_eval(args):
    cfg = _get_cfg(args)
    log = _load_log(cfg, args)
    schema = FeatureSchema.from_world(cfg.world)
    store = SequenceStore.load(args.store) if args.store else None
    # a checkpoint of another arm (exit 4) is reported before a missing store,
    # which eval_vm rejects (exit 2)
    seq_dim = cfg.active_dim if args.arm in pipeline._SEQ_ARMS else 0
    vm = _restore(VMModel, replace(cfg.vm, seq_dim=seq_dim), cfg, args.vm)
    result = pipeline.eval_vm({args.arm: vm}, log, schema, cfg, store, chunk=args.chunk)[args.arm]
    print(f"arm={args.arm} chunk={args.chunk} auc={result.auc:.6f} "
          f"logloss={result.logloss:.6f} ne={result.ne:.6f} n={result.n_samples}")
    return 0


def cmd_run_experiment(args):
    cfg = _get_cfg(args)
    report = pipeline.run_streaming_experiment(cfg)
    out_dir = Path(args.out) if args.out else _out_root() / f"run-{report.config_hash}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.tsv").write_text(report.to_text())
    for arm in cfg.arms:
        print(f"{arm}: mean auc {report.mean_auc(arm):.4f}")
    print(f"report -> {out_dir / 'report.tsv'}")
    return 0


def cmd_ablate(args):
    cfg = _get_cfg(args)
    rows = pipeline.run_ablation(cfg, args.axis)
    out_dir = Path(args.out) if args.out else _out_root() / "ablations"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.axis}.tsv"
    pipeline.write_tsv(out, rows)
    for row in rows:
        print("\t".join(f"{k}={v}" for k, v in row.items()))
    print(f"table -> {out}")
    return 0


def cmd_verify_theory(args):
    result = pipeline.run_theory_suite(n_worlds=args.worlds, seed=args.seed)
    summary = pipeline.render_theory_summary(result)
    print(summary, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        pipeline.write_tsv(out_dir / "theory_checks.tsv", result.to_rows())
        (out_dir / "summary.txt").write_text(summary)
    pipeline.require_all_passed(result)
    return 0


def cmd_report(args):
    path = Path(args.run) / "report.tsv"
    if not path.exists():
        raise DataError(f"no report.tsv under {args.run}")
    print(path.read_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="embhist",
        description="teacher-embedding history transfer pipeline",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **arguments):
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI experiment config", default=None)
        p.add_argument("--seed", type=int, default=0)
        for arg, kwargs in arguments.items():
            p.add_argument(f"--{arg.replace('_', '-')}", dest=arg, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("gen-world", cmd_gen_world, out={"required": True})
    add("train-fm", cmd_train_fm, events={"default": None}, out={"required": True})
    add("extract", cmd_extract, events={"default": None}, fm={"required": True},
        out={"required": True})
    add("train-ae", cmd_train_ae, teacher={"required": True}, out={"required": True})
    add("quantize", cmd_quantize, teacher={"required": True}, ae={"required": True},
        out={"required": True})
    add("build-store", cmd_build_store, teacher={"required": True},
        ae={"required": True}, codec={"required": True}, out={"required": True})
    add("train-vm", cmd_train_vm, events={"default": None},
        arm={"default": "kd_emb_hist", "choices": pipeline.ARMS},
        store={"default": None}, teacher={"default": None}, out={"required": True})
    add("eval", cmd_eval, events={"default": None}, vm={"required": True},
        arm={"default": "kd_emb_hist", "choices": pipeline.ARMS},
        store={"default": None}, chunk={"type": int, "default": pipeline.TEST_CHUNK})
    add("run-experiment", cmd_run_experiment, out={"default": None})
    p = add("ablate", cmd_ablate, out={"default": None})
    p.add_argument("axis", choices=pipeline.ABLATION_AXES)
    add("verify-theory", cmd_verify_theory, worlds={"type": int, "default": 20},
        out={"default": None})
    add("report", cmd_report, run={"required": True})
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every overflow ends in a typed error; numpy's warnings would only precede it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, DimensionError, FormatError, SchemaError, MetricError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except EmbhistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
