"""Command-line entry point tying the modules into reproducible runs."""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads anywhere, so runs are
# bit-reproducible; a thread count already set in the environment wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .align import lev_ratio
from .diffusion import (denoise_loop, make_random_sequence, noising_chain, place_pins,
                        trace_to_jsonl_rows)
from .edit_ops import CaptionState, EditError, EditOp, NoiseSchedule, Origin
from .metrics import (MetricError, check_limit, contains_in_order, evaluate, parse_mode,
                      write_report)
from .model import (CheckpointError, ModelConfig, ModelError, TrainConfig,
                    load_checkpoint, save_checkpoint, train)
from .vocab import VocabularyError
from .world import (SPLITS, Corpus, WorldError, WorldSpec, load_corpus, load_spec,
                    make_corpus, read_utf8, save_corpus)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_NUMERIC = 5

_COLORS = {
    EditOp.REPLACE: "\033[94m",
    EditOp.DELETE: "\033[91m",
    EditOp.INSERT: "\033[95m",
}
_GREY = "\033[90m"
_RESET = "\033[0m"


def read_config_file(path: str | None) -> dict[str, str]:
    """Plain-text key=value config; blank lines and # comments ignored.  A
    line that is not key=value makes the file malformed."""
    if path is None:
        return {}
    out: dict[str, str] = {}
    for n, raw in enumerate(read_utf8(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise WorldError(f"{path}: line {n} is not key=value: {raw!r}")
        out[key.strip()] = value.strip()
    return out


# required flags that a command logs beside its settings; a logged config
# file may hold them, and the command's own flags win
_LOGGED_FLAGS = {"corpus", "out"}


def resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Precedence: explicit flags > the ``--config`` file, if the command
    has one > defaults.  A config key that is neither in the defaults table
    nor a logged flag of the command, or a value that does not parse as its
    default's type, is a usage error naming the file."""
    path = getattr(args, "config", None)
    file_cfg = read_config_file(path)
    unknown = sorted(file_cfg.keys() - defaults.keys() - (_LOGGED_FLAGS & vars(args).keys()))
    if unknown:
        raise MetricError(f"{path}: unknown config keys: {', '.join(unknown)}")
    effective = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            effective[key] = flag_val
        elif key in file_cfg:
            try:
                effective[key] = type(default)(file_cfg[key])
            except ValueError:
                raise MetricError(f"{path}: {key}={file_cfg[key]!r} is not "
                                  f"of type {type(default).__name__}") from None
        else:
            effective[key] = default
    return effective


def announce_config(command: str, cfg: dict, log_path: Path | None = None) -> None:
    lines = [f"{k}={cfg[k]}" for k in sorted(cfg)]
    print(f"# {command} effective config")
    for line in lines:
        print(line)
    if log_path is not None:
        log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ModelConfig fields that are not flags: the vocabulary sizes come from the
# corpus, max_T from the schedule's T, and max_seq_len is fixed
_NOT_FLAGS = ("vocab_size", "cond_vocab_size", "max_T", "max_seq_len")


def field_defaults(cls) -> dict:
    """The default of each field of a config dataclass that is a flag."""
    return {f.name: f.default for f in fields(cls) if f.name not in _NOT_FLAGS}


def from_fields(cls, cfg: dict, **rest):
    """A config dataclass holding a run's values of its flag fields."""
    return cls(**{name: cfg[name] for name in field_defaults(cls)}, **rest)


SYNTH_DEFAULTS = {"n": 2000, "seed": 0}
NOISE_DEMO_DEFAULTS = {**field_defaults(NoiseSchedule), "seed": 0}
TRAIN_DEFAULTS = {**field_defaults(TrainConfig), **field_defaults(ModelConfig),
                  **field_defaults(NoiseSchedule)}
# a rollout's --steps defaults to the max_T of the model it runs, so it is
# not a table entry
ROLLOUT_DEFAULTS = {"seed": 0}
GENERATE_DEFAULTS = {**ROLLOUT_DEFAULTS, "len": NoiseSchedule.target_len}
ABLATE_DEFAULTS = {**ROLLOUT_DEFAULTS, "epochs": 10, "limit": 200}


def add_flags(p: argparse.ArgumentParser, defaults: dict) -> None:
    """One ``--flag`` per key of a defaults table, typed like its default.
    An unset flag reads None, which ``resolve`` fills in."""
    for key, default in defaults.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default))


def rollout_steps(steps: int | None, max_T: int) -> int:
    """A rollout's step count: ``--steps``, or ``max_T`` when it is unset.
    A rollout of ``steps`` steps reads time steps ``steps`` down to 1, so it
    needs ``1 <= steps <= max_T``; checked before any file is written."""
    steps = max_T if steps is None else steps
    if not 1 <= steps <= max_T:
        raise ModelError(f"--steps {steps} outside 1..{max_T}, the time steps the model embeds")
    return steps


def load_model_checked(ckpt: str, corpus: Corpus, steps: int | None):
    """The checkpoint's model, checked against the corpus, and its rollout
    step count (see ``rollout_steps``)."""
    model, _ = load_checkpoint(ckpt)
    if model.cfg.vocab_size != corpus.vocab.size:
        raise CheckpointError(
            f"checkpoint vocab size {model.cfg.vocab_size} does not match "
            f"corpus vocab size {corpus.vocab.size}")
    if model.cfg.cond_vocab_size != corpus.spec.cond_vocab_size:
        raise CheckpointError("checkpoint condition vocabulary does not match corpus")
    return model, rollout_steps(steps, model.cfg.max_T)


def rollout(model, condition, start, steps: int):
    """One rollout's final state and trace; says so if it stopped early."""
    [(final, trace)] = denoise_loop(model, [condition], [start], steps)
    if len(trace) < steps:
        print(f"stopped after {len(trace)} of {steps} steps: "
              f"the caption outgrew max_seq_len {model.cfg.max_seq_len}")
    return final, trace


def find_example(corpus: Corpus, scene_id: int):
    for split in ("test", "val", "train"):
        for ex in corpus.split(split):
            if ex.scene_id == scene_id:
                return ex
    raise MetricError(f"scene id {scene_id} not found in corpus")


def parse_pins(text: str, vocab, length: int) -> dict[int, int]:
    """``--pins`` as {position: word id}: comma-separated POS=WORD parts,
    each position in 0..length-1 and pinned once, each word in ``vocab``."""
    pins: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pos, sep, word = part.partition("=")
        try:
            at = int(pos) if sep else None
        except ValueError:
            at = None
        if at is None:
            raise MetricError(f"--pins: bad part {part!r} (want POS=WORD)")
        if not 0 <= at < length:
            raise MetricError(f"--pins: position {at} in {part!r} is outside 0..{length - 1}")
        if at in pins:
            raise MetricError(f"--pins: position {at} is pinned twice, again in {part!r}")
        try:
            pins[at] = vocab.encode(word.strip())
        except VocabularyError:
            raise MetricError(f"--pins: unknown word {word.strip()!r} in {part!r}") from None
    return pins


def check_len(n: int) -> None:
    if n < 1:
        raise MetricError(f"--len {n}: a random start needs at least 1 word")


def cmd_synth(args) -> int:
    cfg = resolve(args, SYNTH_DEFAULTS)
    out = Path(args.out)
    spec = load_spec(args.spec) if args.spec else WorldSpec()
    try:
        corpus = make_corpus(spec, cfg["n"], cfg["seed"])
    except WorldError as e:  # too few or too many scenes asked of a valid spec
        raise MetricError(str(e)) from None
    save_corpus(corpus, out)
    announce_config("synth", {**cfg, "out": str(out)}, out / "run.config")
    print(f"wrote corpus ({len(corpus.train)}/{len(corpus.val)}/{len(corpus.test)}) to {out}")
    return EXIT_OK


def cmd_noise_demo(args) -> int:
    cfg = resolve(args, NOISE_DEMO_DEFAULTS)
    sch = from_fields(NoiseSchedule, cfg)
    if args.corpus:
        vocab = load_corpus(args.corpus).vocab
    else:
        from .world import build_world_vocab
        vocab = build_world_vocab(WorldSpec())
    words = args.caption.split()
    if not words:
        raise EditError("cannot noise an empty caption")
    ids = vocab.encode_all(words)
    announce_config("noise-demo", {**cfg, "caption": args.caption})
    rng = np.random.default_rng(cfg["seed"])
    chain = noising_chain(CaptionState.from_ids(ids, step=0), sch, vocab, rng, sch.T)
    print(f"x_0: {' '.join(words)}")
    for t, (script, state) in enumerate(chain, 1):
        rendered = []
        for tok in state.tokens:
            word = vocab.decode(tok.id)
            rendered.append(f"{_GREY}{word}{_RESET}"
                            if tok.origin is Origin.RANDOM_WORD else word)
        ops = []
        for op, content in script.slots:
            text = op.name[0] if content is None else f"{op.name[0]}({vocab.decode(content)})"
            color = _COLORS.get(op, "")
            ops.append(f"{color}{text}{_RESET}" if color else text)
        print(f"t={t:2d} script: {' '.join(ops)}")
        print(f"      x_{t}: {' '.join(rendered)}")
    return EXIT_OK


def train_configs(corpus: Corpus, cfg: dict) -> tuple[NoiseSchedule, ModelConfig, TrainConfig]:
    """The schedule, model and training configs of a run, each of which
    validates its values."""
    sch = from_fields(NoiseSchedule, cfg)
    mcfg = from_fields(ModelConfig, cfg, vocab_size=corpus.vocab.size,
                       cond_vocab_size=corpus.spec.cond_vocab_size, max_T=sch.T)
    return sch, mcfg, from_fields(TrainConfig, cfg)


def train_once(corpus: Corpus, cfg: dict, quiet: bool = False):
    sch, mcfg, hyper = train_configs(corpus, cfg)
    log_fn = None if quiet else lambda row: print(
        f"epoch {row['epoch']:3d}  edit {row['loss_edit']:.4f}  "
        f"language {row['loss_language']:.4f}  holdout-em {row['holdout_em']:.3f}  "
        f"[{row['elapsed_s']}s]")
    model, log = train(corpus, sch, mcfg, hyper, log_fn=log_fn)
    return model, log, sch


def cmd_train(args) -> int:
    cfg = resolve(args, TRAIN_DEFAULTS)
    corpus = load_corpus(args.corpus)
    sch, _, hyper = train_configs(corpus, cfg)  # raises before any file is written
    out = Path(args.out)
    announce_config("train", {**cfg, "corpus": args.corpus, "out": str(out)},
                    out.with_suffix(out.suffix + ".config"))
    model, log, _ = train_once(corpus, cfg)
    save_checkpoint(model, out, metadata={
        "epochs": cfg["epochs"], "seed": cfg["seed"],
        "corpus_hash": corpus.content_hash(),
        "schedule": asdict(sch),
        "sampler": {"p_terminal": hyper.p_terminal, "p_truncate": hyper.p_truncate},
    })
    out.with_suffix(out.suffix + ".log.json").write_text(
        json.dumps(log, indent=2), encoding="utf-8")
    print(f"saved checkpoint to {out}")
    return EXIT_OK


def cmd_edit(args) -> int:
    corpus = load_corpus(args.corpus)
    model, steps = load_model_checked(args.ckpt, corpus, args.steps)
    ex = find_example(corpus, args.scene)
    words = args.ref.split()
    if not words:
        raise MetricError("--ref: cannot edit an empty caption")
    try:
        ids = corpus.vocab.encode_all(words)
    except VocabularyError as e:
        raise MetricError(f"--ref: {e}") from None
    announce_config("edit", {"steps": steps, "ckpt": args.ckpt, "scene": args.scene,
                             "ref": args.ref})
    state = CaptionState.from_ids(ids, step=steps)
    final, trace = rollout(model, ex.condition, state, steps)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            for row in trace_to_jsonl_rows(trace, corpus.vocab):
                f.write(json.dumps(row) + "\n")
    print("edited:", " ".join(corpus.vocab.decode_all(final.ids())))
    print("target:", " ".join(corpus.vocab.decode_all(ex.caption)))
    print(f"ratio-to-target: {lev_ratio(final.ids(), ex.caption):.4f}")
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = resolve(args, GENERATE_DEFAULTS)
    check_len(cfg["len"])
    corpus = load_corpus(args.corpus)
    model, cfg["steps"] = load_model_checked(args.ckpt, corpus, args.steps)
    ex = find_example(corpus, args.scene)
    announce_config("generate", {**cfg, "ckpt": args.ckpt, "scene": args.scene})
    rng = np.random.default_rng(cfg["seed"])
    state = make_random_sequence(cfg["len"], corpus.vocab, rng, step=cfg["steps"])
    print("input :", " ".join(corpus.vocab.decode_all(state.ids())))
    final, _ = rollout(model, ex.condition, state, cfg["steps"])
    print("output:", " ".join(corpus.vocab.decode_all(final.ids())))
    print("target:", " ".join(corpus.vocab.decode_all(ex.caption)))
    return EXIT_OK


def cmd_control(args) -> int:
    cfg = resolve(args, GENERATE_DEFAULTS)
    check_len(cfg["len"])
    corpus = load_corpus(args.corpus)
    model, cfg["steps"] = load_model_checked(args.ckpt, corpus, args.steps)
    ex = find_example(corpus, args.scene)
    pins = parse_pins(args.pins, corpus.vocab, cfg["len"])
    announce_config("control", {**cfg, "ckpt": args.ckpt, "scene": args.scene,
                                "pins": args.pins, "mode": args.mode})
    rng = np.random.default_rng(cfg["seed"])
    # soft mode places the pins in the start only; hard mode keeps them
    state = place_pins(make_random_sequence(cfg["len"], corpus.vocab, rng, step=cfg["steps"]),
                       pins, hold=args.mode == "hard")
    print("input :", " ".join(corpus.vocab.decode_all(state.ids())))
    final, _ = rollout(model, ex.condition, state, cfg["steps"])
    print("output:", " ".join(corpus.vocab.decode_all(final.ids())))
    ordered = [w for _, w in sorted(pins.items())]
    kept = contains_in_order(final.ids(), ordered)
    print(f"pins retained in order: {kept}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = resolve(args, ROLLOUT_DEFAULTS)
    parse_mode(args.mode)
    check_limit(args.limit)
    corpus = load_corpus(args.corpus)
    model, cfg["steps"] = load_model_checked(args.ckpt, corpus, args.steps)
    out = Path(args.out)
    announce_config("eval", {**cfg, "ckpt": args.ckpt, "mode": args.mode,
                             "split": args.split, "limit": args.limit,
                             "out": str(out)},
                    out.with_suffix(out.suffix + ".config"))
    report = evaluate(model, corpus, args.mode, cfg["steps"], cfg["seed"],
                      split=args.split, limit=args.limit)
    write_report(report, out)
    print(json.dumps(report["aggregates"], indent=2))
    return EXIT_OK


ABLATION_DISTRIBUTIONS = {
    "even": (1 / 3, 1 / 3, 1 / 3),
    "replace-heavy": (0.5, 0.25, 0.25),
    "replace-only": (1.0, 0.0, 0.0),
}


def cmd_ablate(args) -> int:
    import csv

    cfg = resolve(args, ABLATE_DEFAULTS)
    check_limit(cfg["limit"])
    corpus = load_corpus(args.corpus)
    if args.which == "rw-count":
        model, cfg["steps"] = load_model_checked(Path(args.ckpt_dir) / "model.ckpt", corpus,
                                                 args.steps)
    else:  # the models it trains embed the default schedule's time steps
        cfg["steps"] = rollout_steps(args.steps, TRAIN_DEFAULTS["T"])
    out = Path(args.out)
    announce_config("ablate", {**cfg, "which": args.which, "ckpt_dir": args.ckpt_dir,
                               "out": str(out)},
                    out.with_suffix(out.suffix + ".config"))
    rows = []
    if args.which == "rw-count":
        for n in range(8, 13):
            rep = evaluate(model, corpus, f"random:{n}", cfg["steps"], cfg["seed"],
                           limit=cfg["limit"])
            rows.append({"which": "rw-count", "setting": n, **rep["aggregates"]})
    else:
        ckpt_dir = Path(args.ckpt_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        for name, (wr, wd, wi) in ABLATION_DISTRIBUTIONS.items():
            tcfg = dict(TRAIN_DEFAULTS)
            tcfg.update({"epochs": cfg["epochs"], "seed": cfg["seed"],
                         "w_replace": wr, "w_delete": wd, "w_insert": wi})
            print(f"-- training distribution {name} ({wr:.3f},{wd:.3f},{wi:.3f})")
            model, _, sch = train_once(corpus, tcfg, quiet=True)
            save_checkpoint(model, ckpt_dir / f"{name}.ckpt",
                            metadata={"distribution": name})
            rep = evaluate(model, corpus, f"random:{sch.target_len}", cfg["steps"],
                           cfg["seed"], limit=cfg["limit"])
            rows.append({"which": "edit-dist", "setting": name, **rep["aggregates"]})
        ems = {r["setting"]: r["em"] for r in rows}
        print("informational direction (desk scale): "
              f"replace-heavy={ems['replace-heavy']:.3f} "
              f"even={ems['even']:.3f} replace-only={ems['replace-only']:.3f}")
    with open(out, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} ablation rows to {out}")
    return EXIT_OK


def cmd_ratio(args) -> int:
    a = args.a.split()
    b = args.b.split()
    print(f"{lev_ratio(a, b):.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="editdiff",
        description="Edit-based discrete diffusion for explicit sequence editing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", help="JSON file overriding the world inventories")
    p.add_argument("--config")
    add_flags(p, SYNTH_DEFAULTS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("noise-demo", help="print a colorized noising trajectory")
    p.add_argument("--caption", required=True)
    p.add_argument("--corpus")
    add_flags(p, NOISE_DEMO_DEFAULTS)
    p.set_defaults(func=cmd_noise_demo)

    p = sub.add_parser("train", help="train a denoiser checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    add_flags(p, TRAIN_DEFAULTS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("edit", help="edit a reference caption for a scene")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--scene", type=int, required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("generate", help="generate a caption from random words")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--scene", type=int, required=True)
    add_flags(p, GENERATE_DEFAULTS)
    p.add_argument("--steps", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("control", help="generate with pinned control words")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--scene", type=int, required=True)
    p.add_argument("--pins", required=True)
    p.add_argument("--mode", choices=["hard", "soft"], default="hard")
    add_flags(p, GENERATE_DEFAULTS)
    p.add_argument("--steps", type=int)
    p.set_defaults(func=cmd_control)

    p = sub.add_parser("eval", help="run an evaluation mode and emit a report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--limit", type=int)
    add_flags(p, ROLLOUT_DEFAULTS)
    p.add_argument("--steps", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the ablation sweeps")
    p.add_argument("--which", choices=["rw-count", "edit-dist"], required=True)
    p.add_argument("--ckpt-dir", required=True)
    p.add_argument("--corpus", required=True)
    add_flags(p, ABLATE_DEFAULTS)
    p.add_argument("--steps", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("ratio", help="print the weighted similarity ratio of two captions")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_ratio)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except (CheckpointError, WorldError) as e:
        print(f"format error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except RuntimeError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:  # MetricError, EditError, ModelError, VocabularyError
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
