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
from pathlib import Path

import numpy as np

from .align import lev_ratio
from .diffusion import denoise_loop, make_random_sequence, place_pins, trace_to_jsonl_rows
from .edit_ops import CaptionState, EditError, EditOp, NoiseSchedule, Origin, sample_noising_step
from .metrics import MetricError, contains_in_order, evaluate, write_report
from .model import (CheckpointError, ModelConfig, ModelError, TrainConfig,
                    load_checkpoint, save_checkpoint, train)
from .vocab import VocabularyError
from .world import (Corpus, WorldError, WorldSpec, load_corpus, make_corpus,
                    save_corpus)

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
    """Plain-text key=value config; blank lines and # comments ignored."""
    if path is None:
        return {}
    out: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MetricError(f"bad config line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve(args: argparse.Namespace, file_cfg: dict, defaults: dict) -> dict:
    """Precedence: explicit flags > config file > defaults."""
    effective = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            effective[key] = flag_val
        elif key in file_cfg:
            effective[key] = type(default)(file_cfg[key])
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


def schedule_from(cfg: dict) -> NoiseSchedule:
    return NoiseSchedule(T=cfg["T"], w_replace=cfg["w_replace"],
                         w_delete=cfg["w_delete"], w_insert=cfg["w_insert"],
                         target_len=cfg["target_len"])


def load_corpus_checked(path: str) -> Corpus:
    if not Path(path).is_dir():
        raise FileNotFoundError(f"corpus directory not found: {path}")
    return load_corpus(path)


def load_model_checked(ckpt: str, corpus: Corpus):
    model, meta = load_checkpoint(ckpt)
    if model.cfg.vocab_size != corpus.vocab.size:
        raise CheckpointError(
            f"checkpoint vocab size {model.cfg.vocab_size} does not match "
            f"corpus vocab size {corpus.vocab.size}")
    if model.cfg.cond_vocab_size != corpus.spec.cond_vocab_size:
        raise CheckpointError("checkpoint condition vocabulary does not match corpus")
    return model, meta


def find_example(corpus: Corpus, scene_id: int):
    for split in ("test", "val", "train"):
        for ex in corpus.split(split):
            if ex.scene_id == scene_id:
                return ex
    raise MetricError(f"scene id {scene_id} not found in corpus")


def parse_pins(text: str, vocab) -> dict[int, int]:
    pins: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise MetricError(f"bad pin spec: {part!r} (want POS=WORD)")
        pos, word = part.split("=", 1)
        pins[int(pos)] = vocab.encode(word.strip())
    return pins


def cmd_synth(args) -> int:
    cfg = resolve(args, read_config_file(args.config), {"n": 2000, "seed": 0})
    out = Path(args.out)
    spec = WorldSpec()
    if args.spec:
        meta = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        spec = WorldSpec(entities=tuple(meta["entities"]),
                         attributes=tuple(meta["attributes"]),
                         relations=tuple(meta["relations"]))
    announce_config("synth", {**cfg, "out": str(out)})
    corpus = make_corpus(spec, cfg["n"], cfg["seed"])
    save_corpus(corpus, out)
    announce_config("synth", {**cfg, "out": str(out)}, out / "run.config")
    print(f"wrote corpus ({len(corpus.train)}/{len(corpus.val)}/{len(corpus.test)}) to {out}")
    return EXIT_OK


def cmd_noise_demo(args) -> int:
    cfg = resolve(args, {}, {"T": 10, "seed": 0, "target_len": 10,
                             "w_replace": 1.0, "w_delete": 0.0, "w_insert": 0.0})
    announce_config("noise-demo", {**cfg, "caption": args.caption})
    if args.corpus:
        vocab = load_corpus_checked(args.corpus).vocab
    else:
        from .world import build_world_vocab
        vocab = build_world_vocab(WorldSpec())
    words = args.caption.split()
    ids = vocab.encode_all(words)
    sch = schedule_from(cfg)
    rng = np.random.default_rng(cfg["seed"])
    state = CaptionState.from_ids(ids, step=0)
    print(f"x_0: {' '.join(words)}")
    for t in range(1, sch.T + 1):
        script, state = sample_noising_step(state, sch, t, vocab, rng)
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


TRAIN_DEFAULTS = {
    "epochs": 30, "lr": 1e-3, "batch": 2, "seed": 0, "warmup_frac": 0.05,
    "p_terminal": 0.5, "p_truncate": 0.15,
    "embed_dim": 128, "num_layers": 2, "num_heads": 4, "ffn_dim": 256,
    "T": 10, "target_len": 10,
    "w_replace": 1.0, "w_delete": 0.0, "w_insert": 0.0,
}


def train_once(corpus: Corpus, cfg: dict, quiet: bool = False):
    sch = schedule_from(cfg)
    mcfg = ModelConfig(vocab_size=corpus.vocab.size,
                       cond_vocab_size=corpus.spec.cond_vocab_size,
                       embed_dim=cfg["embed_dim"], num_layers=cfg["num_layers"],
                       num_heads=cfg["num_heads"], ffn_dim=cfg["ffn_dim"],
                       max_T=cfg["T"], seed=cfg["seed"])
    hyper = TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"], batch=cfg["batch"],
                        warmup_frac=cfg["warmup_frac"],
                        p_terminal=cfg["p_terminal"], p_truncate=cfg["p_truncate"],
                        seed=cfg["seed"])
    log_fn = None if quiet else lambda row: print(
        f"epoch {row['epoch']:3d}  edit {row['loss_edit']:.4f}  "
        f"language {row['loss_language']:.4f}  holdout-em {row['holdout_em']:.3f}  "
        f"[{row['elapsed_s']}s]")
    model, log = train(corpus, sch, mcfg, hyper, log_fn=log_fn)
    return model, log, sch


def cmd_train(args) -> int:
    cfg = resolve(args, read_config_file(args.config), TRAIN_DEFAULTS)
    corpus = load_corpus_checked(args.corpus)
    out = Path(args.out)
    announce_config("train", {**cfg, "corpus": args.corpus, "out": str(out)},
                    out.with_suffix(out.suffix + ".config"))
    model, log, _ = train_once(corpus, cfg)
    save_checkpoint(model, out, metadata={
        "epochs": cfg["epochs"], "seed": cfg["seed"],
        "corpus_hash": corpus.content_hash(),
        "schedule": {k: cfg[k] for k in ("T", "target_len", "w_replace",
                                         "w_delete", "w_insert")},
        "sampler": {k: cfg[k] for k in ("p_terminal", "p_truncate")},
    })
    out.with_suffix(out.suffix + ".log.json").write_text(
        json.dumps(log, indent=2), encoding="utf-8")
    print(f"saved checkpoint to {out}")
    return EXIT_OK


def cmd_edit(args) -> int:
    cfg = resolve(args, {}, {"steps": 10, "seed": 0})
    corpus = load_corpus_checked(args.corpus)
    model, _ = load_model_checked(args.ckpt, corpus)
    ex = find_example(corpus, args.scene)
    announce_config("edit", {**cfg, "ckpt": args.ckpt, "scene": args.scene,
                             "ref": args.ref})
    ids = corpus.vocab.encode_all(args.ref.split())
    state = CaptionState.from_ids(ids, step=cfg["steps"])
    [(final, trace)] = denoise_loop(model, [ex.condition], [state], cfg["steps"])
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            for row in trace_to_jsonl_rows(trace, corpus.vocab):
                f.write(json.dumps(row) + "\n")
    print("edited:", " ".join(corpus.vocab.decode_all(final.ids())))
    print("target:", " ".join(corpus.vocab.decode_all(ex.caption)))
    print(f"ratio-to-target: {lev_ratio(final.ids(), ex.caption):.4f}")
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = resolve(args, {}, {"steps": 10, "seed": 0, "len": 10})
    corpus = load_corpus_checked(args.corpus)
    model, _ = load_model_checked(args.ckpt, corpus)
    ex = find_example(corpus, args.scene)
    announce_config("generate", {**cfg, "ckpt": args.ckpt, "scene": args.scene})
    rng = np.random.default_rng(cfg["seed"])
    state = make_random_sequence(cfg["len"], corpus.vocab, rng, step=cfg["steps"])
    print("input :", " ".join(corpus.vocab.decode_all(state.ids())))
    [(final, _)] = denoise_loop(model, [ex.condition], [state], cfg["steps"])
    print("output:", " ".join(corpus.vocab.decode_all(final.ids())))
    print("target:", " ".join(corpus.vocab.decode_all(ex.caption)))
    return EXIT_OK


def cmd_control(args) -> int:
    cfg = resolve(args, {}, {"steps": 10, "seed": 0, "len": 10})
    corpus = load_corpus_checked(args.corpus)
    model, _ = load_model_checked(args.ckpt, corpus)
    ex = find_example(corpus, args.scene)
    announce_config("control", {**cfg, "ckpt": args.ckpt, "scene": args.scene,
                                "pins": args.pins, "mode": args.mode})
    pins = parse_pins(args.pins, corpus.vocab)
    rng = np.random.default_rng(cfg["seed"])
    state = place_pins(make_random_sequence(cfg["len"], corpus.vocab, rng, step=cfg["steps"]),
                       pins)
    print("input :", " ".join(corpus.vocab.decode_all(state.ids())))
    # soft mode places the pins in the start only; hard mode keeps them
    [(final, _)] = denoise_loop(model, [ex.condition], [state], cfg["steps"],
                                pins=[pins if args.mode == "hard" else None])
    print("output:", " ".join(corpus.vocab.decode_all(final.ids())))
    ordered = [w for _, w in sorted(pins.items())]
    kept = contains_in_order(final.ids(), ordered)
    print(f"pins retained in order: {kept}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = resolve(args, {}, {"steps": 10, "seed": 0})
    corpus = load_corpus_checked(args.corpus)
    model, _ = load_model_checked(args.ckpt, corpus)
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

    cfg = resolve(args, {}, {"steps": 10, "seed": 0, "epochs": 10, "limit": 200})
    corpus = load_corpus_checked(args.corpus)
    out = Path(args.out)
    announce_config("ablate", {**cfg, "which": args.which, "ckpt_dir": args.ckpt_dir,
                               "out": str(out)},
                    out.with_suffix(out.suffix + ".config"))
    rows = []
    if args.which == "rw-count":
        ckpt = Path(args.ckpt_dir) / "model.ckpt"
        model, _ = load_model_checked(ckpt, corpus)
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
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("noise-demo", help="print a colorized noising trajectory")
    p.add_argument("--caption", required=True)
    p.add_argument("--corpus")
    p.add_argument("--T", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--target-len", dest="target_len", type=int)
    p.add_argument("--w-replace", dest="w_replace", type=float)
    p.add_argument("--w-delete", dest="w_delete", type=float)
    p.add_argument("--w-insert", dest="w_insert", type=float)
    p.set_defaults(func=cmd_noise_demo)

    p = sub.add_parser("train", help="train a denoiser checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    for key in TRAIN_DEFAULTS:
        flag = "--" + key.replace("_", "-")
        p.add_argument(flag, dest=key, type=type(TRAIN_DEFAULTS[key]))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("edit", help="edit a reference caption for a scene")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--scene", type=int, required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("generate", help="generate a caption from random words")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--scene", type=int, required=True)
    p.add_argument("--len", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("control", help="generate with pinned control words")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--scene", type=int, required=True)
    p.add_argument("--pins", required=True)
    p.add_argument("--mode", choices=["hard", "soft"], default="hard")
    p.add_argument("--len", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_control)

    p = sub.add_parser("eval", help="run an evaluation mode and emit a report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--limit", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the ablation sweeps")
    p.add_argument("--which", choices=["rw-count", "edit-dist"], required=True)
    p.add_argument("--ckpt-dir", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--limit", type=int)
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
    except (FileNotFoundError, IsADirectoryError, PermissionError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except (CheckpointError, WorldError, json.JSONDecodeError) as e:
        print(f"format error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except (RuntimeError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MetricError, EditError, ModelError, VocabularyError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
