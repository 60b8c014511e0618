import argparse
import json
import struct
from dataclasses import asdict
from pathlib import Path

import pytest

from editdiff.cli import (
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_pins,
    read_config_file,
    resolve,
)
from editdiff.metrics import MetricError
from editdiff.model import (CheckpointError, DenoiserModel, ModelConfig, load_checkpoint,
                            save_checkpoint)
from editdiff.world import WorldSpec, load_corpus, make_corpus, save_corpus

TINY_TRAIN = ["--epochs", "2", "--batch", "4", "--embed-dim", "16",
              "--num-layers", "1", "--num-heads", "2", "--ffn-dim", "32"]


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nseed = 3\nn=17\n", encoding="utf-8")
    assert read_config_file(str(cfg)) == {"seed": "3", "n": "17"}
    assert read_config_file(None) == {}
    cfg.write_text("no_equals_sign\n", encoding="utf-8")
    with pytest.raises(MetricError):
        read_config_file(str(cfg))


def test_resolve_precedence():
    defaults = {"n": 100, "seed": 0, "lr": 1e-3}
    args = argparse.Namespace(n=5, seed=None, lr=None)
    eff = resolve(args, {"seed": "9", "n": "42"}, defaults)
    # flag beats file, file beats default, default fills the rest
    assert eff == {"n": 5, "seed": 9, "lr": 1e-3}
    assert isinstance(eff["seed"], int)


def test_parse_pins_round_trip():
    corpus = make_corpus(WorldSpec(), 10, seed=0)
    word0 = corpus.vocab.decode(corpus.train[0].caption[0])
    word1 = corpus.vocab.decode(corpus.train[0].caption[1])
    pins = parse_pins(f"2={word0}, 6={word1}", corpus.vocab)
    assert pins == {2: corpus.train[0].caption[0], 6: corpus.train[0].caption[1]}
    with pytest.raises(MetricError):
        parse_pins("nonsense", corpus.vocab)


def test_ratio_command(capsys):
    assert main(["ratio", "a b c", "a b c"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"
    assert main(["ratio", "a b", "c d"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"


def test_missing_subcommand_is_argparse_error():
    with pytest.raises(SystemExit):
        main([])


def test_synth_writes_corpus_and_config(tmp_path, capsys):
    out = tmp_path / "world"
    assert main(["synth", "--n", "40", "--seed", "1", "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "n=40" in text and "seed=1" in text
    corpus = load_corpus(out)
    assert len(corpus.train) + len(corpus.val) + len(corpus.test) == 40
    cfg = (out / "run.config").read_text(encoding="utf-8")
    assert "n=40" in cfg


def test_synth_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n=30\nseed=2\n", encoding="utf-8")
    out_a = tmp_path / "a"
    assert main(["synth", "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
    assert sum(len(load_corpus(out_a).split(s)) for s in ("train", "val", "test")) == 30
    out_b = tmp_path / "b"
    assert main(["synth", "--config", str(cfg), "--n", "20", "--out", str(out_b)]) == EXIT_OK
    assert sum(len(load_corpus(out_b).split(s)) for s in ("train", "val", "test")) == 20


def test_noise_demo_prints_all_steps(capsys):
    code = main(["noise-demo", "--caption", "young shark near cave and blue horse near lake",
                 "--seed", "3"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "x_0:" in out
    for t in range(1, 11):
        assert f"t={t:2d}" in out


def test_noise_demo_unknown_word_is_usage_error(capsys):
    assert main(["noise-demo", "--caption", "zzznotaword"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small corpus plus a CLI-trained tiny checkpoint, shared by command tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    assert main(["synth", "--n", "30", "--seed", "4", "--out", str(corpus_dir)]) == EXIT_OK
    ckpt = root / "model.ckpt"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(ckpt)] + TINY_TRAIN)
    assert code == EXIT_OK
    return corpus_dir, ckpt


def test_train_writes_checkpoint_log_and_config(trained):
    corpus_dir, ckpt = trained
    assert ckpt.exists()
    log = json.loads(Path(str(ckpt) + ".log.json").read_text(encoding="utf-8"))
    assert len(log) == 2
    assert {"epoch", "loss_edit", "loss_language", "holdout_em"} <= set(log[0])
    assert Path(str(ckpt) + ".config").exists()


def test_train_is_bit_reproducible(trained, tmp_path):
    corpus_dir, ckpt = trained
    again = tmp_path / "again.ckpt"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(again)] + TINY_TRAIN)
    assert code == EXIT_OK
    assert again.read_bytes() == ckpt.read_bytes()


def test_train_missing_corpus_is_io_error(tmp_path, capsys):
    code = main(["train", "--corpus", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "m.ckpt")])
    assert code == EXIT_IO
    assert "io error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--batch", "0"], ["--batch", "-1"], ["--epochs", "0"],
                                   ["--epochs", "-1"], ["--lr", "0"], ["--lr", "nan"],
                                   ["--warmup-frac", "2"]])
def test_train_bad_hyperparameter_is_usage_error(trained, tmp_path, capsys, flags):
    corpus_dir, _ = trained
    out = tmp_path / "m.ckpt"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out)] + flags)
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_edit_command(trained, tmp_path, capsys):
    corpus_dir, ckpt = trained
    corpus = load_corpus(corpus_dir)
    scene = corpus.test[0].scene_id
    ref = " ".join(corpus.vocab.decode_all(corpus.test[0].caption))
    trace = tmp_path / "trace.jsonl"
    code = main(["edit", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                 "--scene", str(scene), "--ref", ref, "--steps", "3",
                 "--trace", str(trace)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "edited:" in out and "ratio-to-target:" in out
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [row["t"] for row in rows] == [3, 2, 1]


def test_edit_unknown_scene_is_usage_error(trained, capsys):
    corpus_dir, ckpt = trained
    code = main(["edit", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                 "--scene", "999999", "--ref", "the"])
    assert code == EXIT_USAGE


def test_generate_command(trained, capsys):
    corpus_dir, ckpt = trained
    corpus = load_corpus(corpus_dir)
    scene = corpus.test[0].scene_id
    code = main(["generate", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                 "--scene", str(scene), "--len", "10", "--steps", "5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "input :" in out and "output:" in out and "target:" in out


def test_control_command_hard_pins(trained, capsys):
    corpus_dir, ckpt = trained
    corpus = load_corpus(corpus_dir)
    ex = corpus.test[0]
    w2 = corpus.vocab.decode(ex.caption[2])
    code = main(["control", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                 "--scene", str(ex.scene_id), "--pins", f"2={w2}",
                 "--mode", "hard", "--steps", "5"])
    assert code == EXIT_OK
    assert "pins retained in order: True" in capsys.readouterr().out


def test_control_pin_out_of_range(trained, capsys):
    corpus_dir, ckpt = trained
    corpus = load_corpus(corpus_dir)
    ex = corpus.test[0]
    w = corpus.vocab.decode(ex.caption[0])
    code = main(["control", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                 "--scene", str(ex.scene_id), "--pins", f"99={w}", "--len", "10"])
    assert code == EXIT_USAGE


def test_eval_command_writes_reports(trained, tmp_path, capsys):
    corpus_dir, ckpt = trained
    out = tmp_path / "report.json"
    code = main(["eval", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                 "--mode", "random:10", "--limit", "2", "--steps", "3",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["aggregates"]["n_examples"] == 2
    assert (tmp_path / "report.csv").exists()
    assert '"em"' in capsys.readouterr().out


def test_eval_bad_mode_is_usage_error(trained, tmp_path):
    corpus_dir, ckpt = trained
    code = main(["eval", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                 "--mode", "weird", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("flags", [["--mode", "ood:1.5"], ["--mode", "ood:nan"],
                                   ["--mode", "random:10", "--limit", "-1"]])
def test_eval_bad_ratio_or_limit_is_usage_error(trained, tmp_path, capsys, flags):
    corpus_dir, ckpt = trained
    code = main(["eval", "--ckpt", str(ckpt), "--corpus", str(corpus_dir), *flags,
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_corrupt_checkpoint_is_format_error(trained, tmp_path, capsys):
    corpus_dir, _ = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK" * 8)
    code = main(["eval", "--ckpt", str(bad), "--corpus", str(corpus_dir),
                 "--mode", "random:10", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_FORMAT
    assert "format error" in capsys.readouterr().err


def test_eval_overlong_rollouts_exit_ok(trained, tmp_path):
    # an untrained model with room for few caption words grows its captions
    # past max_seq_len; those rollouts stop, are scored and are counted
    corpus_dir, _ = trained
    corpus = load_corpus(corpus_dir)
    ckpt = tmp_path / "untrained.ckpt"
    save_checkpoint(DenoiserModel(ModelConfig(
        vocab_size=corpus.vocab.size, cond_vocab_size=corpus.spec.cond_vocab_size,
        embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32, max_seq_len=22, seed=3)), ckpt)
    out = tmp_path / "report.json"
    code = main(["eval", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                 "--mode", "control", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text(encoding="utf-8"))["aggregates"]["n_overflow"] >= 1


def _checkpoint_bytes(cfg: dict, blocks, meta: bytes = b"{}", count: int | None = None) -> bytes:
    """A checkpoint in the documented layout, written apart from save_checkpoint."""
    def u32(n):
        return struct.pack("<I", n)

    out = [b"EDIF1", u32(1)]
    for blob in (json.dumps(cfg).encode("utf-8"), meta):
        out += [u32(len(blob)), blob]
    out.append(u32(len(blocks) if count is None else count))
    for name, array in blocks:
        out += [u32(len(name)), name.encode("utf-8"), u32(array.ndim),
                *(u32(dim) for dim in array.shape), array.astype("<f8").tobytes()]
    return b"".join(out)


def _cut(at):
    """Intact checkpoint bytes cut to their first ``at(length)`` bytes."""
    def make(cfg, blocks):
        data = _checkpoint_bytes(cfg, blocks)
        return data[:at(len(data))]
    return make


# case: (checkpoint bytes from the intact config and blocks, error pattern or
# None when the checkpoint must load)
CHECKPOINT_CASES = {
    "intact": (lambda c, b: _checkpoint_bytes(c, b), None),
    "legacy-dropout-zero": (lambda c, b: _checkpoint_bytes({**c, "dropout": 0.0}, b), None),
    "cut-in-version": (_cut(lambda n: 7), "truncated"),
    "cut-in-config": (_cut(lambda n: 30), "truncated"),
    "cut-in-half": (_cut(lambda n: n // 2), "truncated"),
    "cut-last-byte": (_cut(lambda n: n - 1), "truncated"),
    "trailing-bytes": (lambda c, b: _checkpoint_bytes(c, b) + b"\0" * 4, "trailing"),
    "duplicated-block": (lambda c, b: _checkpoint_bytes(c, [b[0], b[0]] + b[2:]),
                         "parameter block b'word_emb'"),
    "missing-block": (lambda c, b: _checkpoint_bytes(c, b[:1] + b[2:]), "parameter blocks, want"),
    "missing-block-kept-count": (lambda c, b: _checkpoint_bytes(c, b[:-1], count=len(b)),
                                 "truncated"),
    "unknown-key": (lambda c, b: _checkpoint_bytes({**c, "width": 3}, b), "unknown \\['width'\\]"),
    "missing-key": (lambda c, b: _checkpoint_bytes({k: v for k, v in c.items() if k != "seed"},
                                                   b), "missing \\['seed'\\]"),
    "nonzero-dropout": (lambda c, b: _checkpoint_bytes({**c, "dropout": 0.1}, b), "dropout 0.1"),
    "rejected-config": (lambda c, b: _checkpoint_bytes({**c, "num_heads": 3}, b),
                        "divisible by num_heads"),
    "non-integer-config": (lambda c, b: _checkpoint_bytes({**c, "embed_dim": "16"}, b),
                           "integers"),
    "metadata-not-object": (lambda c, b: _checkpoint_bytes(c, b, meta=b"[]"), "JSON object"),
    "metadata-bad-json": (lambda c, b: _checkpoint_bytes(c, b, meta=b"{"), "metadata JSON"),
}


@pytest.mark.parametrize("case", list(CHECKPOINT_CASES))
def test_checkpoint_corruption_exit_codes(trained, tmp_path, capsys, case):
    corpus_dir, ckpt = trained
    model, _ = load_checkpoint(ckpt)
    blocks = [(name, p.data) for name, p in model.params.items()]
    make, pattern = CHECKPOINT_CASES[case]
    path = tmp_path / "case.ckpt"
    path.write_bytes(make(asdict(model.cfg), blocks))
    args = ["eval", "--ckpt", str(path), "--corpus", str(corpus_dir), "--mode", "random:10",
            "--limit", "1", "--steps", "1", "--out", str(tmp_path / "r.json")]
    if pattern is None:
        assert load_checkpoint(path)[0].cfg == model.cfg
        assert main(args) == EXIT_OK
        return
    with pytest.raises(CheckpointError, match=pattern):
        load_checkpoint(path)
    assert main(args) == EXIT_FORMAT
    assert "format error" in capsys.readouterr().err


def test_checkpoint_corpus_mismatch_is_format_error(trained, tmp_path):
    _, ckpt = trained
    other = tmp_path / "other"
    spec = WorldSpec(entities=("cube", "sphere"), attributes=("red", "blue"),
                     relations=("near",))
    save_corpus(make_corpus(spec, 10, seed=0), other)
    code = main(["eval", "--ckpt", str(ckpt), "--corpus", str(other),
                 "--mode", "random:10", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_FORMAT


def test_ablate_rw_count(trained, tmp_path, capsys):
    corpus_dir, ckpt = trained
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    (ckpt_dir / "model.ckpt").write_bytes(ckpt.read_bytes())
    out = tmp_path / "ablation.csv"
    code = main(["ablate", "--which", "rw-count", "--ckpt-dir", str(ckpt_dir),
                 "--corpus", str(corpus_dir), "--limit", "2", "--steps", "3",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 6  # header plus one row per random-word count 8..12
    assert lines[0].startswith("which,setting,")
