import argparse
import hashlib
import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
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
from editdiff.model import (CheckpointError, DenoiserModel, ModelConfig, _param_table,
                            load_checkpoint, save_checkpoint)
from editdiff.world import SPLITS, WorldError, WorldSpec, load_corpus, make_corpus, save_corpus

TINY_TRAIN = ["--epochs", "2", "--batch", "4", "--embed-dim", "16",
              "--num-layers", "1", "--num-heads", "2", "--ffn-dim", "32"]


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nseed = 3\nn=17\n", encoding="utf-8")
    assert read_config_file(str(cfg)) == {"seed": "3", "n": "17"}
    assert read_config_file(None) == {}
    for line in ("no_equals_sign", "= 3"):
        cfg.write_text(f"seed=3\n{line}\n", encoding="utf-8")
        with pytest.raises(WorldError, match=f"{cfg}: line 2 "):
            read_config_file(str(cfg))


def test_resolve_precedence(tmp_path):
    defaults = {"n": 100, "seed": 0, "lr": 1e-3}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=9\nn=42\n", encoding="utf-8")
    args = argparse.Namespace(n=5, seed=None, lr=None, config=str(cfg))
    eff = resolve(args, defaults)
    # flag beats file, file beats default, default fills the rest
    assert eff == {"n": 5, "seed": 9, "lr": 1e-3}
    assert isinstance(eff["seed"], int)
    # a command without --config takes flags and defaults only
    assert resolve(argparse.Namespace(n=None, seed=2, lr=None), defaults) == \
        {"n": 100, "seed": 2, "lr": 1e-3}


def test_parse_pins_round_trip():
    corpus = make_corpus(WorldSpec(), 10, seed=0)
    word0 = corpus.vocab.decode(corpus.train[0].caption[0])
    word1 = corpus.vocab.decode(corpus.train[0].caption[1])
    pins = parse_pins(f"2={word0}, 6={word1}", corpus.vocab, 7)
    assert pins == {2: corpus.train[0].caption[0], 6: corpus.train[0].caption[1]}
    with pytest.raises(MetricError):
        parse_pins("nonsense", corpus.vocab, 7)
    with pytest.raises(MetricError, match="outside 0..5"):
        parse_pins(f"6={word1}", corpus.vocab, 6)


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
    assert text.count("# synth effective config") == 1
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
    captured = capsys.readouterr()
    assert "usage error" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("caption", ["", "  \t "])
def test_noise_demo_blank_caption_is_usage_error(capsys, caption):
    assert main(["noise-demo", "--caption", caption]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "cannot noise an empty caption" in captured.err
    assert captured.out == ""


def test_noise_demo_nan_weight_is_usage_error(capsys):
    assert main(["noise-demo", "--caption", "the cat", "--w-replace", "nan"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "usage error" in captured.err
    assert captured.out == ""


def test_synth_too_few_scenes_is_usage_error(tmp_path, capsys):
    out = tmp_path / "world"
    assert main(["synth", "--n", "2", "--out", str(out)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "train"])
def test_unknown_config_key_is_usage_error(trained, tmp_path, capsys, command):
    # a misspelled setting, and a flag of the command that has no default
    # and so cannot be set from the file
    corpus_dir, _ = trained
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    flags = ["--corpus", str(corpus_dir)] if command == "train" else []
    for key in ("epoch", {"synth": "spec", "train": "config"}[command]):
        cfg.write_text(f"seed=1\n{key}=5\n", encoding="utf-8")
        code = main([command, "--config", str(cfg), "--out", str(out)] + flags)
        assert code == EXIT_USAGE
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", ["synth", "train"])
def test_config_line_that_is_not_key_value_is_format_error_naming_file_and_line(
        trained, tmp_path, capsys, command):
    corpus_dir, _ = trained
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# settings\nseed=1\ngarbage\n", encoding="utf-8")
    flags = ["--corpus", str(corpus_dir)] if command == "train" else []
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")] + flags)
    assert code == EXIT_FORMAT
    captured = capsys.readouterr()
    assert f"format error: {cfg}: line 3 is not key=value: 'garbage'" in captured.err
    assert "effective config" not in captured.out
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command, line", [("synth", "n=abc"), ("train", "lr=fast"),
                                           ("train", "epochs=2.5")])
def test_config_value_of_the_wrong_type_is_usage_error_naming_key_and_file(
        trained, tmp_path, capsys, command, line):
    corpus_dir, _ = trained
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    flags = ["--corpus", str(corpus_dir)] if command == "train" else []
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")] + flags)
    assert code == EXIT_USAGE
    key, value = line.split("=")
    captured = capsys.readouterr()
    assert f"usage error: {cfg}: {key}='{value}' is not of type" in captured.err
    assert "effective config" not in captured.out
    assert list(tmp_path.iterdir()) == [cfg]


def test_non_utf8_config_file_is_format_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed=\xff\n")
    code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_FORMAT
    assert "format error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


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


def test_train_checkpoint_holds_the_trained_float32_values_in_the_float64_layout(trained):
    # magic, version, config and metadata JSON, then for every block of the
    # parameter table its name, dims and little-endian float64 values
    _, ckpt = trained
    blob = ckpt.read_bytes()
    model, _ = load_checkpoint(ckpt)
    assert blob[:5] == b"EDIF1" and struct.unpack_from("<I", blob, 5) == (1,)
    pos = 9
    for _ in range(2):
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
    table = _param_table(model.cfg)
    assert struct.unpack_from("<I", blob, pos) == (len(table),)
    pos += 4
    for name, shape, _ in table:
        size = struct.unpack_from("<I", blob, pos)[0]
        assert blob[pos + 4:pos + 4 + size] == name.encode("utf-8")
        pos += 4 + size
        assert struct.unpack_from(f"<{len(shape) + 1}I", blob, pos) == (len(shape),) + shape
        pos += 4 * (len(shape) + 1)
        values = np.frombuffer(blob, dtype="<f8", count=math.prod(shape), offset=pos)
        pos += 8 * values.size
        assert np.array_equal(values.reshape(shape), model.params[name].data)
        # float64 blocks holding exactly the trained float32 values
        assert np.array_equal(values, values.astype(np.float32))
    assert pos == len(blob)


def test_train_is_bit_reproducible(trained, tmp_path):
    corpus_dir, ckpt = trained
    again = tmp_path / "again.ckpt"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(again)] + TINY_TRAIN)
    assert code == EXIT_OK
    assert again.read_bytes() == ckpt.read_bytes()


def test_train_config_file_reproduces_the_run(trained, tmp_path):
    # the logged config holds corpus= and out= as well; both are accepted
    corpus_dir, ckpt = trained
    again = tmp_path / "again.ckpt"
    code = main(["train", "--config", str(ckpt) + ".config", "--corpus", str(corpus_dir),
                 "--out", str(again)])
    assert code == EXIT_OK
    assert again.read_bytes() == ckpt.read_bytes()


def test_train_missing_corpus_is_io_error(tmp_path, capsys):
    code = main(["train", "--corpus", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "m.ckpt")])
    assert code == EXIT_IO
    assert "io error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--batch", "0"], ["--batch", "-1"], ["--epochs", "0"],
                                   ["--epochs", "-1"], ["--lr", "0"], ["--lr", "nan"],
                                   ["--warmup-frac", "2"], ["--p-terminal", "2"],
                                   ["--p-terminal", "nan"], ["--p-truncate", "-0.1"],
                                   ["--p-terminal", "0.9", "--p-truncate", "0.2"],
                                   ["--w-replace", "nan"],
                                   ["--w-replace", "0.9", "--w-insert", "0.2"]])
def test_train_bad_hyperparameter_is_usage_error(trained, tmp_path, capsys, flags):
    corpus_dir, _ = trained
    out = tmp_path / "m.ckpt"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out)] + flags)
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()
    assert not Path(str(out) + ".config").exists()  # validated before any file is written


def _meta_as_list(d):
    meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
    (d / "meta.json").write_text(json.dumps(list(meta.values())), encoding="utf-8")


def _meta_without_entities(d):
    meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
    del meta["entities"]
    (d / "meta.json").write_text(json.dumps(meta), encoding="utf-8")


def _row_without_caption(d):
    rows = (d / "train.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(rows[0])
    del first["caption"]
    (d / "train.jsonl").write_text("\n".join([json.dumps(first)] + rows[1:]) + "\n",
                                   encoding="utf-8")


def _vocab_cut_to_5_lines(d):
    lines = (d / "vocab.txt").read_text(encoding="utf-8").splitlines()
    (d / "vocab.txt").write_text("\n".join(lines[:5]) + "\n", encoding="utf-8")


def _train_not_utf8(d):
    with open(d / "train.jsonl", "ab") as f:
        f.write(b"\xff")


def _set_first_field(d, key, change):
    """Change a field of the first training row, and record the files' new
    hash so that only the check of that field can catch it."""
    rows = (d / "train.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(rows[0])
    first[key] = change(first[key])
    (d / "train.jsonl").write_text(
        "\n".join([json.dumps(first, separators=(",", ":"))] + rows[1:]) + "\n",
        encoding="utf-8")
    meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
    meta["hash"] = hashlib.sha256(
        b"".join((d / f"{split}.jsonl").read_bytes() for split in SPLITS)).hexdigest()
    (d / "meta.json").write_text(json.dumps(meta), encoding="utf-8")


def _set_first_id(d, key, value):
    _set_first_field(d, key, lambda ids: [value] + ids[1:])


def _caption_id_999(d):
    _set_first_id(d, "caption", 999)


def _condition_id_999(d):
    _set_first_id(d, "condition", 999)


def _caption_id_0(d):
    _set_first_id(d, "caption", 0)


def _empty_caption(d):
    _set_first_field(d, "caption", lambda ids: [])


@pytest.mark.parametrize("damage", [_meta_as_list, _meta_without_entities, _row_without_caption,
                                    _vocab_cut_to_5_lines, _train_not_utf8, _caption_id_999,
                                    _condition_id_999, _caption_id_0, _empty_caption])
def test_malformed_corpus_is_format_error(tmp_path, capsys, damage):
    corpus_dir = tmp_path / "corpus"
    save_corpus(make_corpus(WorldSpec(), 10, seed=0), corpus_dir)
    damage(corpus_dir)
    out = tmp_path / "m.ckpt"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(out)])
    assert code == EXIT_FORMAT
    err = capsys.readouterr().err
    assert "format error" in err
    if damage is _empty_caption:
        assert "format error: train.jsonl line 1: empty caption" in err
    assert not out.exists()
    assert not Path(str(out) + ".config").exists()


SPEC = {"entities": ["cat", "dog"], "attributes": ["red"], "relations": ["tree"]}


@pytest.mark.parametrize("name", ["meta.json", "vocab.txt", "train.jsonl", "val.jsonl",
                                  "test.jsonl", "run.cfg", "spec.json"])
def test_non_utf8_file_is_format_error_naming_it(tmp_path, capsys, name):
    corpus_dir = tmp_path / "corpus"
    save_corpus(make_corpus(WorldSpec(), 10, seed=0), corpus_dir)
    (tmp_path / "run.cfg").write_text("seed=1\n", encoding="utf-8")
    (tmp_path / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    bad = tmp_path / name if name in ("run.cfg", "spec.json") else corpus_dir / name
    with open(bad, "ab") as f:
        f.write(b"\xff")
    out = tmp_path / "out"
    if name == "run.cfg":
        argv = ["synth", "--config", str(bad)]
    elif name == "spec.json":
        argv = ["synth", "--spec", str(bad)]
    else:
        argv = ["train", "--corpus", str(corpus_dir)]
    code = main(argv + ["--out", str(out)])
    assert code == EXIT_FORMAT
    assert capsys.readouterr().err.startswith(f"format error: {bad}: 'utf-8' codec")
    assert not out.exists()


@pytest.mark.parametrize("name", ["meta.json", "train.jsonl", "val.jsonl", "test.jsonl",
                                  "spec.json"])
def test_json_syntax_error_is_format_error_naming_file_and_line(tmp_path, capsys, name):
    corpus_dir = tmp_path / "corpus"
    save_corpus(make_corpus(WorldSpec(), 10, seed=0), corpus_dir)
    (tmp_path / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    bad = tmp_path / name if name == "spec.json" else corpus_dir / name
    if name.endswith(".jsonl"):  # a row appended after the file's last row
        line = len(bad.read_text(encoding="utf-8").splitlines()) + 1
        with open(bad, "a", encoding="utf-8") as f:
            f.write("{not json\n")
        where = f"line {line} column 2"
    else:
        bad.write_text('{"entities": [', encoding="utf-8")
        where = "line 1 column 15"
    out = tmp_path / "out"
    if name == "spec.json":
        argv = ["synth", "--spec", str(bad)]
    else:
        argv = ["train", "--corpus", str(corpus_dir)]
    code = main(argv + ["--out", str(out)])
    assert code == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith(f"format error: {bad}: ") and f" at {where}\n" in err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    json.dumps({"entities": SPEC["entities"]}),                       # missing fields
    json.dumps([SPEC["entities"], SPEC["attributes"]]),               # not an object
    '{"entities": ["cat", ',                                          # not JSON
    json.dumps({**SPEC, "attributes": "red"}),                        # not a list
    json.dumps({**SPEC, "relations": ["tree", 3]}),                   # not all strings
    json.dumps({**SPEC, "entities": []}),                             # empty
    json.dumps({**SPEC, "entities": ["cat", "cat"]}),                 # duplicate word
    json.dumps({**SPEC, "entities": ["[PAD]", "cat"]}),               # special token
    json.dumps({**SPEC, "entities": ["", "cat"]}),                    # empty word
    json.dumps({**SPEC, "attributes": ["red\nblue"]}),                # line break
    json.dumps({**SPEC, "relations": ["tree\u2028"]}),                # Unicode line break
    json.dumps(SPEC).encode("utf-8") + b"\xff",                       # not UTF-8
])
def test_synth_malformed_spec_is_format_error(tmp_path, capsys, text):
    spec = tmp_path / "spec.json"
    spec.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    out = tmp_path / "world"
    code = main(["synth", "--spec", str(spec), "--n", "5", "--out", str(out)])
    assert code == EXIT_FORMAT
    assert "format error" in capsys.readouterr().err
    assert not out.exists()


def test_synth_spec_sets_the_inventories(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    out = tmp_path / "world"
    assert main(["synth", "--spec", str(spec), "--n", "5", "--out", str(out)]) == EXIT_OK
    corpus = load_corpus(out)
    assert corpus.spec.entities == ("cat", "dog") and corpus.spec.relations == ("tree",)


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


@pytest.mark.parametrize("ref", ["", "  \t "])
def test_edit_blank_ref_is_usage_error(trained, capsys, ref):
    corpus_dir, ckpt = trained
    scene = load_corpus(corpus_dir).test[0].scene_id
    code = main(["edit", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                 "--scene", str(scene), "--ref", ref])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--ref: cannot edit an empty caption" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("command, flags, named", [
    ("control", ["--pins", "x=hawk"], "--pins: bad part 'x=hawk'"),
    ("control", ["--pins", "2"], "--pins: bad part '2'"),
    ("control", ["--pins", "2={w},2={w}"], "--pins: position 2 is pinned twice"),
    ("control", ["--pins", "99={w}"], "--pins: position 99 in '99={w}' is outside 0..9"),
    ("control", ["--pins=-1={w}"], "--pins: position -1"),
    ("control", ["--pins", "2=zzz"], "--pins: unknown word 'zzz' in '2=zzz'"),
    ("control", ["--pins", "2={w}", "--len", "0"], "--len 0"),
    ("generate", ["--len", "0"], "--len 0"),
    ("generate", ["--len", "-3"], "--len -3"),
    ("edit", ["--ref", "zzz qqq"], "--ref: unknown word: 'zzz'"),
])
def test_rollout_inputs_are_checked_before_the_config_is_printed(trained, capsys, command,
                                                                 flags, named):
    corpus_dir, ckpt = trained
    corpus = load_corpus(corpus_dir)
    ex = corpus.test[0]
    w = corpus.vocab.decode(ex.caption[0])
    flags = [f.replace("{w}", w) for f in flags]
    code = main([command, "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                 "--scene", str(ex.scene_id), "--steps", "2"] + flags)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert named.replace("{w}", w) in captured.err


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


@pytest.mark.parametrize("mode", ["bogus", "random:abc", "random:0", "random:-3", "ood:2",
                                  "ood:nan"])
def test_eval_bad_mode_is_usage_error_naming_it_before_any_file(trained, tmp_path, capsys,
                                                                mode):
    corpus_dir, ckpt = trained
    code = main(["eval", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                 "--mode", mode, "--out", str(tmp_path / "r.json")])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"usage error: unknown evaluation mode {mode!r}" in captured.err
    assert "effective config" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_eval_unknown_split_is_usage_error(trained, tmp_path):
    corpus_dir, ckpt = trained
    with pytest.raises(SystemExit) as exit_info:  # argparse rejects it with exit 2
        main(["eval", "--ckpt", str(ckpt), "--corpus", str(corpus_dir), "--mode", "random:10",
              "--split", "foo", "--out", str(tmp_path / "r.json")])
    assert exit_info.value.code == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [["--mode", "ood:1.5"], ["--mode", "ood:nan"],
                                   ["--mode", "random:10", "--limit", "-1"]])
def test_eval_bad_ratio_or_limit_is_usage_error(trained, tmp_path, capsys, flags):
    corpus_dir, ckpt = trained
    code = main(["eval", "--ckpt", str(ckpt), "--corpus", str(corpus_dir), *flags,
                 "--out", str(tmp_path / "r.json")])
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["eval", "edit", "generate", "control", "rw-count",
                                     "edit-dist"])
@pytest.mark.parametrize("steps", ["0", "11"])
def test_steps_outside_the_model_time_steps_is_usage_error_before_any_file(
        trained, tmp_path, capsys, command, steps):
    # the tiny checkpoint, and the models edit-dist would train, embed t = 1..10
    corpus_dir, ckpt = trained
    corpus = load_corpus(corpus_dir)
    ex = corpus.test[0]
    scene = ["--scene", str(ex.scene_id)]
    out = tmp_path / "out" / "r.json"
    ckpt_dir = tmp_path / "out" / "ckpts"
    argv = {
        "eval": ["eval", "--ckpt", str(ckpt), "--mode", "random:10", "--out", str(out)],
        "edit": ["edit", "--ckpt", str(ckpt), *scene, "--ref", "the",
                 "--trace", str(out)],
        "generate": ["generate", "--ckpt", str(ckpt), *scene],
        "control": ["control", "--ckpt", str(ckpt), *scene,
                    "--pins", f"0={corpus.vocab.decode(ex.caption[0])}"],
        "rw-count": ["ablate", "--which", "rw-count", "--ckpt-dir", str(ckpt.parent),
                     "--out", str(out)],
        "edit-dist": ["ablate", "--which", "edit-dist", "--ckpt-dir", str(ckpt_dir),
                      "--out", str(out)],
    }[command]
    (tmp_path / "out").mkdir()
    code = main(argv + ["--corpus", str(corpus_dir), "--steps", steps])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"usage error: --steps {steps} outside 1..10" in captured.err
    assert "effective config" not in captured.out
    assert list((tmp_path / "out").iterdir()) == []


@pytest.fixture(scope="module")
def trained_t5(trained, tmp_path_factory):
    """A tiny checkpoint whose model embeds time steps 1..5 only."""
    corpus_dir, _ = trained
    ckpt = tmp_path_factory.mktemp("cli_t5") / "model.ckpt"
    code = main(["train", "--corpus", str(corpus_dir), "--out", str(ckpt), "--T", "5"]
                + TINY_TRAIN + ["--epochs", "1"])
    assert code == EXIT_OK
    return corpus_dir, ckpt


@pytest.mark.parametrize("command", ["eval", "edit", "generate", "control", "rw-count"])
def test_steps_default_to_the_model_time_steps(trained_t5, tmp_path, capsys, command):
    corpus_dir, ckpt = trained_t5
    corpus = load_corpus(corpus_dir)
    ex = corpus.test[0]
    scene = ["--scene", str(ex.scene_id)]
    out = tmp_path / "r.json"
    argv = {
        "eval": ["eval", "--ckpt", str(ckpt), "--mode", "random:10", "--limit", "2",
                 "--out", str(out)],
        "edit": ["edit", "--ckpt", str(ckpt), *scene, "--ref", "the",
                 "--trace", str(tmp_path / "trace.jsonl")],
        "generate": ["generate", "--ckpt", str(ckpt), *scene],
        "control": ["control", "--ckpt", str(ckpt), *scene,
                    "--pins", f"0={corpus.vocab.decode(ex.caption[0])}"],
        "rw-count": ["ablate", "--which", "rw-count", "--ckpt-dir", str(ckpt.parent),
                     "--limit", "1", "--out", str(out)],
    }[command]
    assert main(argv + ["--corpus", str(corpus_dir)]) == EXIT_OK
    assert "\nsteps=5\n" in capsys.readouterr().out
    if command in ("eval", "rw-count"):
        assert "steps=5\n" in Path(str(out) + ".config").read_text(encoding="utf-8")
    if command == "eval":
        assert json.loads(out.read_text(encoding="utf-8"))["steps"] == 5
    if command == "edit":
        assert len((tmp_path / "trace.jsonl").read_text().splitlines()) == 5
    # an explicit --steps is still checked against the model
    assert main(argv + ["--corpus", str(corpus_dir), "--steps", "6"]) == EXIT_USAGE
    assert "usage error: --steps 6 outside 1..5" in capsys.readouterr().err


def test_edit_has_no_seed(trained, capsys):
    corpus_dir, ckpt = trained
    corpus = load_corpus(corpus_dir)
    argv = ["edit", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
            "--scene", str(corpus.test[0].scene_id), "--ref", "the"]
    with pytest.raises(SystemExit) as exit_info:  # argparse rejects the flag with exit 2
        main(argv + ["--seed", "1"])
    assert exit_info.value.code == EXIT_USAGE
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(argv) == EXIT_OK
    assert "seed=" not in capsys.readouterr().out


def test_eval_limit_zero_is_usage_error_naming_the_limit(trained, tmp_path, capsys):
    corpus_dir, ckpt = trained
    code = main(["eval", "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                 "--mode", "random:10", "--limit", "0", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "usage error: limit must be >= 1, got 0" in captured.err
    assert "effective config" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_ablate_limit_zero_is_usage_error_before_training(trained, tmp_path, capsys):
    corpus_dir, _ = trained
    code = main(["ablate", "--which", "edit-dist", "--epochs", "1", "--limit", "0",
                 "--ckpt-dir", str(tmp_path / "ckpts"), "--corpus", str(corpus_dir),
                 "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "usage error: limit must be >= 1, got 0" in captured.err
    assert "effective config" not in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["eval-out", "synth-out", "eval-ckpt"])
def test_path_through_a_regular_file_is_io_error(trained, tmp_path, capsys, case):
    corpus_dir, ckpt = trained
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n", encoding="utf-8")
    eval_args = ["eval", "--corpus", str(corpus_dir), "--mode", "random:10", "--limit", "1"]
    argv = {
        "eval-out": eval_args + ["--ckpt", str(ckpt), "--out", str(afile / "r.json")],
        "synth-out": ["synth", "--n", "30", "--out", str(afile / "x")],
        "eval-ckpt": eval_args + ["--ckpt", str(afile / "x.ckpt"),
                                  "--out", str(tmp_path / "r.json")],
    }[case]
    assert main(argv) == EXIT_IO
    assert "io error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [afile]


def test_corrupt_checkpoint_is_format_error(trained, tmp_path, capsys):
    corpus_dir, _ = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK" * 8)
    code = main(["eval", "--ckpt", str(bad), "--corpus", str(corpus_dir),
                 "--mode", "random:10", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_FORMAT
    assert "format error" in capsys.readouterr().err


def test_eval_overlong_rollouts_exit_ok(trained, tmp_path, capsys):
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
    # edit, generate and control name an early stop in one line: a 30-word
    # start alone outgrows max_seq_len, so no step runs, while one step adds
    # at most 3 words to a 2-word start, which then still fits
    ex = corpus.test[0]
    word = corpus.vocab.decode(ex.caption[0])
    for n, steps, said in ((30, 4, ["stopped after 0 of 4 steps: "
                                    "the caption outgrew max_seq_len 22"]),
                           (2, 1, [])):
        for command, start in (("edit", ["--ref", " ".join([word] * n)]),
                               ("generate", ["--len", str(n)]),
                               ("control", ["--len", str(n), "--pins", f"0={word}"])):
            capsys.readouterr()
            code = main([command, "--ckpt", str(ckpt), "--corpus", str(corpus_dir),
                         "--scene", str(ex.scene_id), "--steps", str(steps), *start])
            assert code == EXIT_OK
            lines = capsys.readouterr().out.splitlines()
            assert [line for line in lines if line.startswith("stopped")] == said, command


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
